//! The rack front-end: a sharded control plane over per-node gateways.
//!
//! A rack is one [`Machine`] whose PUs are partitioned into nodes joined
//! by the RDMA fabric tier (`hetsim::topology::RackBuilder`). This module
//! puts a serverless control plane on it:
//!
//! * **One gateway per node.** Every node runs its own default-configured
//!   [`SchedGateway`] scoped to that node's PUs
//!   ([`SchedGateway::new_for_pus`]), with its own run queues, keep-alive
//!   index and [`RegionDirectory`](molecule_core::regions::RegionDirectory).
//!   Placement inside a node uses the
//!   calibrated cost model, including the node-locality term that keeps
//!   DAG chains and region consumers off the fabric.
//! * **A consistent-hash front.** [`RackFront`] routes each function to
//!   its owning node through a [`HashRing`], so function state (warm
//!   pools, FPGA caches, region replicas) concentrates where requests
//!   land. Forwarding to a remote owner is a real shim probe over the
//!   fabric — it pays the calibrated cross-node cost and fails when chaos
//!   cuts the path.
//! * **Node-level failure handling.** [`RackFront::handle_node_death`]
//!   removes the node from the ring and purges the dead node's PUs from
//!   **every** surviving gateway — region-directory entries, keep-alive
//!   pools and placement eligibility — then reclaims their shim state, so
//!   no survivor keeps routing toward the dead node.
//!
//! Cross-node DAG edges stay zero-copy: [`RackFront::plan_chain`] places
//! consecutive stages on their owning nodes and
//! [`molecule_core::dag::run_chain`] moves each edge's payload through the
//! shim's FIFO path, where payloads at or above the calibrated segment
//! threshold travel as descriptors resolved once from the owning node's
//! arena.

use std::collections::BTreeSet;
use std::sync::Arc;

use hetsim::engine::{ProcCtx, SimReceiver};
use hetsim::pu::NodeId;
use hetsim::topology::Machine;
use molecule_core::dag::{ChainSpec, ChainStage, CommMethod};
use molecule_core::keepalive::Lru;
use molecule_core::schedule::Scheduler;
use molecule_core::{ApiGateway, GatewayConfig, Molecule, MoleculeError};
use molecule_sched::gateway::{JobOutcome, SchedConfig, SchedGateway, SubmitError, SubmitOpts};
use molecule_state::StateLayer;
use parking_lot::Mutex;
use vsandbox::spec::FuncId;

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Tunables of the rack front-end.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// The node hosting the front-end process (requests enter here).
    pub front_node: NodeId,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig { front_node: NodeId(0) }
    }
}

/// Counters the rack front keeps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RackStats {
    /// Requests routed through the ring.
    pub routed: u64,
    /// Requests whose owner was a remote node (paid the fabric hop).
    pub forwarded: u64,
    /// Requests re-routed after their owner was found dead at forward time.
    pub rerouted: u64,
    /// Node deaths handled.
    pub node_deaths: u64,
    /// Warm instances purged across all gateways by node deaths.
    pub purged_instances: u64,
}

struct RackShared {
    ring: HashRing,
    dead: BTreeSet<NodeId>,
    stats: RackStats,
}

/// The rack-scale control plane: per-node gateways behind one
/// consistent-hash front. Cheap to clone; clones share all state.
#[derive(Clone)]
pub struct RackFront {
    molecule: Molecule,
    config: Arc<RackConfig>,
    gateways: Arc<Vec<SchedGateway>>,
    state_layer: Arc<Mutex<Option<StateLayer>>>,
    shared: Arc<Mutex<RackShared>>,
}

impl RackFront {
    /// Builds the front over an already-launched runtime: one scoped
    /// [`SchedGateway`] per node of the machine, all nodes on the ring.
    pub fn deploy(molecule: Molecule, config: RackConfig) -> RackFront {
        let machine = molecule.machine().clone();
        let gateways = machine
            .nodes()
            .into_iter()
            .map(|node| {
                let api = ApiGateway::new(
                    molecule.clone(),
                    Scheduler::default(),
                    GatewayConfig::default(),
                    Box::new(Lru::new()),
                );
                SchedGateway::new_for_pus(api, SchedConfig::default(), &machine.node_pus(node))
            })
            .collect();
        let ring = HashRing::with_nodes(DEFAULT_VNODES, machine.nodes());
        RackFront {
            molecule,
            config: Arc::new(config),
            gateways: Arc::new(gateways),
            state_layer: Arc::new(Mutex::new(None)),
            shared: Arc::new(Mutex::new(RackShared {
                ring,
                dead: BTreeSet::new(),
                stats: RackStats::default(),
            })),
        }
    }

    /// The shared runtime.
    pub fn molecule(&self) -> &Molecule {
        &self.molecule
    }

    /// The rack machine.
    pub fn machine(&self) -> &Machine {
        self.molecule.machine()
    }

    /// One node's gateway.
    pub fn gateway(&self, node: NodeId) -> &SchedGateway {
        &self.gateways[node.raw() as usize]
    }

    /// Every node's gateway, indexed by [`NodeId::raw`].
    pub fn gateways(&self) -> &[SchedGateway] {
        &self.gateways
    }

    /// Counters.
    pub fn stats(&self) -> RackStats {
        self.shared.lock().stats
    }

    /// Nodes currently on the placement ring, sorted.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.shared.lock().ring.nodes()
    }

    /// The node whose gateway owns `func`, per the ring.
    pub fn owner_of(&self, func: &FuncId) -> Option<NodeId> {
        self.shared.lock().ring.node_for(func.as_str())
    }

    /// Boots the runtime and pre-boots language templates on every
    /// general-purpose PU of every node.
    ///
    /// # Errors
    ///
    /// Bootstrap or template-boot failures from the runtime.
    pub fn bootstrap(&self, ctx: &mut ProcCtx) -> Result<(), MoleculeError> {
        self.molecule.bootstrap(ctx)?;
        // Templates are per-PU runtime state shared by all gateways; one
        // pass over the machine covers every node.
        self.gateways[0].api().prepare_all_templates(ctx)
    }

    /// Starts every node gateway's worker pools.
    pub fn start(&self, ctx: &mut ProcCtx) {
        for gw in self.gateways.iter() {
            gw.start(ctx);
        }
    }

    /// Shuts every node gateway down. Idempotent.
    pub fn shutdown(&self) {
        for gw in self.gateways.iter() {
            gw.shutdown();
        }
    }

    /// Bridges a [`StateLayer`] into **every** node gateway's
    /// [`RegionDirectory`](molecule_core::regions::RegionDirectory): each
    /// replica attach or release fans out to all directories, so any node's
    /// placer sees where region pages live — including remote nodes, which
    /// the node-locality term then prefers to keep together. The layer is
    /// also remembered for the node-death sweep.
    pub fn attach_state_layer(&self, layer: &StateLayer) {
        let dirs: Vec<_> =
            self.gateways.iter().map(|gw| gw.api().region_directory().clone()).collect();
        layer.set_host_observer(Arc::new(move |region, pu, hosted| {
            for dir in &dirs {
                if hosted {
                    dir.publish(region, pu);
                } else {
                    dir.retract(region, pu);
                }
            }
        }));
        *self.state_layer.lock() = Some(layer.clone());
    }

    /// Admits one request through the ring: the owning node's gateway
    /// queues it and the reply channel resolves to its [`JobOutcome`].
    ///
    /// When the owner is remote, the front first probes it over the fabric
    /// (a real shim xcall: it pays the calibrated cross-node round trip and
    /// times out if chaos cut the path or killed the node). A failed probe
    /// triggers [`handle_node_death`](Self::handle_node_death) and one
    /// re-route to the key's next owner.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] from admission control, or a runtime error when no
    /// live node remains.
    pub fn submit(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
        opts: SubmitOpts,
    ) -> Result<SimReceiver<JobOutcome>, SubmitError> {
        let mut attempts = 0;
        loop {
            let owner = self.owner_of(func).ok_or_else(|| {
                SubmitError::Runtime(MoleculeError::Internal("no live rack node".into()))
            })?;
            self.shared.lock().stats.routed += 1;
            if owner != self.config.front_node {
                let machine = self.machine();
                let from = machine.node_host(self.config.front_node);
                let to = machine.node_host(owner);
                let probe = self.molecule.cluster().probe_pu(ctx, from, to);
                self.shared.lock().stats.forwarded += 1;
                if probe.is_err() {
                    // The owner is unreachable: sweep it and try the key's
                    // next owner once.
                    self.handle_node_death(ctx, owner);
                    self.shared.lock().stats.rerouted += 1;
                    attempts += 1;
                    if attempts <= 1 {
                        continue;
                    }
                    return Err(SubmitError::Runtime(MoleculeError::Internal(format!(
                        "rack owner {owner} unreachable"
                    ))));
                }
            }
            telemetry::with(|r| r.metrics().counter_add("rack.routed", 1));
            return self.gateway(owner).submit(ctx, func, input_bytes, opts);
        }
    }

    /// [`submit`](Self::submit) and block for the outcome.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit), plus an internal error if the owning
    /// gateway shuts down mid-request.
    pub fn invoke(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
        opts: SubmitOpts,
    ) -> Result<JobOutcome, SubmitError> {
        let rx = self.submit(ctx, func, input_bytes, opts)?;
        rx.recv(ctx).map_err(|_| {
            SubmitError::Runtime(MoleculeError::Internal("rack gateway shut down".into()))
        })
    }

    /// Sweeps a dead node out of the whole control plane:
    ///
    /// 1. the node leaves the placement ring (keys fall through to their
    ///    next owner; everything else keeps its owner);
    /// 2. each of its PUs is purged from **every** gateway — region
    ///    directory entries, idle/owned instances, keep-alive records and
    ///    placement eligibility (the fix for the single-gateway
    ///    `purge_pu`: survivors must forget the dead node too);
    /// 3. the state layer re-masters or quarantines regions mastered
    ///    there, and the shim reclaims the PUs' capabilities and FIFOs.
    ///
    /// Idempotent per node. Returns the number of PUs swept.
    pub fn handle_node_death(&self, ctx: &mut ProcCtx, node: NodeId) -> usize {
        {
            let mut sh = self.shared.lock();
            if !sh.dead.insert(node) {
                return 0;
            }
            sh.ring.remove(node);
            sh.stats.node_deaths += 1;
        }
        let pus = self.machine().node_pus(node);
        let layer = self.state_layer.lock().clone();
        for &pu in &pus {
            let mut purged = 0;
            for gw in self.gateways.iter() {
                purged += gw.api().purge_pu(pu);
            }
            self.shared.lock().stats.purged_instances += purged as u64;
            if let Some(layer) = &layer {
                layer.handle_pu_death(ctx, pu);
            }
            self.molecule.cluster().reclaim_pu(ctx, pu);
        }
        telemetry::with(|r| r.metrics().counter_add("rack.node_deaths", 1));
        pus.len()
    }

    /// Plans a direct-IPC chain across the rack: each stage runs on its
    /// ring owner's node, on the first PU there that supports the function
    /// and has capacity. Consecutive stages owned by different nodes
    /// become cross-node DAG edges — their payloads travel the fabric as
    /// zero-copy descriptors when large enough.
    ///
    /// # Errors
    ///
    /// Unknown functions, or [`MoleculeError::NoCapacity`] when a stage's
    /// owning node has no PU that can host it.
    pub fn plan_chain(
        &self,
        name: impl Into<String>,
        funcs: &[FuncId],
    ) -> Result<ChainSpec, MoleculeError> {
        let machine = self.machine();
        let mut stages = Vec::with_capacity(funcs.len());
        for func in funcs {
            let def = self
                .molecule
                .registry()
                .get(func)
                .ok_or_else(|| MoleculeError::UnknownFunction(func.clone()))?;
            let node =
                self.owner_of(func).ok_or_else(|| MoleculeError::NoCapacity(func.clone()))?;
            let pu = machine
                .node_pus(node)
                .into_iter()
                .find(|&pu| {
                    machine.pu(pu).is_some_and(|spec| def.supports(spec.kind))
                        && Scheduler::pu_has_capacity(machine, pu, &def)
                })
                .ok_or_else(|| MoleculeError::NoCapacity(func.clone()))?;
            stages.push(ChainStage { func: func.clone(), pu });
        }
        Ok(ChainSpec::new(name, stages, CommMethod::DirectIpc))
    }
}

impl std::fmt::Debug for RackFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sh = self.shared.lock();
        f.debug_struct("RackFront")
            .field("nodes", &self.gateways.len())
            .field("live", &sh.ring.len())
            .field("stats", &sh.stats)
            .finish()
    }
}
