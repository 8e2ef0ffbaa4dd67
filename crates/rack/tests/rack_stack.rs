//! End-to-end tests of the rack control plane: consistent-hash routing to
//! node-scoped gateways, the dead-node sweep that purges every surviving
//! gateway, and the zero-copy descriptor path on cross-node DAG edges.

use bytes::Bytes;
use hetsim::engine::Simulation;
use hetsim::pu::{NodeId, PuId, PuKind};
use hetsim::topology::Machine;
use molecule_core::dag::{run_chain, ChainSpec, ChainStage, CommMethod};
use molecule_core::function::FunctionDef;
use molecule_core::{Molecule, MoleculeConfig};
use molecule_rack::{RackConfig, RackFront};
use molecule_sched::gateway::{JobOutcome, SubmitOpts};
use molecule_state::{RegionSpec, StateLayer};
use vsandbox::spec::{FuncId, LangRuntime};

/// Finds a function name the ring assigns to `node`.
fn func_owned_by(front: &RackFront, node: NodeId, tag: &str) -> FuncId {
    (0..1000u32)
        .map(|i| FuncId::from(format!("{tag}-{i}")))
        .find(|f| front.owner_of(f) == Some(node))
        .expect("some key maps to every node")
}

fn def(id: &FuncId) -> FunctionDef {
    FunctionDef::builder(id.as_str(), LangRuntime::Python)
        .profiles(&[PuKind::Cpu, PuKind::Dpu])
        .exec_ms(1.0)
        .build()
}

#[test]
fn requests_route_to_their_ring_owners_node() {
    let machine = Machine::rack(2, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let front = RackFront::deploy(molecule.clone(), RackConfig::default());

    let local = func_owned_by(&front, NodeId(0), "local");
    let remote = func_owned_by(&front, NodeId(1), "remote");
    molecule.register_function(def(&local));
    molecule.register_function(def(&remote));

    let mut sim = Simulation::new();
    let f = front.clone();
    let m = machine.clone();
    sim.spawn("driver", move |ctx| {
        f.bootstrap(ctx).expect("bootstrap");
        f.start(ctx);
        for (func, node) in [(&local, NodeId(0)), (&remote, NodeId(1))] {
            for _ in 0..3 {
                match f.invoke(ctx, func, 1024, SubmitOpts::default()).expect("invoke") {
                    JobOutcome::Completed { pu, .. } => {
                        assert_eq!(m.node_of(pu), node, "{func} served off its owner node");
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        f.shutdown();
    });
    sim.run().expect("simulation");
    let stats = front.stats();
    assert_eq!(stats.routed, 6);
    assert_eq!(stats.forwarded, 3, "the remote owner pays the fabric hop per request");
    assert_eq!(stats.node_deaths, 0);
}

#[test]
fn chain_stages_run_on_their_owner_nodes() {
    let machine = Machine::rack(4, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let front = RackFront::deploy(molecule.clone(), RackConfig::default());
    let a = func_owned_by(&front, NodeId(1), "stage-a");
    let b = func_owned_by(&front, NodeId(3), "stage-b");
    molecule.register_function(def(&a));
    molecule.register_function(def(&b));
    let spec = front.plan_chain("cross", &[a.clone(), b.clone()]).expect("plan");
    assert_eq!(machine.node_of(spec.stages[0].pu), NodeId(1));
    assert_eq!(machine.node_of(spec.stages[1].pu), NodeId(3));
}

/// The tentpole data-plane property: a cross-node DAG edge carrying at
/// least the calibrated segment threshold travels as a descriptor (payload
/// placed once in the writer node's arena, resolved once by the reader),
/// not as staged copies over the fabric.
#[test]
fn cross_node_chain_edges_take_the_descriptor_path() {
    let machine = Machine::rack(2, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let payload = 32 * 1024u64;
    let big = FunctionDef::builder("edge-big", LangRuntime::Python)
        .profiles(&[PuKind::Cpu, PuKind::Dpu])
        .exec_ms(1.0)
        .output_bytes(payload)
        .build();
    let sink = FunctionDef::builder("edge-sink", LangRuntime::Python)
        .profiles(&[PuKind::Cpu, PuKind::Dpu])
        .exec_ms(1.0)
        .output_bytes(64)
        .build();
    molecule.register_function(big.clone());
    molecule.register_function(sink.clone());

    // Stage 0 on node 0's DPU, stage 1 on node 1's DPU: the 32 KiB edge
    // crosses the fabric.
    let spec = ChainSpec::new(
        "fabric-edge",
        vec![ChainStage::new(big.id.clone(), PuId(1)), ChainStage::new(sink.id.clone(), PuId(3))],
        CommMethod::DirectIpc,
    )
    .input_bytes(payload)
    .rounds(2);

    let mut sim = Simulation::new();
    let mol = molecule.clone();
    sim.spawn("driver", move |ctx| {
        mol.bootstrap(ctx).expect("bootstrap");
        let before = mol.cluster().stats();
        run_chain(&mol, ctx, &spec).expect("chain");
        let after = mol.cluster().stats();
        assert!(
            after.descriptor_handoffs > before.descriptor_handoffs,
            "large cross-node edges must hand off descriptors"
        );
        assert!(
            after.bytes_elided > before.bytes_elided,
            "descriptor hand-off must elide payload bytes on the fabric"
        );
        assert!(
            after.fabric_transfers > before.fabric_transfers,
            "the edge must actually cross the rack fabric"
        );
    });
    sim.run().expect("simulation");
    assert_eq!(molecule.cluster().outstanding_segments(), 0, "every descriptor resolved");
}

/// Satellite regression: a node death must purge the dead node's PUs from
/// *every* surviving gateway — region directories, warm pools and
/// placement eligibility — not just the gateway that noticed.
#[test]
fn node_death_sweeps_every_surviving_gateways_indexes() {
    let machine = Machine::rack(2, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let front = RackFront::deploy(molecule.clone(), RackConfig::default());
    let layer = StateLayer::new(molecule.cluster().clone());
    front.attach_state_layer(&layer);

    let local = func_owned_by(&front, NodeId(0), "surv");
    let remote = func_owned_by(&front, NodeId(1), "dead");
    molecule.register_function(def(&local));
    molecule.register_function(def(&remote));

    let mut sim = Simulation::new();
    let f = front.clone();
    let lay = layer.clone();
    let m = machine.clone();
    sim.spawn("driver", move |ctx| {
        f.bootstrap(ctx).expect("bootstrap");
        f.start(ctx);

        // A region mastered on node 1's DPU, replicated to node 0: every
        // gateway's directory learns both hosts through the fan-out.
        lay.create_region(ctx, PuId(3), RegionSpec::new("weights", 4)).expect("create");
        lay.attach(ctx, PuId(1), "weights").expect("attach");
        lay.write(ctx, PuId(3), "weights", 0, &[7u8; 64], None).expect("write");
        lay.commit(ctx, PuId(3), "weights").expect("commit");
        for gw in f.gateways() {
            let hosts = gw.api().region_directory().hosts("weights");
            assert!(hosts.contains(&PuId(3)), "directory missing the master replica");
            assert!(hosts.contains(&PuId(1)), "directory missing the node-0 replica");
        }
        // Serve the remote function once on node 1's DPU so its pool has
        // a warm instance to purge.
        f.gateway(NodeId(1)).api().handle_request_on(ctx, &remote, PuId(3), 1024).expect("warm");
        assert_eq!(f.gateway(NodeId(1)).api().warm_idle_count(&remote, PuId(3)), 1);

        // Node 1 dies; the sweep must reach every surviving gateway.
        machine_kill_node(&m, ctx.now(), NodeId(1));
        let swept = f.handle_node_death(ctx, NodeId(1));
        assert_eq!(swept, 2, "both node-1 PUs swept");
        assert_eq!(f.handle_node_death(ctx, NodeId(1)), 0, "idempotent");

        for gw in f.gateways() {
            let hosts = gw.api().region_directory().hosts("weights");
            assert!(!hosts.contains(&PuId(3)), "a gateway still lists a dead region host");
            assert!(!hosts.contains(&PuId(2)), "a gateway still lists a dead region host");
            let avoided = gw.api().avoided_pus();
            assert!(avoided.contains(&PuId(2)) && avoided.contains(&PuId(3)));
        }
        assert_eq!(f.gateway(NodeId(1)).api().warm_idle_count(&remote, PuId(3)), 0);
        assert_eq!(f.live_nodes(), vec![NodeId(0)]);

        // The dead node's keys fall through to the survivor; traffic keeps
        // completing with zero loss.
        for _ in 0..3 {
            match f.invoke(ctx, &remote, 1024, SubmitOpts::default()).expect("failover invoke") {
                JobOutcome::Completed { pu, .. } => assert_eq!(m.node_of(pu), NodeId(0)),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        f.shutdown();
    });
    sim.run().expect("simulation");
    assert_eq!(front.stats().node_deaths, 1);
}

/// The forward path notices an unreachable owner by itself: the probe over
/// the fabric times out, the front sweeps the node and re-routes.
#[test]
fn failed_forward_probe_triggers_the_sweep_and_reroutes() {
    let machine = Machine::rack(2, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let front = RackFront::deploy(molecule.clone(), RackConfig::default());
    let remote = func_owned_by(&front, NodeId(1), "probe");
    molecule.register_function(def(&remote));

    let mut sim = Simulation::new();
    let f = front.clone();
    let m = machine.clone();
    sim.spawn("driver", move |ctx| {
        f.bootstrap(ctx).expect("bootstrap");
        f.start(ctx);
        machine_kill_node(&m, ctx.now(), NodeId(1));
        match f.invoke(ctx, &remote, 1024, SubmitOpts::default()).expect("rerouted invoke") {
            JobOutcome::Completed { pu, .. } => assert_eq!(m.node_of(pu), NodeId(0)),
            other => panic!("unexpected outcome {other:?}"),
        }
        f.shutdown();
    });
    sim.run().expect("simulation");
    let stats = front.stats();
    assert_eq!(stats.node_deaths, 1, "the failed probe swept the node");
    assert_eq!(stats.rerouted, 1);
}

/// Region sync across the fabric stays zero-copy: a committed page set
/// pulled by a replica on another node rides a parked segment descriptor,
/// resolved once from the master node's arena.
#[test]
fn cross_node_region_pull_stays_zero_copy() {
    let machine = Machine::rack(2, 1);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    let layer = StateLayer::new(molecule.cluster().clone());

    let mut sim = Simulation::new();
    let mol = molecule.clone();
    let lay = layer.clone();
    sim.spawn("driver", move |ctx| {
        mol.bootstrap(ctx).expect("bootstrap");
        // 8 pages = 32 KiB: a full-region sync clears the segment threshold.
        lay.create_region(ctx, PuId(1), RegionSpec::new("model", 8)).expect("create");
        lay.attach(ctx, PuId(3), "model").expect("attach across the fabric");
        let blob = Bytes::from(vec![0x5A; 32 * 1024]);
        lay.write(ctx, PuId(1), "model", 0, &blob, None).expect("write");
        let before = mol.cluster().stats();
        lay.commit(ctx, PuId(1), "model").expect("commit");
        lay.pull(ctx, PuId(3), "model").expect("pull");
        let after = mol.cluster().stats();
        assert!(
            after.bytes_elided > before.bytes_elided,
            "cross-node region sync must ride the descriptor path"
        );
        let got = lay.read(ctx, PuId(3), "model", 0, 64).expect("read");
        assert!(got.iter().all(|&b| b == 0x5A), "replica content out of sync");
    });
    sim.run().expect("simulation");
    assert_eq!(molecule.cluster().outstanding_segments(), 0);
}

fn machine_kill_node(machine: &Machine, now: hetsim::time::SimTime, node: NodeId) {
    let plane = machine.fault_plane();
    for pu in machine.node_pus(node) {
        plane.kill_pu(now, pu);
    }
}
