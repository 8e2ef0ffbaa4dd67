//! Executor health checking, circuit breaking and crashed-PU recovery.
//!
//! The paper's control plane assumes PUs stay up; this module is the
//! fault-tolerant extension: a [`HealthChecker`] probes every executor PU
//! from the host over XPU-Shim, quarantines unresponsive PUs behind a
//! circuit breaker (so a *flapping* PU stops receiving work without being
//! declared dead), and — once a PU misses enough consecutive probes or is
//! positively known dead — runs the full recovery pipeline:
//!
//! 1. **Shim reclamation** — the dead PU's `CAP_Group`s are dropped and its
//!    XPU-FIFO UUIDs reclaimed exactly once (the paper's lazy-reclamation
//!    path, §5, actually triggered);
//! 2. **Runtime purge** — instances, warm pools, templates and the executor
//!    registration on the PU are removed, and the PU's `runc` book-keeping
//!    is reconciled (running sandboxes marked `Stopped`);
//! 3. **Gateway purge** — idle instances are dropped, the PU is marked
//!    unschedulable, and functions with no surviving instance are evicted
//!    from the keep-alive policy.
//!
//! Subsequent requests fail over to surviving PUs; functions whose
//! preferred accelerator kind is entirely gone degrade to the CPU cost
//! table, with telemetry recording each degradation.

use std::collections::HashMap;
use std::sync::Arc;

use hetsim::engine::ProcCtx;
use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use xpu_shim::cluster::ReclaimReport;
use xpu_shim::error::ShimError;

use crate::gateway::ApiGateway;

/// Virtual time between probe rounds.
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Consecutive missed probes before a PU is declared dead. The circuit
/// opens on the first miss, so a PU stops receiving new work while it
/// still might recover.
const MISS_THRESHOLD: u32 = 3;

/// How long an open circuit waits before letting a probe through again
/// (half-open trial).
const HALF_OPEN_AFTER: SimDuration = SimDuration::from_millis(5);

/// Circuit-breaker state of one monitored PU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Requests flow normally.
    Closed,
    /// The PU is quarantined; no new work is routed to it.
    Open,
    /// The quarantine aged out; the next probe decides.
    HalfOpen,
}

/// Liveness verdict for one monitored PU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuStatus {
    /// Responding to probes.
    Healthy,
    /// Missed this many consecutive probes (fewer than the threshold).
    Suspect(u32),
    /// Declared dead; recovery has run.
    Dead,
}

#[derive(Debug)]
struct PuRecord {
    misses: u32,
    status: PuStatus,
    circuit: CircuitState,
    opened_at: Option<SimTime>,
    first_miss_at: Option<SimTime>,
}

impl PuRecord {
    fn new() -> PuRecord {
        PuRecord {
            misses: 0,
            status: PuStatus::Healthy,
            circuit: CircuitState::Closed,
            opened_at: None,
            first_miss_at: None,
        }
    }
}

/// What one crashed-PU recovery did, and how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered (dead) PU.
    pub pu: PuId,
    /// Virtual time the death was declared.
    pub detected_at: SimTime,
    /// First missed probe → declaration (the detection window).
    pub detect_latency: SimDuration,
    /// Declaration → recovery pipeline finished.
    pub recovery_latency: SimDuration,
    /// What the shim reclaimed (processes, FIFOs, capabilities).
    pub reclaim: ReclaimReport,
    /// Instances the runtime purged.
    pub instances_purged: usize,
    /// Sandboxes `runc` reconciled to `Stopped`.
    pub sandboxes_reconciled: usize,
}

/// Callback invoked after a PU's recovery pipeline ran (see
/// [`HealthChecker::on_declared_dead`]).
pub type DeadPuHook = dyn Fn(&mut ProcCtx, PuId) + Send + Sync;

/// Mutable per-round state: a flat record vector parallel to the fixed
/// monitored-PU list, plus the incrementally maintained dead list. The
/// former `BTreeMap<PuId, PuRecord>` made every status lookup a tree walk
/// and `dead_pus` an O(all PUs) filter; the monitored set never changes
/// after construction, so records live in a dense vector indexed by a fixed
/// side table and the dead list is appended exactly once per declaration.
struct HealthState {
    records: Vec<PuRecord>,
    /// PUs declared dead, in declaration order (sorted on read).
    dead: Vec<PuId>,
}

/// Probes executor PUs and drives recovery when one dies. Cheap to clone.
#[derive(Clone)]
pub struct HealthChecker {
    gateway: ApiGateway,
    /// The monitored PUs, sorted — fixed at construction, shared by all
    /// clones, iterated allocation-free by every probe round.
    monitored: Arc<Vec<PuId>>,
    /// PU → index into `monitored` / `HealthState::records`.
    index: Arc<HashMap<PuId, usize>>,
    state: Arc<Mutex<HealthState>>,
    recoveries: Arc<Mutex<Vec<RecoveryReport>>>,
    dead_hooks: Arc<Mutex<Vec<Arc<DeadPuHook>>>>,
}

impl std::fmt::Debug for HealthChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthChecker").field("monitored", &self.monitored.len()).finish()
    }
}

impl HealthChecker {
    /// Creates a checker over `gateway`, monitoring every general-purpose
    /// PU except the host the manager runs on.
    pub fn new(gateway: ApiGateway) -> HealthChecker {
        let machine = gateway.molecule().machine().clone();
        let host = machine.host_cpu();
        let mut monitored = Vec::new();
        for pu in machine.pus() {
            if pu.kind.is_general_purpose() && pu.id != host {
                monitored.push(pu.id);
            }
        }
        monitored.sort();
        let index: HashMap<PuId, usize> =
            monitored.iter().enumerate().map(|(i, pu)| (*pu, i)).collect();
        let records = monitored.iter().map(|_| PuRecord::new()).collect();
        HealthChecker {
            gateway,
            monitored: Arc::new(monitored),
            index: Arc::new(index),
            state: Arc::new(Mutex::new(HealthState { records, dead: Vec::new() })),
            recoveries: Arc::new(Mutex::new(Vec::new())),
            dead_hooks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Registers a callback run right after a PU's recovery pipeline (shim
    /// reclaim + runtime purge + gateway purge) completes. Schedulers layered
    /// above the gateway use this to drain the dead PU's run queue into
    /// failover placement. Hooks run in registration order.
    pub fn on_declared_dead(&self, hook: impl Fn(&mut ProcCtx, PuId) + Send + Sync + 'static) {
        self.dead_hooks.lock().push(Arc::new(hook));
    }

    /// The monitored PUs, sorted.
    pub fn monitored_pus(&self) -> Vec<PuId> {
        self.monitored.as_ref().clone()
    }

    /// Current liveness verdict for `pu` (None if unmonitored).
    pub fn status(&self, pu: PuId) -> Option<PuStatus> {
        let i = *self.index.get(&pu)?;
        Some(self.state.lock().records[i].status)
    }

    /// Current circuit-breaker state for `pu` (None if unmonitored).
    pub fn circuit(&self, pu: PuId) -> Option<CircuitState> {
        let i = *self.index.get(&pu)?;
        Some(self.state.lock().records[i].circuit)
    }

    /// PUs declared dead so far, sorted. O(dead), served from the list
    /// `declare_dead` appends to — not a filter over every monitored PU.
    pub fn dead_pus(&self) -> Vec<PuId> {
        let mut dead = self.state.lock().dead.clone();
        dead.sort();
        dead
    }

    /// Every recovery run so far, in declaration order.
    pub fn recoveries(&self) -> Vec<RecoveryReport> {
        self.recoveries.lock().clone()
    }

    /// Probes every monitored PU once, updating circuits and recovering any
    /// PU that crossed the death threshold. Returns recoveries triggered by
    /// this round.
    pub fn probe_round(&self, ctx: &mut ProcCtx) -> Vec<RecoveryReport> {
        let mut out = Vec::new();
        let host = self.gateway.molecule().machine().host_cpu();
        // The monitored list is fixed and shared: a probe round allocates
        // nothing on its quiet path (the old code cloned the PU list out of
        // the state map every round — per-round churn at density).
        let monitored = Arc::clone(&self.monitored);
        for (i, &pu) in monitored.iter().enumerate() {
            // Respect an open circuit until the half-open window elapses:
            // probing a quarantined PU every round would stall the checker
            // on the xcall timeout each time.
            {
                let mut st = self.state.lock();
                let rec = &mut st.records[i];
                if rec.status == PuStatus::Dead {
                    continue;
                }
                if rec.circuit == CircuitState::Open {
                    let aged = rec.opened_at.is_none_or(|t| ctx.now() - t >= HALF_OPEN_AFTER);
                    if !aged {
                        continue;
                    }
                    rec.circuit = CircuitState::HalfOpen;
                }
            }
            let probe = self.gateway.molecule().cluster().probe_pu(ctx, host, pu);
            match probe {
                Ok(_rtt) => self.note_success(ctx, pu),
                Err(ShimError::PeerDead(_)) => {
                    // Positively dead: no need to wait out the threshold.
                    if let Some(report) = self.declare_dead(ctx, pu) {
                        out.push(report);
                    }
                }
                Err(_) => {
                    if let Some(report) = self.note_miss(ctx, pu) {
                        out.push(report);
                    }
                }
            }
        }
        out
    }

    /// Runs `rounds` probe rounds, sleeping the probe interval in between.
    /// Returns every recovery triggered.
    pub fn run(&self, ctx: &mut ProcCtx, rounds: usize) -> Vec<RecoveryReport> {
        let mut out = Vec::new();
        for round in 0..rounds {
            out.extend(self.probe_round(ctx));
            if round + 1 < rounds {
                ctx.sleep(PROBE_INTERVAL);
            }
        }
        out
    }

    fn note_success(&self, ctx: &mut ProcCtx, pu: PuId) {
        let i = *self.index.get(&pu).expect("monitored");
        let reopened = {
            let mut st = self.state.lock();
            let rec = &mut st.records[i];
            rec.misses = 0;
            rec.first_miss_at = None;
            rec.status = PuStatus::Healthy;
            let was_open = rec.circuit != CircuitState::Closed;
            rec.circuit = CircuitState::Closed;
            rec.opened_at = None;
            was_open
        };
        // Re-admit on every healthy probe, not just circuit transitions: the
        // gateway quarantines a PU itself when a request times out mid-fault,
        // and only the checker can clear that once the PU proves responsive.
        self.gateway.mark_pu_schedulable(pu);
        if reopened {
            let machine = self.gateway.molecule().machine().clone();
            machine.fault_plane().note(ctx.now(), &format!("recover: circuit closed for {pu}"));
        }
    }

    fn note_miss(&self, ctx: &mut ProcCtx, pu: PuId) -> Option<RecoveryReport> {
        let i = *self.index.get(&pu).expect("monitored");
        let (dead, opened) = {
            let mut st = self.state.lock();
            let rec = &mut st.records[i];
            rec.misses += 1;
            rec.first_miss_at.get_or_insert(ctx.now());
            if rec.misses >= MISS_THRESHOLD {
                (true, false)
            } else {
                rec.status = PuStatus::Suspect(rec.misses);
                let should_open = rec.circuit != CircuitState::Open;
                if should_open {
                    rec.circuit = CircuitState::Open;
                    rec.opened_at = Some(ctx.now());
                }
                (false, should_open)
            }
        };
        if dead {
            return self.declare_dead(ctx, pu);
        }
        if opened {
            self.gateway.mark_pu_unschedulable(pu);
            let machine = self.gateway.molecule().machine().clone();
            machine.fault_plane().note(ctx.now(), &format!("recover: circuit opened for {pu}"));
        }
        None
    }

    fn declare_dead(&self, ctx: &mut ProcCtx, pu: PuId) -> Option<RecoveryReport> {
        let i = *self.index.get(&pu).expect("monitored");
        let first_miss = {
            let mut st = self.state.lock();
            let rec = &mut st.records[i];
            if rec.status == PuStatus::Dead {
                return None;
            }
            rec.status = PuStatus::Dead;
            rec.circuit = CircuitState::Open;
            rec.opened_at = Some(ctx.now());
            let first = rec.first_miss_at;
            st.dead.push(pu);
            first
        };
        let detected_at = ctx.now();
        let molecule = self.gateway.molecule().clone();
        let machine = molecule.machine().clone();
        // Measure detection from the first missed probe, or — when the probe
        // returned a positive `PeerDead` — from the injected crash itself.
        let since = first_miss.or_else(|| machine.fault_plane().death_time(pu));
        let detect_latency = since.map_or(SimDuration::ZERO, |t| detected_at - t);
        machine.fault_plane().note(
            detected_at,
            &format!("recover: {pu} declared dead after {}ns", detect_latency.as_nanos()),
        );
        let t0 = ctx.now();
        let reclaim = molecule.cluster().reclaim_pu(ctx, pu);
        let purge = molecule.purge_pu(pu);
        self.gateway.purge_pu(pu);
        let recovery_latency = ctx.now() - t0;
        telemetry::with(|r| {
            r.complete_span(
                ctx.lane(),
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("recover-pu{}", pu.0),
                ctx.trace_ctx(),
            );
        });
        let report = RecoveryReport {
            pu,
            detected_at,
            detect_latency,
            recovery_latency,
            reclaim,
            instances_purged: purge.instances.len(),
            sandboxes_reconciled: purge.sandboxes_reconciled,
        };
        self.recoveries.lock().push(report.clone());
        // Run registered hooks outside the lock: a drain hook may itself
        // sleep (re-placing queued requests) or consult the checker.
        let hooks: Vec<Arc<DeadPuHook>> = self.dead_hooks.lock().clone();
        for hook in hooks {
            hook(ctx, pu);
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionDef;
    use crate::gateway::GatewayConfig;
    use crate::keepalive::Lru;
    use crate::runtime::{Molecule, MoleculeConfig, StartupKind};
    use crate::schedule::Scheduler;
    use hetsim::engine::Simulation;
    use hetsim::pu::PuKind;
    use hetsim::topology::Machine;
    use vsandbox::spec::LangRuntime;

    fn gateway() -> ApiGateway {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(
            FunctionDef::builder("img", LangRuntime::Python)
                .profiles(&[PuKind::Dpu, PuKind::Cpu])
                .exec_ms(5.0)
                .init_ms(4.0)
                .cfork_first_run_ms(0.5)
                .build(),
        );
        ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        )
    }

    #[test]
    fn healthy_pus_stay_closed_and_schedulable() {
        let gw = gateway();
        let hc = HealthChecker::new(gw.clone());
        assert_eq!(hc.monitored_pus(), vec![PuId(1), PuId(2)]);
        let mut sim = Simulation::new();
        let hc2 = hc.clone();
        sim.spawn("health", move |ctx| {
            let recovered = hc2.run(ctx, 3);
            assert!(recovered.is_empty());
        });
        sim.run().unwrap();
        assert_eq!(hc.status(PuId(1)), Some(PuStatus::Healthy));
        assert_eq!(hc.circuit(PuId(1)), Some(CircuitState::Closed));
        assert!(gw.avoided_pus().is_empty());
    }

    #[test]
    fn dead_pu_is_detected_recovered_and_requests_fail_over() {
        let gw = gateway();
        let hc = HealthChecker::new(gw.clone());
        let mut sim = Simulation::new();
        let gw2 = gw.clone();
        let hc2 = hc.clone();
        let out = sim.spawn("driver", move |ctx| {
            gw2.molecule().bootstrap(ctx).unwrap();
            gw2.prepare_all_templates(ctx).unwrap();
            // Warm an instance on the preferred DPU.
            let first = gw2.handle_request(ctx, &"img".into(), 64).unwrap();
            assert_eq!(first.pu, PuId(1));
            // Crash the DPU.
            let machine = gw2.molecule().machine().clone();
            machine.fault_plane().kill_pu(ctx.now(), PuId(1));
            let mut recovered = hc2.run(ctx, 2);
            assert_eq!(recovered.len(), 1, "kill is detected as PeerDead at once");
            // The next request fails over to a survivor.
            let after = gw2.handle_request(ctx, &"img".into(), 64).unwrap();
            assert_ne!(after.pu, PuId(1));
            (recovered.remove(0), after.pu)
        });
        sim.run().unwrap();
        let (report, failover_pu) = out.take_result().unwrap();
        assert_eq!(report.pu, PuId(1));
        assert_eq!(report.instances_purged, 1);
        assert!(report.reclaim.processes >= 1, "executor pid reclaimed");
        assert_eq!(hc.status(PuId(1)), Some(PuStatus::Dead));
        assert_eq!(gw.avoided_pus(), vec![PuId(1)]);
        assert_eq!(failover_pu, PuId(2), "second DPU takes over");
    }

    #[test]
    fn healthy_probe_readmits_a_gateway_quarantined_pu() {
        let gw = gateway();
        let hc = HealthChecker::new(gw.clone());
        let mut sim = Simulation::new();
        let gw2 = gw.clone();
        let hc2 = hc.clone();
        sim.spawn("health", move |ctx| {
            // A transient in-request timeout made the gateway quarantine the
            // DPU directly — the checker's circuit never opened, so only a
            // healthy probe can re-admit it.
            gw2.mark_pu_unschedulable(PuId(1));
            hc2.probe_round(ctx);
            assert!(gw2.avoided_pus().is_empty(), "healthy probe re-admits the PU");
            assert_eq!(hc2.circuit(PuId(1)), Some(CircuitState::Closed));
        });
        sim.run().unwrap();
    }

    #[test]
    fn flapping_pu_trips_the_circuit_then_recovers() {
        let gw = gateway();
        let hc = HealthChecker::new(gw.clone());
        let mut sim = Simulation::new();
        let gw2 = gw.clone();
        let hc2 = hc.clone();
        sim.spawn("health", move |ctx| {
            let machine = gw2.molecule().machine().clone();
            // Hang pu1 long enough to eat a probe timeout.
            machine.fault_plane().hang_pu(ctx.now(), PuId(1), SimDuration::from_millis(1));
            hc2.probe_round(ctx);
            assert_eq!(hc2.circuit(PuId(1)), Some(CircuitState::Open));
            assert_eq!(gw2.avoided_pus(), vec![PuId(1)]);
            // Past the hang and the 5 ms half-open window: the trial probe
            // succeeds and the circuit closes. One miss stays under the
            // death threshold of 3.
            ctx.sleep(SimDuration::from_millis(6));
            hc2.probe_round(ctx);
            assert_eq!(hc2.circuit(PuId(1)), Some(CircuitState::Closed));
            assert!(gw2.avoided_pus().is_empty());
        });
        sim.run().unwrap();
    }

    #[test]
    fn degraded_requests_are_counted_when_all_dpus_die() {
        let gw = gateway();
        let mut sim = Simulation::new();
        let gw2 = gw.clone();
        sim.spawn("driver", move |ctx| {
            gw2.molecule().bootstrap(ctx).unwrap();
            gw2.prepare_all_templates(ctx).unwrap();
            let machine = gw2.molecule().machine().clone();
            machine.fault_plane().kill_pu(ctx.now(), PuId(1));
            machine.fault_plane().kill_pu(ctx.now(), PuId(2));
            gw2.mark_pu_unschedulable(PuId(1));
            gw2.mark_pu_unschedulable(PuId(2));
            // The DPU-preferring function degrades to the CPU cost table.
            let served = gw2.handle_request(ctx, &"img".into(), 64).unwrap();
            assert_eq!(served.pu, PuId(0));
        });
        sim.run().unwrap();
        assert_eq!(gw.stats().degraded, 1);
    }

    #[test]
    fn start_instance_on_purged_pu_is_clean() {
        let gw = gateway();
        let mut sim = Simulation::new();
        sim.spawn("driver", move |ctx| {
            gw.molecule().bootstrap(ctx).unwrap();
            gw.prepare_all_templates(ctx).unwrap();
            let started = gw
                .molecule()
                .start_instance(ctx, &"img".into(), PuId(1), StartupKind::CforkLocal)
                .unwrap();
            let purge = gw.molecule().purge_pu(PuId(1));
            assert_eq!(purge.instances, vec![started.instance]);
            assert!(purge.executor_dropped);
            assert!(purge.sandboxes_reconciled >= 1);
            assert_eq!(gw.molecule().instance_pu(started.instance), None);
        });
        sim.run().unwrap();
    }
}
