//! Calibrated cost-model placement.
//!
//! The seed `Scheduler` picks the first PU of the first profile kind with
//! memory headroom and never looks at load. The [`rank`] function here
//! scores every candidate PU by the *calibrated* latency model instead:
//!
//! ```text
//! score(pu) = exec(pu) + cold_start(pu) + queue_wait(pu)
//!             + slo_term(pu) - STATE_BONUS - NODE_BONUS
//! ```
//!
//! * `exec(pu)` — the function's execution-time estimate on that PU, from
//!   the same `hetsim::calib`-derived models the simulator charges
//!   ([`ExecModel::time_on`] for general PUs, the FPGA/GPU profile models
//!   for accelerators);
//! * `cold_start(pu)` — zero when the PU holds a warm instance, otherwise
//!   the calibrated startup estimate (cfork pipeline on CPUs/DPUs, cached
//!   image flash + sandbox prep on FPGAs, module load on GPUs);
//! * `queue_wait(pu)` — live queue depth × EWMA service time, supplied by
//!   the caller from its [`RunQueue`]s;
//! * [`STATE_BONUS`] (2 ms) — subtracted when `pu` already hosts a replica of one of
//!   the function's declared shared-state regions
//!   ([`FunctionDef::regions`]): running where the pages live turns the
//!   region attach into a `map_shared` of resident pages instead of a
//!   cross-PU pull, so state locality competes in the same currency as
//!   queueing and cold starts;
//! * [`NODE_BONUS`] (0.5 ms) — subtracted, on a multi-node rack, when `pu`
//!   shares a node with such a host: the attach then stays off the rack
//!   fabric even when the exact PU is busy;
//! * `slo_term(pu)` — read from the function's declared
//!   [`SloClass`](molecule_tenancy::SloClass): a latency-sensitive function
//!   counts cold start and queue wait *twice* (it is willing to pay exec
//!   time on a slower PU to dodge a cold FPGA or a deep queue), while a
//!   batch function earns back half of both (it absorbs cold starts and
//!   queueing that would blow a latency SLO). Functions with no SLO score
//!   exactly as before.
//!
//! Ties break on the PU id, so placement stays deterministic. Chains are
//! not placed here: `dag::run_chain` and `RackFront::plan_chain` place
//! their stages explicitly.
//!
//! [`ExecModel::time_on`]: molecule_core::function::ExecModel::time_on
//! [`RunQueue`]: crate::queue::RunQueue

use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::function::FunctionDef;
use molecule_core::schedule::Scheduler;

/// Live load the gateway observed on one candidate PU.
#[derive(Debug, Clone, Copy)]
pub struct PuLoad {
    /// The PU.
    pub pu: PuId,
    /// Estimated queueing delay ([`RunQueue::estimated_wait`]).
    ///
    /// [`RunQueue::estimated_wait`]: crate::queue::RunQueue::estimated_wait
    pub wait: SimDuration,
    /// Whether a warm instance of the function idles on this PU.
    pub warm: bool,
}

/// One scored candidate, best (lowest score) first after [`rank`].
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The PU.
    pub pu: PuId,
    /// Total score (lower is better).
    pub score: SimDuration,
    /// Execution-time estimate on this PU.
    pub exec: SimDuration,
    /// Cold-start estimate (zero when warm).
    pub cold: SimDuration,
    /// Queue-wait estimate carried in from [`PuLoad`].
    pub wait: SimDuration,
}

impl Candidate {
    /// Estimated completion latency for an admission decision: queue wait +
    /// cold start + execution (the locality bonuses are preferences, not
    /// latencies, so they are excluded here).
    pub fn estimated_latency(&self) -> SimDuration {
        self.wait + self.cold + self.exec
    }
}

/// The execution-time estimate for `def` on `pu`, from the calibrated
/// models. `None` when the function cannot run there (no profile).
pub fn exec_estimate(
    machine: &Machine,
    def: &FunctionDef,
    pu: PuId,
    input: u64,
) -> Option<SimDuration> {
    let spec = machine.pu(pu)?;
    match spec.kind {
        PuKind::Fpga => def.fpga.as_ref().map(|p| p.exec.host_time(input)),
        PuKind::Gpu => def.gpu.as_ref().map(|e| e.host_time(input)),
        _ => Some(def.exec.time_on(spec, input)),
    }
}

/// The calibrated cold-start estimate for `def` on `pu`: what scaling up
/// would add when no warm instance idles there.
pub fn cold_estimate(machine: &Machine, def: &FunctionDef, pu: PuId) -> SimDuration {
    let Some(spec) = machine.pu(pu) else { return SimDuration::ZERO };
    let calib = machine.calibration();
    match spec.kind {
        PuKind::Fpga => {
            // Resident kernels restart for free; a miss re-flashes the
            // cached image and preps the sandbox.
            let resident = def
                .fpga
                .as_ref()
                .zip(machine.fpga(pu))
                .is_some_and(|(p, dev)| dev.is_resident(&p.kernel.name));
            if resident {
                SimDuration::ZERO
            } else {
                calib.fpga.load_cached + calib.fpga.prep_sandbox
            }
        }
        PuKind::Gpu => machine.gpu(pu).map_or(SimDuration::ZERO, |d| d.costs().module_load),
        _ => {
            // The cfork pipeline (Fig. 11 stages) plus the child's first-run
            // cost, both scaled to the PU's compute factor.
            let c = &calib.container;
            spec.scale_compute(
                c.fork_propagate
                    + c.cgroup_attach_mutex
                    + c.ns_reconfig
                    + c.conn_handshake
                    + def.cfork_first_run,
            )
        }
    }
}

/// Score credit for a PU that already hosts a replica of one of the
/// function's declared shared-state regions.
pub const STATE_BONUS: SimDuration = SimDuration::from_millis(2);

/// Score credit for any PU on the same rack node as a state-region host.
pub const NODE_BONUS: SimDuration = SimDuration::from_micros(500);

/// Ranks the candidate PUs in `loads` for `def`, best first.
///
/// Only PUs in `loads` that the function supports *and* that pass the
/// capacity check ([`Scheduler::pu_has_capacity`] — memory headroom on
/// general PUs, fabric/slot headroom on accelerators) are considered.
/// PUs in `state_hosts` (replica holders of the function's declared
/// regions, from the gateway's `RegionDirectory`) earn [`STATE_BONUS`].
///
/// On a rack, any PU sharing a *node* with a state host earns
/// [`NODE_BONUS`]: even when the exact PU is busy, keeping a region
/// consumer on the same node avoids the fabric tier entirely. Single-node
/// machines are unaffected (every PU is on the preferred node, so the term
/// cancels out of the ranking).
pub fn rank(
    machine: &Machine,
    def: &FunctionDef,
    input: u64,
    loads: impl IntoIterator<Item = PuLoad>,
    state_hosts: &[PuId],
) -> Vec<Candidate> {
    let preferred_nodes: Vec<_> = if machine.node_count() > 1 {
        let mut nodes: Vec<_> = state_hosts.iter().map(|&pu| machine.node_of(pu)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    } else {
        Vec::new()
    };
    let mut out = Vec::new();
    for load in loads {
        let Some(spec) = machine.pu(load.pu) else { continue };
        if !def.supports(spec.kind) {
            continue;
        }
        if !Scheduler::pu_has_capacity(machine, load.pu, def) {
            continue;
        }
        let Some(exec) = exec_estimate(machine, def, load.pu, input) else { continue };
        let cold = if load.warm { SimDuration::ZERO } else { cold_estimate(machine, def, load.pu) };
        let mut score = exec + cold + load.wait;
        match def.slo {
            Some(molecule_tenancy::SloClass::Latency(_)) => {
                // Latency-sensitive: cold start and queue wait count twice,
                // steering away from cold fabrics and deep queues even when
                // raw exec time there would be lower.
                score = score + cold + load.wait;
            }
            Some(molecule_tenancy::SloClass::Batch) => {
                // Batch: absorb half the cold/wait penalty, soaking up the
                // capacity latency-sensitive functions avoid.
                score = score.saturating_sub((cold + load.wait).mul_f64(0.5));
            }
            None => {}
        }
        if state_hosts.contains(&load.pu) {
            score = score.saturating_sub(STATE_BONUS);
        }
        if preferred_nodes.contains(&machine.node_of(load.pu)) {
            score = score.saturating_sub(NODE_BONUS);
        }
        out.push(Candidate { pu: load.pu, score, exec, cold, wait: load.wait });
    }
    out.sort_by(|a, b| a.score.cmp(&b.score).then_with(|| a.pu.cmp(&b.pu)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsandbox::spec::LangRuntime;

    fn def() -> FunctionDef {
        FunctionDef::builder("f", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(10.0)
            .cfork_first_run_ms(1.0)
            .build()
    }

    fn idle(pu: PuId) -> PuLoad {
        PuLoad { pu, wait: SimDuration::ZERO, warm: true }
    }

    #[test]
    fn unloaded_cpu_beats_slower_dpus() {
        let machine = Machine::paper_cpu_dpu_server();
        let loads = [idle(PuId(0)), idle(PuId(1)), idle(PuId(2))];
        let ranked = rank(&machine, &def(), 0, loads, &[]);
        assert_eq!(ranked[0].pu, PuId(0), "CPU exec 10ms < DPU exec 62ms");
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn queue_pressure_diverts_to_an_idle_dpu() {
        let machine = Machine::paper_cpu_dpu_server();
        // The CPU has a deep backlog: 10ms exec + 100ms wait > 62ms DPU exec.
        let loads = [
            PuLoad { pu: PuId(0), wait: SimDuration::from_millis(100), warm: true },
            idle(PuId(1)),
            idle(PuId(2)),
        ];
        let ranked = rank(&machine, &def(), 0, loads, &[]);
        assert_eq!(ranked[0].pu, PuId(1), "load-aware: overflow to the idle DPU");
    }

    #[test]
    fn cold_start_penalty_prefers_the_warm_pu() {
        let machine = Machine::paper_cpu_dpu_server();
        // Nothing warm on the CPU; DPU 1 holds a warm instance. For a short
        // function the DPU's exec penalty can be hidden by the CPU's cold
        // start only if exec is small — use a 0.1ms function.
        let quick = FunctionDef::builder("q", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(0.1)
            .cfork_first_run_ms(5.0)
            .build();
        let loads = [
            PuLoad { pu: PuId(0), wait: SimDuration::ZERO, warm: false },
            PuLoad { pu: PuId(1), wait: SimDuration::ZERO, warm: true },
        ];
        let ranked = rank(&machine, &quick, 0, loads, &[]);
        assert_eq!(ranked[0].pu, PuId(1), "warm DPU beats cold CPU for a tiny function");
        assert_eq!(ranked[0].cold, SimDuration::ZERO);
        assert!(ranked[1].cold > SimDuration::ZERO);
    }

    #[test]
    fn state_bonus_steers_toward_region_hosts() {
        let machine = Machine::paper_cpu_dpu_server();
        let loads = [idle(PuId(1)), idle(PuId(2))];
        let dpu_fn = FunctionDef::builder("w", LangRuntime::Python)
            .profiles(&[PuKind::Dpu])
            .exec_ms(1.0)
            .region("weights")
            .build();
        // Identical DPUs: lower id wins without the term...
        let plain = rank(&machine, &dpu_fn, 0, loads, &[]);
        assert_eq!(plain[0].pu, PuId(1));
        // ...but PU 2 hosting the region's pages flips the choice.
        let steered = rank(&machine, &dpu_fn, 0, loads, &[PuId(2)]);
        assert_eq!(steered[0].pu, PuId(2), "state locality is a scoring bonus");
        // The bonus saturates: it can prefer, never produce negative scores.
        assert!(steered[0].score <= plain[1].score);
    }

    #[test]
    fn latency_slo_avoids_deep_queues_batch_absorbs_them() {
        let machine = Machine::paper_cpu_dpu_server();
        // CPU exec 10ms but 40ms of backlog; DPU exec 62ms, idle. A plain
        // function rides the backlog (50ms < 62ms)...
        let loads =
            [PuLoad { pu: PuId(0), wait: SimDuration::from_millis(40), warm: true }, idle(PuId(1))];
        let plain = rank(&machine, &def(), 0, loads, &[]);
        assert_eq!(plain[0].pu, PuId(0), "plain: 10+40 < 62");
        // ...a latency-SLO function double-counts the wait and flees to the
        // idle DPU (10+40+40 > 62)...
        let lat = FunctionDef::builder("lat", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(10.0)
            .cfork_first_run_ms(1.0)
            .slo_latency_ms(100.0)
            .build();
        let ranked = rank(&machine, &lat, 0, loads, &[]);
        assert_eq!(ranked[0].pu, PuId(1), "latency SLO flees the deep queue");
        // ...and a batch function absorbs an even deeper queue the plain
        // function would flee (70-30 < 62 while 10+60 > 62).
        let deep =
            [PuLoad { pu: PuId(0), wait: SimDuration::from_millis(60), warm: true }, idle(PuId(1))];
        let plain_deep = rank(&machine, &def(), 0, deep, &[]);
        assert_eq!(plain_deep[0].pu, PuId(1), "plain flees a 60ms backlog");
        let batch = FunctionDef::builder("bulk", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(10.0)
            .cfork_first_run_ms(1.0)
            .slo_batch()
            .build();
        let absorbed = rank(&machine, &batch, 0, deep, &[]);
        assert_eq!(absorbed[0].pu, PuId(0), "batch absorbs the backlog");
    }

    #[test]
    fn node_bonus_keeps_chain_stages_on_the_prev_stages_node() {
        // Two-node rack: node 0 = {pu0 host, pu1 DPU}, node 1 = {pu2, pu3}.
        let machine = Machine::rack(2, 1);
        let dpu_fn = FunctionDef::builder("n", LangRuntime::Python)
            .profiles(&[PuKind::Dpu])
            .exec_ms(1.0)
            .build();
        let loads = [idle(PuId(1)), idle(PuId(3))];
        // Without a state host the identical DPUs tie and the lower id
        // wins...
        let plain = rank(&machine, &dpu_fn, 0, loads, &[]);
        assert_eq!(plain[0].pu, PuId(1));
        // ...with a region hosted on node 1's host, the neighbour DPU on
        // that node wins, keeping the attach off the rack fabric.
        let steered = rank(&machine, &dpu_fn, 0, loads, &[PuId(2)]);
        assert_eq!(steered[0].pu, PuId(3), "node locality is a scoring bonus");
    }
}
