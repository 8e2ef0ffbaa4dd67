//! End-to-end crash-recovery scenarios over the full Molecule stack.
//!
//! The flagship scenario, [`dpu_crash_alexa`], runs the ServerlessBench
//! Alexa skill chain (re-profiled to prefer the DPUs) against the paper's
//! CPU+DPU server while a seeded [`FaultPlan`] makes the host↔DPU nIPC
//! path lossy and duplicating, then kills both DPUs mid-run. The health
//! checker detects each crash, runs the reclamation/purge pipeline, and
//! the gateway fails requests over — first to the surviving DPU, then
//! (degraded) to the CPU cost table. The returned [`ScenarioReport`]
//! carries the fault plane's ordered event log: the same seed replays it
//! byte-identically.

use std::collections::{BTreeMap, HashMap};

use hetsim::engine::Simulation;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_core::executor::launch_executor;
use molecule_core::keepalive::Lru;
use molecule_core::schedule::Scheduler;
use molecule_core::{
    ApiGateway, GatewayConfig, HealthChecker, Molecule, MoleculeConfig, RecoveryReport,
};
use vsandbox::spec::FuncId;

use crate::inject;
use crate::plan::FaultPlan;

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The fault plan's sampling seed.
    pub seed: u64,
    /// Requests the driver issued.
    pub issued: usize,
    /// Requests that completed (zero-loss means `issued == completed`).
    pub completed: usize,
    /// Requests that failed outright (`issued - completed`).
    pub lost: usize,
    /// Completed requests served on a different PU than the same
    /// function's previous request (re-routes after crashes).
    pub rerouted: usize,
    /// Times the driver's executor ping gave a PU up and moved to the
    /// next live executor.
    pub executor_failovers: usize,
    /// Gateway requests transparently retried away from a failed PU.
    pub failed_over: u64,
    /// Requests served on a non-preferred PU kind because the preferred
    /// kind was entirely gone (DPU functions on the CPU cost table).
    pub degraded: u64,
    /// Completed requests per serving PU, sorted by PU.
    pub requests_per_pu: Vec<(PuId, usize)>,
    /// Every crashed-PU recovery the health checker ran, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// The fault plane's ordered event log — the replay artifact.
    pub event_log: Vec<String>,
}

impl ScenarioReport {
    /// Detection latency of the first crash (crash → declared dead).
    pub fn detect_latency(&self) -> Option<SimDuration> {
        self.recoveries.first().map(|r| r.detect_latency)
    }

    /// Recovery latency of the first crash (declared dead → reclamation,
    /// purge and failover marking finished).
    pub fn recovery_latency(&self) -> Option<SimDuration> {
        self.recoveries.first().map(|r| r.recovery_latency)
    }
}

/// The seeded plan behind [`dpu_crash_alexa`]: lossy, duplicating nIPC
/// between the host and the first DPU from the start, then both DPUs
/// crash mid-run.
pub fn dpu_crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!(
        "seed {seed}\n\
         at 0ms lose pu0 pu1 0.2\n\
         at 0ms lose pu1 pu0 0.2\n\
         at 0ms dup pu0 pu1 0.2\n\
         at 8000ms kill pu1\n\
         at 8800ms kill pu2\n"
    ))
    .expect("static plan parses")
}

/// Runs the DPU-crash-under-Alexa scenario (see the module docs).
///
/// The driver issues waves of requests to the five Alexa functions
/// (re-profiled to prefer the DPUs) and pings its primary live executor
/// each wave through the fault-tolerant keyed-retry path; the injector
/// kills `pu1` and later `pu2` while traffic is in flight.
pub fn dpu_crash_alexa(seed: u64) -> ScenarioReport {
    let machine = Machine::paper_cpu_dpu_server();
    let plan = dpu_crash_plan(seed);
    let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
    for mut def in workloads::serverlessbench::alexa_chain() {
        // Prefer the DPUs so the crashes sit in the request path.
        def.profiles = vec![PuKind::Dpu, PuKind::Cpu];
        molecule.register_function(def);
    }
    let gateway = ApiGateway::new(
        molecule.clone(),
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let health = HealthChecker::new(gateway.clone());

    let mut sim = Simulation::new();
    inject::spawn_injector(&mut sim, &machine, &plan);

    // Health daemon: probe until well past the end of traffic.
    let hc = health.clone();
    sim.spawn("health", move |ctx| {
        hc.run(ctx, 20_000);
    });

    let gw = gateway.clone();
    let mol = molecule.clone();
    let driver = sim.spawn("driver", move |ctx| {
        mol.bootstrap(ctx).expect("bootstrap");
        gw.prepare_all_templates(ctx).expect("templates");
        let chain: Vec<FuncId> =
            workloads::serverlessbench::alexa_chain().iter().map(|d| d.id.clone()).collect();
        // Live executors on both DPUs: the keyed-retry nIPC path under
        // loss/duplication, with by-hand failover when a PU is given up.
        let executors = [
            launch_executor(&mol, ctx, PuId(1)).expect("executor on pu1"),
            launch_executor(&mol, ctx, PuId(2)).expect("executor on pu2"),
        ];
        let ping_deadline = SimDuration::from_micros(500);
        let mut primary = 0usize;
        let mut executor_failovers = 0usize;
        let mut issued = 0usize;
        let mut completed = 0usize;
        let mut rerouted = 0usize;
        let mut last_pu: HashMap<FuncId, PuId> = HashMap::new();
        let mut per_pu: BTreeMap<PuId, usize> = BTreeMap::new();
        // Keep traffic flowing until both scheduled crashes are behind us.
        let horizon = SimTime::ZERO + SimDuration::from_millis(9_500);
        let mut wave = 0usize;
        while wave < 12 || ctx.now() < horizon {
            for func in &chain {
                issued += 1;
                if let Ok(report) = gw.handle_request(ctx, func, 1024) {
                    completed += 1;
                    *per_pu.entry(report.pu).or_insert(0) += 1;
                    if let Some(prev) = last_pu.insert(func.clone(), report.pu) {
                        if prev != report.pu {
                            rerouted += 1;
                        }
                    }
                }
            }
            while primary < executors.len() && !executors[primary].ping(ctx, ping_deadline) {
                executor_failovers += 1;
                primary += 1;
            }
            ctx.sleep(SimDuration::from_millis(1));
            wave += 1;
        }
        (issued, completed, rerouted, executor_failovers, per_pu)
    });
    sim.run().expect("scenario simulation");
    let (issued, completed, rerouted, executor_failovers, per_pu) =
        driver.take_result().expect("driver result");
    let stats = gateway.stats();
    ScenarioReport {
        seed,
        issued,
        completed,
        lost: issued - completed,
        rerouted,
        executor_failovers,
        failed_over: stats.failed_over,
        degraded: stats.degraded,
        requests_per_pu: per_pu.into_iter().collect(),
        recoveries: health.recoveries(),
        event_log: machine.fault_plane().event_log(),
    }
}
