//! Turning telemetry recording on changes no virtual value.
//!
//! Each workload runs once with no recorder and once with the default
//! recorder installed, and every virtual result must match. The recorder is
//! process-global, so this file is its own test binary and its tests take
//! turns through [`SERIAL`].

use std::collections::BTreeSet;
use std::sync::Mutex;

use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::schedule::Scheduler;
use molecule_repro::prelude::*;
use molecule_repro::telemetry::{self, EventKind};
use workloads::generator::PoissonArrivals;
use workloads::serverlessbench;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `workload` with recording off, then on, asserts both runs agree
/// and returns the PU lanes the recording run wrote spans on.
fn assert_inert<T: PartialEq + std::fmt::Debug>(workload: impl Fn() -> T) -> BTreeSet<u16> {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let off = workload();
    let recorder = telemetry::install_default();
    let on = workload();
    telemetry::uninstall();
    assert_eq!(off, on, "recording changed a virtual result");
    recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. } | EventKind::Begin { .. }))
        .map(|e| e.pu)
        .collect()
}

#[test]
fn chaos_recovery_is_unchanged_by_recording() {
    let lanes = assert_inert(|| {
        let r = molecule_chaos::dpu_crash_alexa(42);
        (
            (r.issued, r.completed, r.lost, r.rerouted, r.executor_failovers),
            (r.failed_over, r.degraded),
            r.recoveries,
            r.requests_per_pu,
            r.event_log,
        )
    });
    assert!(lanes.len() >= 3, "spans on {lanes:?}");
}

#[test]
fn alexa_chain_is_unchanged_by_recording() {
    let lanes = assert_inert(|| {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        for def in serverlessbench::alexa_chain() {
            molecule.register_function(def);
        }
        let mut sim = Simulation::new();
        let out = sim.spawn("driver", move |ctx| {
            let stages: Vec<ChainStage> = serverlessbench::alexa_chain()
                .iter()
                .enumerate()
                .map(|(i, def)| ChainStage::new(def.id.clone(), PuId((i % 3) as u16)))
                .collect();
            [CommMethod::DirectIpc, CommMethod::HttpGateway].map(|comm| {
                let spec =
                    ChainSpec::new("alexa", stages.clone(), comm).input_bytes(1536).rounds(4);
                run_chain(&molecule, ctx, &spec).expect("chain runs").end_to_end
            })
        });
        let report = sim.run().expect("simulation runs");
        (out.take_result().expect("driver finished"), report.events_fired)
    });
    assert!(lanes.len() >= 3, "spans on {lanes:?}");
}

#[test]
fn sched_burst_is_unchanged_by_recording() {
    let lanes = assert_inert(|| {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        for mut def in [serverlessbench::image_processing(), serverlessbench::helloworld()] {
            // Either PU kind may serve, so the burst spreads over the DPUs.
            def.profiles = vec![PuKind::Cpu, PuKind::Dpu];
            molecule.register_function(def);
        }
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, SchedConfig::default());
        let mut sim = Simulation::new();
        let g = gw.clone();
        let out = sim.spawn("burst", move |ctx| {
            g.api().molecule().bootstrap(ctx).unwrap();
            g.api().prepare_all_templates(ctx).unwrap();
            g.start(ctx);
            let mut arrivals = PoissonArrivals::new(20_000.0, 7);
            let mut pending = Vec::new();
            for i in 0..96 {
                ctx.sleep(arrivals.next_arrival().saturating_duration_since(ctx.now()));
                let func = if i % 3 == 0 { "helloworld" } else { "sb-image-process" };
                pending.push(g.submit(ctx, &FuncId::new(func), 2048, SubmitOpts::default()));
            }
            let outcomes: Vec<Result<JobOutcome, String>> = pending
                .into_iter()
                .map(|p| p.map(|rx| rx.recv(ctx).unwrap()).map_err(|e| e.to_string()))
                .collect();
            g.shutdown();
            outcomes
        });
        sim.run().expect("simulation runs");
        (out.take_result().expect("burst finished"), gw.stats())
    });
    // The gateway's workers record on the engine lane, not on the PU they
    // serve, so this burst is held only to having been recorded at all.
    assert!(!lanes.is_empty(), "the recording run captured no spans");
}
