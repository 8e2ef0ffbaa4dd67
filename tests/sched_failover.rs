//! End-to-end failover: a PU dies mid-burst and every request queued on it
//! completes on a surviving PU — the scheduling gateway's conservation
//! guarantee wired through the real health-checker pipeline.

use hetsim::engine::Simulation;
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::function::FunctionDef;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::health::HealthChecker;
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_sched::{JobOutcome, SchedConfig, SchedGateway, SubmitOpts};
use vsandbox::spec::{FuncId, LangRuntime};

#[test]
fn queued_requests_survive_a_pu_death_mid_burst() {
    let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    // DPU-only function: a burst spreads over the two DPUs, so killing one
    // strands real queued work that must fail over to the other.
    molecule.register_function(
        FunctionDef::builder("edge-infer", LangRuntime::Python)
            .profiles(&[PuKind::Dpu])
            .exec_ms(8.0)
            .init_ms(5.0)
            .cfork_first_run_ms(1.0)
            .build(),
    );
    let api = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let gw = SchedGateway::new(api, SchedConfig { dpu_tokens: 1, ..SchedConfig::default() });
    let health = HealthChecker::new(gw.api().clone());
    gw.attach_health(&health);

    let mut sim = Simulation::new();
    let g = gw.clone();
    let hc = health.clone();
    let out = sim.spawn("driver", move |ctx| {
        g.api().molecule().bootstrap(ctx).unwrap();
        g.api().prepare_all_templates(ctx).unwrap();
        g.start(ctx);

        // Burst of 16 before any worker gets a turn: both DPU queues fill.
        let rxs: Vec<_> = (0..16)
            .map(|_| {
                g.submit(ctx, &FuncId::new("edge-infer"), 1024, SubmitOpts::default()).unwrap()
            })
            .collect();

        // Kill one DPU with its queue still loaded, then let the health
        // checker find the corpse and fire the drain hook.
        let machine = g.api().molecule().machine().clone();
        let victim = machine.pus_of_kind(PuKind::Dpu)[0];
        machine.fault_plane().kill_pu(ctx.now(), victim);
        hc.run(ctx, 8);

        let outcomes: Vec<JobOutcome> = rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect();
        g.shutdown();
        (victim, outcomes)
    });
    sim.run().unwrap();
    let (victim, outcomes) = out.take_result().unwrap();

    assert_eq!(outcomes.len(), 16, "every admitted request must resolve");
    for o in &outcomes {
        match o {
            JobOutcome::Completed { pu, .. } => {
                assert_ne!(*pu, victim, "a request completed on the dead PU");
            }
            other => panic!("request lost to the failure: {other:?}"),
        }
    }
    assert!(health.dead_pus().contains(&victim), "health checker should declare the DPU dead");
    let stats = gw.stats();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.completed, 16);
    assert!(
        stats.requeued > 0,
        "the victim's queue should have drained into a survivor: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "{stats:?}");
}

/// The FPGA cold-start batch window is the widest in-flight exposure the
/// scheduler has: a miss holds the fabric for the whole window while
/// co-pending requests coalesce behind it. Killing the FPGA inside that
/// window strands not just the queue but the entire in-flight batch — all
/// of it must re-place onto the surviving fabric, none of it may vanish.
#[test]
fn in_flight_cold_start_batch_survives_fpga_death_mid_window() {
    // Two fabrics: one to die with a batch in flight, one to inherit it.
    let machine = Machine::builder().host_cpu().fpgas(2).build();
    let molecule = Molecule::launch(machine, MoleculeConfig::default());
    let mut funcs = Vec::new();
    for i in 0..6 {
        let name = format!("kern{i}");
        molecule.register_function(
            FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                .profiles(&[PuKind::Fpga])
                .fpga(
                    hetsim::fpga::KernelSpec {
                        name: name.clone(),
                        resources: hetsim::fpga::FpgaResources {
                            luts: 5_000,
                            regs: 8_000,
                            brams: 20,
                            dsps: 36,
                        },
                    },
                    molecule_core::function::ExecModel::Fixed(SimDuration::from_micros(100)),
                )
                .build(),
        );
        funcs.push(FuncId::new(name));
    }
    let api = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    // A wide batch window so the kill lands while the first miss still
    // holds the fabric coalescing the requests queued behind it.
    let gw = SchedGateway::new(
        api,
        SchedConfig { batch_window: SimDuration::from_millis(50), ..SchedConfig::default() },
    );
    let health = HealthChecker::new(gw.api().clone());
    gw.attach_health(&health);

    let mut sim = Simulation::new();
    let g = gw.clone();
    let hc = health.clone();
    let out = sim.spawn("driver", move |ctx| {
        g.api().molecule().bootstrap(ctx).unwrap();
        g.api().prepare_all_templates(ctx).unwrap();
        g.start(ctx);

        // Every kernel is cold, so the first request on each fabric opens a
        // batch window and everything behind it coalesces into the batch.
        let rxs: Vec<_> =
            funcs.iter().map(|f| g.submit(ctx, f, 4096, SubmitOpts::default()).unwrap()).collect();

        // Land the kill inside the 50 ms window: the victim's worker is
        // asleep holding the fabric with its batch already claimed.
        ctx.sleep(SimDuration::from_millis(1));
        let machine = g.api().molecule().machine().clone();
        let victim = machine.pus_of_kind(PuKind::Fpga)[0];
        machine.fault_plane().kill_pu(ctx.now(), victim);
        hc.run(ctx, 8);

        let outcomes: Vec<JobOutcome> = rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect();
        g.shutdown();
        (victim, outcomes)
    });
    sim.run().unwrap();
    let (victim, outcomes) = out.take_result().unwrap();

    assert_eq!(outcomes.len(), 6, "every admitted request must resolve");
    for o in &outcomes {
        match o {
            JobOutcome::Completed { pu, .. } => {
                assert_ne!(*pu, victim, "a request completed on the dead fabric");
            }
            other => panic!("request lost to the mid-window failure: {other:?}"),
        }
    }
    let stats = gw.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(
        stats.requeued > 0,
        "the victim's batch and queue should have re-placed, not vanished: {stats:?}"
    );
}
