//! Allocation regression pin for the health checker's probe round.
//!
//! At 10k-sandbox density the checker probes every executor PU twice a
//! millisecond, so per-round heap churn is resident overhead. The seed
//! cloned the monitored-PU list out of the state map on every round; the
//! density work made the quiet path iterate a fixed shared list instead.
//! This test pins the per-round allocation count under a counting
//! allocator so the churn cannot silently come back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hetsim::engine::Simulation;
use hetsim::pu::PuKind;
use hetsim::topology::Machine;
use molecule_core::function::FunctionDef;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::health::HealthChecker;
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use vsandbox::spec::LangRuntime;

/// Counts every allocation while `COUNTING` is armed; delegates to the
/// system allocator either way.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROUNDS: u64 = 100;

/// The pin: a quiet probe round (every PU healthy, no transitions) across
/// the two monitored DPUs of the paper machine allocates *nothing* with the
/// flat shared monitored list — measured exactly 0/round (the counting
/// harness is validated by the seed's behaviour: cloning the PU list out of
/// the state map cost ≥1 allocation per round, and per-record churn scales
/// that with the monitored count). A tiny budget absorbs allocator-level
/// noise without letting per-round cloning back in.
const PER_ROUND_BUDGET: u64 = 2;

#[test]
fn quiet_probe_rounds_stay_allocation_lean() {
    let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    molecule.register_function(
        FunctionDef::builder("img", LangRuntime::Python)
            .profiles(&[PuKind::Dpu, PuKind::Cpu])
            .exec_ms(5.0)
            .init_ms(4.0)
            .cfork_first_run_ms(0.5)
            .build(),
    );
    let gw = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let hc = HealthChecker::new(gw);
    assert_eq!(hc.monitored_pus().len(), 2, "paper machine monitors its two DPUs");

    let mut sim = Simulation::new();
    let out = sim.spawn("probe-loop", move |ctx| {
        // Warm-up: first rounds pay one-time lazy costs (transport caches)
        // that are not per-round churn.
        for _ in 0..5 {
            hc.probe_round(ctx);
        }
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        for _ in 0..ROUNDS {
            let recovered = hc.probe_round(ctx);
            assert!(recovered.is_empty(), "quiet path only");
        }
        COUNTING.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed)
    });
    sim.run().unwrap();

    let allocs = out.take_result().unwrap();
    let per_round = allocs / ROUNDS;
    println!("probe rounds: {ROUNDS}, allocations: {allocs} ({per_round}/round)");
    assert!(
        per_round <= PER_ROUND_BUDGET,
        "probe-round allocation churn regressed: {per_round}/round (budget {PER_ROUND_BUDGET})"
    );
}
