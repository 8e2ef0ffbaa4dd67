//! Allocation regression pin for the scheduling gateway's warm request path.
//!
//! A warm hit goes submit → placer → run queue → worker → `ApiGateway` warm
//! pool → `Molecule::invoke` → reply. Every layer of that path reads data it
//! does not own: the function definition, the function id, the queue's
//! share caps, the worker wake list, the per-PU loads. When those were
//! copied per request the path made ~35 heap allocations; reading them in
//! place leaves four: the reply channel, the caller's wait registration on
//! it, the reply's delivery into it, and the placer's candidate ranking.
//! This test pins the per-request count under a counting allocator so the
//! copies cannot silently come back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hetsim::engine::Simulation;
use hetsim::pu::PuKind;
use hetsim::topology::Machine;
use molecule_core::function::FunctionDef;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_sched::gateway::{JobOutcome, SchedConfig, SchedGateway, SubmitOpts};
use vsandbox::spec::{FuncId, LangRuntime};

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

const REQUESTS: u64 = 200;

/// The pin: what a warm hit cannot avoid is the reply channel (its
/// allocation, the caller's wait registration, the delivery) and the
/// placer's candidate ranking.
const PER_REQUEST_BUDGET: u64 = 4;

#[test]
fn warm_hits_allocate_only_the_reply_and_the_ranking() {
    let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    molecule.register_function(
        FunctionDef::builder("img", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(10.0)
            .init_ms(6.0)
            .cfork_first_run_ms(1.0)
            .build(),
    );
    let api = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let gw = SchedGateway::new(api, SchedConfig::default());

    let mut sim = Simulation::new();
    let out = sim.spawn("driver", move |ctx| {
        gw.api().molecule().bootstrap(ctx).unwrap();
        gw.api().prepare_all_templates(ctx).unwrap();
        gw.start(ctx);
        let func = FuncId::new("img");
        let serve_one = |ctx: &mut _| {
            let rx = gw.submit(ctx, &func, 1024, SubmitOpts::default()).unwrap();
            rx.recv(ctx).unwrap()
        };
        // Warm-up: the first request cold-starts the instance; the next
        // ones pay one-time growth (ledger entries, queue and pool
        // capacity, event-heap room) that is not per-request churn.
        for _ in 0..8 {
            serve_one(ctx);
        }
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let mut warm = 0;
        for _ in 0..REQUESTS {
            if let JobOutcome::Completed { cold: false, .. } = serve_one(ctx) {
                warm += 1;
            }
        }
        COUNTING.store(false, Ordering::Relaxed);
        gw.shutdown();
        (warm, ALLOCS.load(Ordering::Relaxed))
    });
    sim.run().unwrap();

    let (warm, allocs) = out.take_result().unwrap();
    assert_eq!(warm, REQUESTS, "every counted request is a warm hit");
    let per_request = allocs as f64 / REQUESTS as f64;
    println!("warm requests: {REQUESTS}, allocations: {allocs} ({per_request:.2}/request)");
    assert!(
        per_request <= PER_REQUEST_BUDGET as f64,
        "warm-path allocation churn regressed: {per_request:.2}/request \
         (budget {PER_REQUEST_BUDGET})"
    );
}
