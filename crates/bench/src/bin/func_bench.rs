//! The artifact's `func_bench.sh` equivalent: runs every FunctionBench
//! workload through the gateway under both systems and prints the same
//! formatted blocks the Molecule artifact produces (appendix A.6.1).

#![forbid(unsafe_code)]

use hetsim::pu::PuId;
use hetsim::topology::Machine;
use molecule_bench::run_sim;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::metrics::LatencyRecorder;
use molecule_core::runtime::{Molecule, MoleculeConfig, StartupKind};
use molecule_core::schedule::Scheduler;
use vsandbox::spec::{FuncId, LangRuntime};
use workloads::functionbench;
use workloads::generator::input_sizes;

const ROUNDS: usize = 10;

fn bench_system(how: StartupKind, func: &FuncId) -> (LatencyRecorder, LatencyRecorder) {
    let func = func.clone();
    run_sim("func-bench", move |ctx| {
        // Plenty of pre-initialized function containers: the artifact's
        // benchmark never exhausts the pool.
        let config = MoleculeConfig { preinit_containers_per_pu: 64, ..MoleculeConfig::default() };
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), config);
        for w in functionbench::all() {
            molecule.register_function(w.to_function_def());
        }
        molecule.bootstrap(ctx).unwrap();
        molecule.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
        let gw = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig { scale_up: how, max_warm_per_function: 0, ..GatewayConfig::default() },
            Box::new(Lru::new()),
        );
        let mut startup = LatencyRecorder::new(match how {
            StartupKind::CforkLocal => "fork-startup",
            _ => "baseline-startup",
        });
        let mut end2end = LatencyRecorder::new(match how {
            StartupKind::CforkLocal => "fork-end2end",
            _ => "baseline-end2end",
        });
        // max_warm_per_function = 0 forces a cold start per request, like
        // the artifact's startup benchmark.
        let sizes = input_sizes(ROUNDS, 512, 8192, 42);
        for size in sizes {
            let report = gw.handle_request(ctx, &func, size).unwrap();
            end2end.record(report.latency);
        }
        // Startup-only samples.
        for _ in 0..ROUNDS {
            let r = gw.molecule().start_instance(ctx, &func, PuId(0), how).unwrap();
            startup.record(r.latency);
            gw.molecule().retire_instance(ctx, r.instance).unwrap();
        }
        (startup, end2end)
    })
}

fn main() {
    println!("Function-bench Tests");
    for w in functionbench::all() {
        if w.name == "Video Processing" {
            // 10 runs x ~38s of virtual video processing are pointless for
            // the formatted report; the figure harness covers it.
            continue;
        }
        println!("\nTest-Case: {} (taking milliseconds of virtual time)", w.name);
        let func = FuncId::new(w.func_id());
        let (fork_start, fork_e2e) = bench_system(StartupKind::CforkLocal, &func);
        let (base_start, base_e2e) = bench_system(StartupKind::ColdBaseline, &func);
        println!("{fork_start}");
        println!("{fork_e2e}");
        println!("{base_start}");
        println!("{base_e2e}");
    }
}
