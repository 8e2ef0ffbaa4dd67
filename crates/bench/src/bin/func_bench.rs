//! The artifact's `func_bench.sh` equivalent: runs every FunctionBench
//! workload through the gateway under both systems and prints the same
//! formatted blocks the Molecule artifact produces (appendix A.6.1).

#![forbid(unsafe_code)]

use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_bench::run_sim;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig, StartupKind};
use molecule_core::schedule::Scheduler;
use vsandbox::spec::{FuncId, LangRuntime};
use workloads::functionbench;
use workloads::generator::input_sizes;

const ROUNDS: usize = 10;

/// The artifact's result block for one series: the mean and the ceil-rank
/// percentiles (`avg 50% 75% 90% 95% 99%`) of the samples, in ms.
fn result_block(name: &str, samples: &[SimDuration]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort();
    let pct = |p: f64| {
        let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx].as_millis_f64()
    };
    let avg = sorted.iter().copied().sum::<SimDuration>() / sorted.len() as u64;
    format!(
        "=============== {name} result ==============\nlatency (ms):\n  \
         avg     50%     75%     90%     95%     99%\n  \
         {:<7.2} {:<7.2} {:<7.2} {:<7.2} {:<7.2} {:<7.2}",
        avg.as_millis_f64(),
        pct(0.50),
        pct(0.75),
        pct(0.90),
        pct(0.95),
        pct(0.99),
    )
}

/// `(startup, end-to-end)` latency samples of `func` under `how`.
fn bench_system(how: StartupKind, func: &FuncId) -> (Vec<SimDuration>, Vec<SimDuration>) {
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
        let mut startup = Vec::with_capacity(ROUNDS);
        let mut end2end = Vec::with_capacity(ROUNDS);
        // max_warm_per_function = 0 forces a cold start per request, like
        // the artifact's startup benchmark.
        let sizes = input_sizes(ROUNDS, 512, 8192, 42);
        for size in sizes {
            let report = gw.handle_request(ctx, &func, size).unwrap();
            end2end.push(report.latency);
        }
        // Startup-only samples.
        for _ in 0..ROUNDS {
            let r = gw.molecule().start_instance(ctx, &func, PuId(0), how).unwrap();
            startup.push(r.latency);
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
        println!("{}", result_block("fork-startup", &fork_start));
        println!("{}", result_block("fork-end2end", &fork_e2e));
        println!("{}", result_block("baseline-startup", &base_start));
        println!("{}", result_block("baseline-end2end", &base_e2e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_block_prints_ceil_rank_percentiles() {
        let samples: Vec<SimDuration> = (1..=100).rev().map(SimDuration::from_millis).collect();
        assert_eq!(
            result_block("t", &samples),
            "=============== t result ==============\nlatency (ms):\n  \
             avg     50%     75%     90%     95%     99%\n  \
             50.50   50.00   75.00   90.00   95.00   99.00  "
        );
        // One sample: every rank clamps to it.
        assert!(result_block("one", &[SimDuration::from_millis(7)])
            .ends_with("  7.00    7.00    7.00    7.00    7.00    7.00   "));
    }
}
