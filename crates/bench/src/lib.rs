#![warn(missing_docs)]

//! `molecule-bench` — harnesses that regenerate every table and figure of
//! the Molecule paper's evaluation (§6).
//!
//! Each `figXX` module runs the corresponding experiment on the simulated
//! heterogeneous computer and returns structured rows next to the paper's
//! published values, so the binaries (and `EXPERIMENTS.md`) can print
//! paper-vs-measured tables. The experiments are deterministic: the same
//! build prints the same numbers.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig02`] | Fig. 2a density, Fig. 2b CPU-vs-FPGA matrix latency |
//! | [`fig08`] | Fig. 8 nIPC latency vs message size |
//! | [`fig09`] | Fig. 9 comparison with AWS Lambda / OpenWhisk |
//! | [`fig10`] | Fig. 10 startup latency on CPU / DPU / FPGA |
//! | [`fig11`] | Fig. 11 cfork breakdown + RSS/PSS study |
//! | [`fig12`] | Fig. 12 DAG communication latency |
//! | [`fig13`] | Fig. 13 FPGA chain copying vs shm |
//! | [`fig14`] | Fig. 14 FunctionBench / chains / FPGA applications |
//! | [`fig15`] | Fig. 15 design space with Molecule's measured placement |
//! | [`tables`] | Tables 1, 4 and 5 |
//! | [`ablations`] | Design-choice ablations beyond the paper's figures |
//! | [`fig_fault`] | Crash-recovery latency under seeded fault injection |
//! | [`fig_sched`] | Load-aware vs first-fit placement, FPGA cold-start batching |
//! | [`fig_comm`] | Adaptive nIPC data plane vs pinned XPUcall transports |
//! | [`fig_tenancy`] | Antagonist flood vs weighted-fair tenancy isolation |
//! | [`fig_density`] | High-density PUs: dense cfork PSS, DPU I/O offload p99, reclaim sweeps |

pub mod ablations;
pub mod fig02;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig_comm;
pub mod fig_density;
pub mod fig_fault;
pub mod fig_rack;
pub mod fig_sched;
pub mod fig_state;
pub mod fig_tenancy;
pub mod tables;

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::time::SimDuration;

/// Runs `f` as the single driver process of a fresh simulation and returns
/// its result.
///
/// # Panics
///
/// Panics if the simulation errors (deadlock, process panic) or the driver
/// produces no result.
pub fn run_sim<T, F>(name: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let mut sim = Simulation::new();
    let handle = sim.spawn(name, f);
    sim.run().unwrap_or_else(|e| panic!("simulation '{name}' failed: {e}"));
    handle.take_result().unwrap_or_else(|| panic!("driver '{name}' returned no result"))
}

/// The `q`-quantile of ascending `sorted` at the nearest rank
/// `round((len - 1) * q)`; zero when empty.
pub fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Formats a ratio as the paper prints speedups (e.g. `"11.12x"`).
pub fn fmt_speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Prints a markdown-ish table: a header row and aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header.iter().map(|s| (*s).to_owned()).collect()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Directory bench JSON summaries are written to: `$MOLECULE_BENCH_DIR`,
/// defaulting to the current directory.
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("MOLECULE_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

/// Prints a table *and* writes it as the figure's machine-readable
/// `BENCH_<figure>.json` summary (via [`telemetry::BenchSummary`]), so
/// plotting scripts consume the same numbers the terminal shows.
///
/// Figures with several tables export each under its own key (e.g.
/// `fig10` and `fig10_memory`).
pub fn export_table(figure: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    print_table(title, header, rows);
    let summary = telemetry::BenchSummary::new(figure, title, header, rows);
    match summary.write_to_dir(bench_dir()) {
        Ok(path) => println!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", summary.file_name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sim_returns_driver_result() {
        let out = run_sim("t", |ctx| {
            ctx.sleep(hetsim::time::SimDuration::from_micros(5));
            ctx.now().as_nanos()
        });
        assert_eq!(out, 5_000);
    }

    #[test]
    fn fmt_speedup_matches_paper_style() {
        assert_eq!(fmt_speedup(11.123), "11.12x");
        assert_eq!(fmt_speedup(1.0), "1.00x");
    }
}
