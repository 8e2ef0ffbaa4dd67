//! Figure 2 — the motivation experiments.
//!
//! * **Fig. 2a** — function density on the CPU-DPU server: 1000 concurrent
//!   instances on the CPU alone, 1256 with one BlueField DPU, 1512 with two.
//! * **Fig. 2b** — matrix functions on EC2 F1: the FPGA versions run
//!   2.15-2.82x faster than the CPU versions (CPU latencies 192 µs /
//!   324 µs / 3551 µs).

use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::runtime::{Molecule, MoleculeConfig, StartupKind};
use molecule_core::schedule::Scheduler;
use vsandbox::spec::FuncId;
use workloads::matrix;

use crate::run_sim;

/// One Fig. 2a bar.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRow {
    /// Configuration label ("CPU", "+1 DPU", "+2 DPU").
    pub config: &'static str,
    /// Concurrent instances the paper reports.
    pub paper: u64,
    /// Concurrent instances the model packs.
    pub measured: u64,
}

/// Runs the Fig. 2a density experiment.
pub fn density() -> Vec<DensityRow> {
    let machine = Machine::paper_cpu_dpu_server();
    let sched = Scheduler::default();
    let configs: [(&str, Vec<PuId>, u64); 3] = [
        ("CPU", vec![PuId(0)], 1000),
        ("+1 DPU", vec![PuId(0), PuId(1)], 1256),
        ("+2 DPU", vec![PuId(0), PuId(1), PuId(2)], 1512),
    ];
    configs
        .into_iter()
        .map(|(config, pus, paper)| {
            let measured = sched.pack_until_full(&machine, &pus);
            sched.release_packed(&machine, &pus);
            DensityRow { config, paper, measured }
        })
        .collect()
}

/// One Fig. 2b pair of bars.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Operation name.
    pub op: String,
    /// Paper's CPU latency label.
    pub paper_cpu: SimDuration,
    /// Measured CPU function latency.
    pub cpu: SimDuration,
    /// Measured FPGA function latency.
    pub fpga: SimDuration,
}

impl MatrixRow {
    /// FPGA speedup over CPU.
    pub fn speedup(&self) -> f64 {
        self.cpu.ratio(self.fpga)
    }
}

/// Runs the Fig. 2b matrix-function experiment on a CPU+FPGA machine.
pub fn matrix_latency() -> Vec<MatrixRow> {
    run_sim("fig02b", |ctx| {
        let machine = Machine::builder().host_cpu().fpgas(1).build();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let m = Molecule::launch(machine, MoleculeConfig::default());
        for def in matrix::matrix_functions() {
            m.register_function(def);
        }
        let funcs: Vec<FuncId> =
            matrix::CPU_LATENCY_US.iter().map(|(n, _)| FuncId::new(*n)).collect();
        // Vectorized cache: all three kernels in one image, started warm.
        m.cache_fpga_functions(ctx, fpga, &funcs).unwrap();

        let mut rows = Vec::new();
        for ((name, cpu_us), func) in matrix::CPU_LATENCY_US.iter().zip(&funcs) {
            // CPU side: warm instance (pure handler time).
            let cpu_started =
                m.start_instance(ctx, func, PuId(0), StartupKind::ColdBaseline).unwrap();
            m.invoke(ctx, cpu_started.instance, 4096).unwrap(); // warm it
            let cpu = m.invoke(ctx, cpu_started.instance, 4096).unwrap().latency;
            // FPGA side: warm sandbox.
            let fpga_started =
                m.start_instance(ctx, func, fpga, StartupKind::ColdBaseline).unwrap();
            let fpga_lat = m.invoke(ctx, fpga_started.instance, 4096).unwrap().latency;
            rows.push(MatrixRow {
                op: (*name).to_owned(),
                paper_cpu: SimDuration::from_micros(*cpu_us),
                cpu,
                fpga: fpga_lat,
            });
        }
        rows
    })
}

/// Prints both halves of the figure.
pub fn print() {
    let rows: Vec<Vec<String>> = density()
        .iter()
        .map(|r| vec![r.config.to_owned(), r.paper.to_string(), r.measured.to_string()])
        .collect();
    crate::export_table(
        "fig02",
        "Figure 2a: concurrent instances (DPU for higher density)",
        &["config", "paper", "measured"],
        &rows,
    );
    let rows: Vec<Vec<String>> = matrix_latency()
        .iter()
        .map(|r| {
            vec![
                r.op.clone(),
                format!("{}", r.paper_cpu),
                format!("{}", r.cpu),
                format!("{}", r.fpga),
                crate::fmt_speedup(r.speedup()),
            ]
        })
        .collect();
    crate::export_table(
        "fig02_matrix",
        "Figure 2b: matrix functions, CPU vs FPGA (paper: 2.15-2.82x)",
        &["op", "paper CPU", "measured CPU", "measured FPGA", "speedup"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_paper_exactly() {
        for row in density() {
            assert_eq!(row.measured, row.paper, "{}", row.config);
        }
    }

    #[test]
    fn matrix_speedups_in_band() {
        for row in matrix_latency() {
            let s = row.speedup();
            assert!((2.0..=2.9).contains(&s), "{}: speedup {s}", row.op);
            // Measured CPU latency tracks the paper label (warm handler).
            let err = row.cpu.as_micros_f64() / row.paper_cpu.as_micros_f64();
            assert!(
                (0.95..=1.1).contains(&err),
                "{}: cpu {} vs {}",
                row.op,
                row.cpu,
                row.paper_cpu
            );
        }
    }
}
