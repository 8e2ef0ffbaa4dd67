//! The three FPGA serverless applications of §6.6 (ported from AWS/Xilinx
//! Vitis demos): GZip, Anti-Money-Laundering and Matrix-Comput.
//!
//! Each app carries a CPU latency model and an FPGA latency model,
//! calibrated to Fig. 14f/g/h:
//!
//! * **GZip** — CPU compression grows superlinearly with file size (memory
//!   hierarchy pressure), the FPGA pipeline is nearly flat; they cross at
//!   ≈25 MB, and the FPGA wins by 4.8-8.3x at 112 MB;
//! * **Anti-MoneyL** — both sides are linear in the number of transaction
//!   entries, but with very different slopes: the FPGA advantage grows from
//!   4.7x at 6 K entries to 34.6x at 6 M;
//! * **Matrix-Comput** — a fixed-size matrix computation: 2.6 ms on the CPU,
//!   2.8x lower on the FPGA.

use hetsim::fpga::{FpgaResources, KernelSpec};
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use molecule_core::function::{ExecModel, FunctionDef};
use vsandbox::spec::LangRuntime;

/// CPU latency of GZip for `bytes` of input (Fig. 14f's rising curve).
///
/// Quadratic-in-megabytes model: `0.0204*MB + 0.0001747*MB²` seconds, which
/// reproduces ≈0.62 s at 25 MB and ≈4.48 s at 112 MB.
pub fn gzip_cpu_latency(bytes: u64) -> SimDuration {
    let mb = bytes as f64 / 1e6;
    SimDuration::from_secs_f64(0.0204 * mb + 0.000_174_7 * mb * mb)
}

/// FPGA latency of GZip: a streaming pipeline with a large fixed setup and
/// a gentle slope — `0.5835 s + 0.00146 s/MB`. Crosses the CPU curve at
/// ≈25 MB and is 6x faster at 112 MB (within the paper's 4.8-8.3x band).
pub fn gzip_fpga_latency(bytes: u64) -> SimDuration {
    let mb = bytes as f64 / 1e6;
    SimDuration::from_secs_f64(0.5835 + 0.001_46 * mb)
}

/// The Fig. 14f sweep points (file sizes in MB; 112 MB is "the Linux code").
pub const GZIP_SWEEP_MB: [f64; 8] = [0.001, 1.0, 10.0, 25.0, 40.0, 60.0, 90.0, 112.0];

/// CPU latency of the anti-money-laundering check over `entries`
/// transactions: `0.28 ms + 46.6 ns/entry` (≈280 ms at 6 M entries).
pub fn aml_cpu_latency(entries: u64) -> SimDuration {
    SimDuration::from_micros_f64(280.0 + 0.0466 * entries as f64)
}

/// FPGA latency of the same check: `0.119 ms + 1.35 ns/entry` (the
/// advantage grows from ≈4.7x at 6 K entries to ≈34x at 6 M).
pub fn aml_fpga_latency(entries: u64) -> SimDuration {
    SimDuration::from_micros_f64(119.0 + 0.001_35 * entries as f64)
}

/// The Fig. 14g sweep points (transaction entries).
pub const AML_SWEEP_ENTRIES: [u64; 4] = [6_000, 60_000, 600_000, 6_000_000];

/// CPU latency of Matrix-Comput (Fig. 14h label: 2.6 ms).
pub fn matrix_comput_cpu_latency() -> SimDuration {
    SimDuration::from_micros(2_600)
}

/// FPGA latency of Matrix-Comput: 2.8x lower.
pub fn matrix_comput_fpga_latency() -> SimDuration {
    SimDuration::from_micros(929)
}

fn app_kernel(name: &str) -> KernelSpec {
    KernelSpec {
        name: name.to_owned(),
        resources: FpgaResources { luts: 18_000, regs: 31_000, brams: 64, dsps: 96 },
    }
}

/// The Matrix-Comput function (Fig. 14h).
pub fn matrix_comput_function() -> FunctionDef {
    FunctionDef::builder("matrix-comput", LangRuntime::Python)
        .profiles(&[PuKind::Cpu])
        .exec(ExecModel::Fixed(matrix_comput_cpu_latency()))
        .fpga(app_kernel("matrix-comput"), ExecModel::Fixed(matrix_comput_fpga_latency()))
        .output_bytes(8192)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gzip_crossover_sits_near_25mb() {
        // Fig. 14f: "FPGA accelerated Gzip significantly outperforms CPU
        // Gzip when file size is larger than 25MB".
        let below = 20 * 1_000_000u64;
        let above = 30 * 1_000_000u64;
        assert!(gzip_cpu_latency(below) < gzip_fpga_latency(below));
        assert!(gzip_cpu_latency(above) > gzip_fpga_latency(above));
        // Bisect the actual crossover and check it lies in [20, 30] MB.
        let mut lo = below as f64;
        let mut hi = above as f64;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if gzip_cpu_latency(mid as u64) < gzip_fpga_latency(mid as u64) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let crossover_mb = lo / 1e6;
        assert!((20.0..=30.0).contains(&crossover_mb), "crossover at {crossover_mb}MB");
    }

    #[test]
    fn gzip_speedup_at_112mb_is_in_band() {
        let bytes = 112 * 1_000_000u64;
        let speedup = gzip_cpu_latency(bytes).ratio(gzip_fpga_latency(bytes));
        assert!((4.8..=8.3).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn aml_speedup_grows_from_4_7x_to_34_6x() {
        let at = |entries: u64| aml_cpu_latency(entries).ratio(aml_fpga_latency(entries));
        let small = at(6_000);
        let large = at(6_000_000);
        assert!((4.0..=5.5).contains(&small), "6K speedup {small}");
        assert!((30.0..=36.0).contains(&large), "6M speedup {large}");
        // Monotone growth across the sweep.
        let mut prev = 0.0;
        for &e in &AML_SWEEP_ENTRIES {
            let s = at(e);
            assert!(s > prev, "speedup must grow: {s} after {prev}");
            prev = s;
        }
    }

    #[test]
    fn matrix_comput_is_2_8x() {
        let ratio = matrix_comput_cpu_latency().ratio(matrix_comput_fpga_latency());
        assert!((2.75..=2.85).contains(&ratio), "ratio {ratio}");
        assert_eq!(matrix_comput_cpu_latency(), SimDuration::from_micros(2600));
    }

    #[test]
    fn functions_expose_both_profiles() {
        let def = matrix_comput_function();
        assert!(def.supports(PuKind::Cpu));
        assert!(def.supports(PuKind::Fpga));
        assert!(def.fpga.is_some());
    }

    #[test]
    fn cpu_latency_is_superlinear_for_gzip() {
        // Memory-pressure model: doubling input more than doubles latency at
        // large sizes.
        let t56 = gzip_cpu_latency(56_000_000).as_secs_f64();
        let t112 = gzip_cpu_latency(112_000_000).as_secs_f64();
        assert!(t112 > 2.0 * t56, "{t112} vs 2x{t56}");
    }
}
