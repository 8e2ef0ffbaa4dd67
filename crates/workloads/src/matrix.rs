//! Matrix kernels: the Fig. 2b micro-workloads and the Table 4 resource
//! constants.
//!
//! Three operations — matrix scaling, matrix addition and vector
//! multiplication — as calibrated latency constants for the simulated
//! CPU/FPGA comparison (Fig. 2b: 192 µs / 324 µs / 3551 µs on the CPU,
//! 2.15-2.82x lower on the FPGA).

use hetsim::fpga::{FpgaResources, KernelSpec};
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use molecule_core::function::{ExecModel, FunctionDef};
use vsandbox::spec::LangRuntime;

/// CPU latencies printed in Fig. 2b, microseconds.
pub const CPU_LATENCY_US: [(&str, u64); 3] = [("mscale", 192), ("madd", 324), ("vmult", 3551)];

/// End-to-end FPGA latencies (DMA + dispatch + kernel): 2.15x / 2.50x /
/// 2.82x lower than the CPU (Fig. 2b's 2.15-2.82x band).
pub const FPGA_LATENCY_US: [(&str, u64); 3] = [("mscale", 89), ("madd", 130), ("vmult", 1259)];

/// Device-side kernel compute times, excluding the ~59.5 µs DMA transfer
/// and 10 µs dispatch that the platform charges per invocation (so the
/// measured end-to-end lands on [`FPGA_LATENCY_US`]).
pub const FPGA_KERNEL_US: [(&str, u64); 3] = [("mscale", 19), ("madd", 60), ("vmult", 1190)];

/// Synthesized kernel resources. Summed as the Table 4 wrapper does
/// (wrapper base + 4 instances each of madd/mmult/mscale = the published
/// 119,517 LUTs / 196,996 REGs / 486 BRAMs / 787 DSPs).
pub fn kernel_resources(name: &str) -> FpgaResources {
    match name {
        "madd" => FpgaResources { luts: 5_013, regs: 8_000, brams: 20, dsps: 36 },
        "mmult" | "vmult" => FpgaResources { luts: 5_348, regs: 9_624, brams: 24, dsps: 56 },
        "mscale" => FpgaResources { luts: 4_747, regs: 7_000, brams: 16, dsps: 32 },
        _ => FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
    }
}

/// The [`KernelSpec`] for a matrix kernel.
pub fn kernel_spec(name: &str) -> KernelSpec {
    KernelSpec { name: name.to_owned(), resources: kernel_resources(name) }
}

/// Platform function definitions for the three Fig. 2b operations, each
/// deployable on CPU and FPGA.
pub fn matrix_functions() -> Vec<FunctionDef> {
    CPU_LATENCY_US
        .iter()
        .zip(FPGA_KERNEL_US.iter())
        .map(|(&(name, cpu_us), &(_, fpga_us))| {
            FunctionDef::builder(name, LangRuntime::Python)
                .profiles(&[PuKind::Cpu])
                .exec(ExecModel::Fixed(SimDuration::from_micros(cpu_us)))
                .fpga(kernel_spec(name), ExecModel::Fixed(SimDuration::from_micros(fpga_us)))
                .output_bytes(8192)
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_wrapper_totals_reproduce() {
        // Wrapper base + 4 instances each of madd/mmult/mscale.
        let mut total = FpgaResources::WRAPPER_BASE;
        for name in ["madd", "mmult", "mscale"] {
            for _ in 0..4 {
                total = total + kernel_resources(name);
            }
        }
        assert_eq!(total.luts, 119_517);
        assert_eq!(total.regs, 196_996);
        assert_eq!(total.brams, 486);
        assert_eq!(total.dsps, 787);
        // Table 4's utilization row: 10.1% LUTs, 8.3% REGs, 22.5% BRAMs,
        // 11.5% DSPs.
        let [lut, reg, bram, dsp] = total.utilization(&FpgaResources::F1_TOTAL);
        assert!((0.100..=0.102).contains(&lut), "LUT {lut}");
        assert!((0.082..=0.084).contains(&reg), "REG {reg}");
        assert!((0.224..=0.226).contains(&bram), "BRAM {bram}");
        assert!((0.114..=0.116).contains(&dsp), "DSP {dsp}");
    }

    #[test]
    fn fig2b_speedups_are_in_band() {
        for (&(_, cpu), &(_, fpga)) in CPU_LATENCY_US.iter().zip(FPGA_LATENCY_US.iter()) {
            let speedup = cpu as f64 / fpga as f64;
            assert!((2.15..=2.83).contains(&speedup), "speedup {speedup}");
        }
    }

    #[test]
    fn matrix_functions_have_dual_profiles() {
        let funcs = matrix_functions();
        assert_eq!(funcs.len(), 3);
        for f in &funcs {
            assert!(f.supports(PuKind::Cpu));
            assert!(f.supports(PuKind::Fpga));
            let fpga = f.fpga.as_ref().unwrap();
            assert!(fpga.exec.host_time(0) < f.exec.host_time(0), "{} FPGA must win", f.id);
        }
    }
}
