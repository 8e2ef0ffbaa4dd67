//! FunctionBench workloads (Kim & Lee, SoCC '19), as ported to Molecule.
//!
//! The paper evaluates eight FunctionBench functions end to end
//! (Fig. 14a-d). Each entry here carries:
//!
//! * the *paper labels* — the absolute milliseconds printed above the bars
//!   of Fig. 14a (cold CPU), 14b (warm), 14c (cold BF-1) and 14d (cold
//!   BF-2), kept for paper-vs-measured reporting;
//! * the *model parameters* — warm handler time, cold-start initialization
//!   (imports, data staging), and the residual initialization a cforked
//!   child still pays (dependencies not shareable through the template,
//!   plus copy-on-write faults).
//!
//! The decomposition follows `cold ≈ container-create + runtime-boot +
//! init + exec`; three workloads (PyAES, DD, gzip) have paper cold labels
//! *below* that floor — their `init` is clamped to zero and the residual
//! mismatch is documented in `EXPERIMENTS.md`.

use hetsim::pu::PuKind;
use molecule_core::function::FunctionDef;
use vsandbox::spec::LangRuntime;

/// Bar labels from Fig. 14, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperLabels {
    /// Fig. 14a — baseline cold boot on the CPU.
    pub cold_cpu_ms: f64,
    /// Fig. 14b — warm boot.
    pub warm_ms: f64,
    /// Fig. 14c — baseline cold boot on BlueField-1.
    pub cold_bf1_ms: f64,
    /// Fig. 14d — baseline cold boot on BlueField-2.
    pub cold_bf2_ms: f64,
}

/// One FunctionBench workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FbWorkload {
    /// Workload name as the paper prints it.
    pub name: &'static str,
    /// Paper bar labels.
    pub paper: PaperLabels,
    /// Warm handler execution time, ms (≈ the Fig. 14b label).
    pub warm_exec_ms: f64,
    /// Cold-start initialization (imports etc.), ms on the host CPU.
    pub init_ms: f64,
    /// Residual initialization after a cfork from a warmed template, ms.
    pub cfork_init_ms: f64,
}

impl FbWorkload {
    /// Builds the platform [`FunctionDef`] for this workload (Python,
    /// CPU + DPU profiles).
    pub fn to_function_def(&self) -> FunctionDef {
        FunctionDef::builder(self.func_id(), LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .memory_mib(128)
            .exec_ms(self.warm_exec_ms)
            .init_ms(self.init_ms)
            .cfork_first_run_ms(self.cfork_init_ms)
            .build()
    }

    /// The function id used on the platform.
    pub fn func_id(&self) -> String {
        self.name.to_lowercase().replace(' ', "-")
    }
}

/// All eight Fig. 14 workloads, in the figure's order.
///
/// `init_ms = max(0, cold_cpu - 177.6 - warm)` (177.6 ms is the server
/// baseline startup: 38 ms container create + 139.6 ms Python boot);
/// `cfork_init_ms` is calibrated so Molecule's cold-boot improvement spans
/// the paper's 1.01x (Video Processing) to 11.12x (Matmul).
pub fn all() -> Vec<FbWorkload> {
    vec![
        FbWorkload {
            name: "Image Resize",
            paper: PaperLabels {
                cold_cpu_ms: 198.0,
                warm_ms: 14.1,
                cold_bf1_ms: 1245.4,
                cold_bf2_ms: 238.9,
            },
            warm_exec_ms: 14.1,
            init_ms: 6.3,
            cfork_init_ms: 0.9,
        },
        FbWorkload {
            name: "Chameleon",
            paper: PaperLabels {
                cold_cpu_ms: 262.3,
                warm_ms: 10.9,
                cold_bf1_ms: 1857.1,
                cold_bf2_ms: 492.4,
            },
            warm_exec_ms: 10.9,
            init_ms: 73.8,
            cfork_init_ms: 11.1,
        },
        FbWorkload {
            name: "Linpack",
            paper: PaperLabels {
                cold_cpu_ms: 461.5,
                warm_ms: 95.9,
                cold_bf1_ms: 1855.2,
                cold_bf2_ms: 471.4,
            },
            warm_exec_ms: 95.9,
            init_ms: 188.0,
            cfork_init_ms: 28.2,
        },
        FbWorkload {
            name: "Matmul",
            paper: PaperLabels {
                cold_cpu_ms: 298.9,
                warm_ms: 1.4,
                cold_bf1_ms: 1853.2,
                cold_bf2_ms: 400.8,
            },
            warm_exec_ms: 1.4,
            init_ms: 119.9,
            cfork_init_ms: 19.1,
        },
        FbWorkload {
            name: "PyAES",
            paper: PaperLabels {
                cold_cpu_ms: 164.5,
                warm_ms: 19.5,
                cold_bf1_ms: 1121.9,
                cold_bf2_ms: 213.7,
            },
            warm_exec_ms: 19.5,
            init_ms: 0.0,
            cfork_init_ms: 0.0,
        },
        FbWorkload {
            name: "Video Processing",
            paper: PaperLabels {
                cold_cpu_ms: 38_254.0,
                warm_ms: 33_811.0,
                cold_bf1_ms: 240_237.0,
                cold_bf2_ms: 82_636.8,
            },
            warm_exec_ms: 33_811.0,
            init_ms: 4_265.4,
            cfork_init_ms: 4_057.6,
        },
        FbWorkload {
            name: "DD",
            paper: PaperLabels {
                cold_cpu_ms: 194.9,
                warm_ms: 43.1,
                cold_bf1_ms: 1134.3,
                cold_bf2_ms: 216.1,
            },
            warm_exec_ms: 43.1,
            init_ms: 0.0,
            cfork_init_ms: 0.0,
        },
        FbWorkload {
            name: "gzip Compression",
            paper: PaperLabels {
                cold_cpu_ms: 335.6,
                warm_ms: 182.9,
                cold_bf1_ms: 1909.6,
                cold_bf2_ms: 506.7,
            },
            warm_exec_ms: 182.9,
            init_ms: 0.0,
            cfork_init_ms: 0.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Server baseline startup: container create + Python boot.
    const BASELINE_STARTUP_MS: f64 = 177.6;
    /// Molecule cfork startup on the server.
    const CFORK_STARTUP_MS: f64 = 6.4;

    #[test]
    fn eight_workloads_in_figure_order() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "Image Resize",
                "Chameleon",
                "Linpack",
                "Matmul",
                "PyAES",
                "Video Processing",
                "DD",
                "gzip Compression"
            ]
        );
    }

    #[test]
    fn init_decomposition_matches_cold_labels() {
        // For workloads with non-zero init, the decomposition reconstructs
        // the Fig. 14a label exactly.
        for w in all() {
            if w.init_ms > 0.0 {
                let reconstructed = BASELINE_STARTUP_MS + w.init_ms + w.warm_exec_ms;
                let err = (reconstructed - w.paper.cold_cpu_ms).abs();
                assert!(err < 0.11, "{}: {reconstructed} vs {}", w.name, w.paper.cold_cpu_ms);
            }
        }
    }

    #[test]
    fn molecule_speedups_span_the_papers_range() {
        // §6.6: "Molecule outperforms the baseline in all cases, achieving
        // 1.01x-11.12x less latency", with Matmul at the top and Video
        // Processing at the bottom.
        let mut best: (f64, &str) = (0.0, "");
        let mut worst: (f64, &str) = (f64::MAX, "");
        for w in all() {
            let baseline = BASELINE_STARTUP_MS
                .max(w.paper.cold_cpu_ms - w.warm_exec_ms - w.init_ms)
                + w.init_ms
                + w.warm_exec_ms;
            let molecule = CFORK_STARTUP_MS + w.cfork_init_ms + w.warm_exec_ms;
            let speedup = baseline / molecule;
            assert!(speedup >= 1.0, "{} regressed: {speedup}", w.name);
            if speedup > best.0 {
                best = (speedup, w.name);
            }
            if speedup < worst.0 {
                worst = (speedup, w.name);
            }
        }
        assert_eq!(best.1, "Matmul");
        assert!((10.5..=11.7).contains(&best.0), "best speedup {}", best.0);
        assert_eq!(worst.1, "Video Processing");
        assert!((1.0..=1.05).contains(&worst.0), "worst speedup {}", worst.0);
    }

    #[test]
    fn function_defs_build_and_lookup_works() {
        for w in all() {
            let def = w.to_function_def();
            assert!(def.supports(PuKind::Cpu));
            assert!(def.supports(PuKind::Dpu));
            assert!(!def.supports(PuKind::Fpga));
            assert_eq!(def.id.as_str(), w.func_id());
        }
    }

    #[test]
    fn bf1_labels_are_4x_to_7x_of_cpu() {
        // §6.6: "BF-1 DPU requires longer latencies than CPU (4x-7x)".
        for w in all() {
            let ratio = w.paper.cold_bf1_ms / w.paper.cold_cpu_ms;
            assert!((3.9..=7.2).contains(&ratio), "{}: BF1/CPU = {ratio}", w.name);
        }
    }

    #[test]
    fn bf2_labels_are_3x_to_5x_better_than_bf1() {
        // §6.6: "DPU functions achieve 3x-4x better (compared with BF-1)
        // latencies on BF-2".
        for w in all() {
            let ratio = w.paper.cold_bf1_ms / w.paper.cold_bf2_ms;
            assert!((2.8..=5.3).contains(&ratio), "{}: BF1/BF2 = {ratio}", w.name);
        }
    }
}
