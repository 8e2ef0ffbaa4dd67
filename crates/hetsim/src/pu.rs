//! Processing units (PUs) of a heterogeneous computer.
//!
//! The paper's machines combine a host CPU with general-purpose devices
//! (BlueField DPUs, each running its own Linux) and accelerators (FPGAs,
//! GPUs). [`PuSpec`] captures what the rest of the stack needs to know about
//! each PU: its kind, compute speed relative to the host CPU, core count and
//! memory capacity.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Identifier of a processing unit within one machine.
///
/// PU 0 is always the host CPU; the paper's global PID encoding (§3.2)
/// partitions identifier space by this id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PuId(pub u16);

impl PuId {
    /// The host CPU's well-known id.
    pub const HOST_CPU: PuId = PuId(0);

    /// The raw numeric id.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for PuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pu{}", self.0)
    }
}

/// Identifier of a node (one heterogeneous computer) within a rack.
///
/// Single-machine topologies have exactly one node, `NodeId(0)`, so every
/// pre-rack code path keeps working unchanged.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw numeric id.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The class of a processing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PuKind {
    /// Host CPU (x86 server in the paper's platform).
    Cpu,
    /// Data processing unit (Nvidia BlueField; runs its own Linux).
    Dpu,
    /// FPGA accelerator (Xilinx UltraScale+; runs a shell/wrapper, not an OS).
    Fpga,
    /// GPU accelerator (managed through a CUDA-style wrapper, §6.8).
    Gpu,
    /// SmartNIC with embedded cores (§6.8 generality claim).
    SmartNic,
}

impl PuKind {
    /// True for PUs that run a commodity OS and can host arbitrary programs
    /// (and therefore an XPU-Shim instance of their own).
    pub fn is_general_purpose(self) -> bool {
        matches!(self, PuKind::Cpu | PuKind::Dpu | PuKind::SmartNic)
    }
}

impl fmt::Display for PuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PuKind::Cpu => "CPU",
            PuKind::Dpu => "DPU",
            PuKind::Fpga => "FPGA",
            PuKind::Gpu => "GPU",
            PuKind::SmartNic => "SmartNIC",
        };
        f.write_str(s)
    }
}

/// Concrete device model, used to select calibration constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PuModel {
    /// Intel Xeon Platinum 8160 (the paper's host CPU).
    Xeon8160,
    /// Nvidia/Mellanox BlueField-1 (16 ARM cores @ 800 MHz).
    BlueField1,
    /// Nvidia BlueField-2 (ARM cores up to 2.75 GHz).
    BlueField2,
    /// Xilinx UltraScale+ as deployed in AWS EC2 F1.
    UltraScalePlus,
    /// Generic CUDA-capable GPU.
    GenericGpu,
    /// Generic SmartNIC with embedded ARM cores.
    GenericSmartNic,
}

impl PuModel {
    /// The execution-time multiplier this device model carries relative to
    /// the host CPU (the same value the [`PuSpec`] presets use).
    pub fn compute_factor(self) -> f64 {
        match self {
            PuModel::BlueField1 => 6.2,
            PuModel::BlueField2 => 1.45,
            PuModel::GenericSmartNic => 3.5,
            _ => 1.0,
        }
    }
}

/// Static description of one processing unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PuSpec {
    /// The PU's id within its machine.
    pub id: PuId,
    /// What class of PU this is.
    pub kind: PuKind,
    /// The concrete device model.
    pub model: PuModel,
    /// Human-readable name (e.g. `"bf1-dpu-0"`).
    pub name: String,
    /// Core frequency in MHz (0 for spatial accelerators like FPGAs).
    pub freq_mhz: u32,
    /// Number of general-purpose cores (0 for FPGAs).
    pub cores: u32,
    /// Device memory in MiB.
    pub memory_mib: u64,
    /// Execution-time multiplier relative to the host CPU (1.0 = host speed).
    ///
    /// Calibrated from Fig. 14a/c/d: BlueField-1 runs the FunctionBench
    /// workloads 4–7x slower than the Xeon, BlueField-2 1.3–1.9x slower.
    pub compute_factor: f64,
}

impl PuSpec {
    /// Scales a host-CPU execution time to this PU.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetsim::pu::{PuSpec, PuId};
    /// use hetsim::time::SimDuration;
    ///
    /// let dpu = PuSpec::bluefield1(PuId(1));
    /// let on_cpu = SimDuration::from_millis(100);
    /// assert!(dpu.scale_compute(on_cpu) > on_cpu);
    /// ```
    pub fn scale_compute(&self, host_time: SimDuration) -> SimDuration {
        host_time.mul_f64(self.compute_factor)
    }

    /// The paper's host CPU: Xeon Platinum 8160, 96 cores @ 2.10 GHz.
    pub fn xeon_host(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::Cpu,
            model: PuModel::Xeon8160,
            name: format!("xeon-cpu-{}", id.raw()),
            freq_mhz: 2100,
            cores: 96,
            memory_mib: 192 * 1024,
            compute_factor: 1.0,
        }
    }

    /// A BlueField-1 DPU: 16 ARM cores @ 800 MHz, 16 GiB DRAM.
    pub fn bluefield1(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::Dpu,
            model: PuModel::BlueField1,
            name: format!("bf1-dpu-{}", id.raw()),
            freq_mhz: 800,
            cores: 16,
            memory_mib: 16 * 1024,
            compute_factor: 6.2,
        }
    }

    /// A BlueField-2 DPU: 8 ARM cores @ 2.75 GHz, 16 GiB DRAM.
    pub fn bluefield2(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::Dpu,
            model: PuModel::BlueField2,
            name: format!("bf2-dpu-{}", id.raw()),
            freq_mhz: 2750,
            cores: 8,
            memory_mib: 16 * 1024,
            compute_factor: 1.45,
        }
    }

    /// An UltraScale+ FPGA as found in AWS EC2 F1 instances.
    pub fn ultrascale_fpga(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::Fpga,
            model: PuModel::UltraScalePlus,
            name: format!("us-fpga-{}", id.raw()),
            freq_mhz: 0,
            cores: 0,
            memory_mib: 64 * 1024,
            compute_factor: 1.0, // FPGA kernels carry their own timing
        }
    }

    /// A generic CUDA GPU (used for the §6.8 generality experiments).
    pub fn generic_gpu(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::Gpu,
            model: PuModel::GenericGpu,
            name: format!("gpu-{}", id.raw()),
            freq_mhz: 1500,
            cores: 0,
            memory_mib: 16 * 1024,
            compute_factor: 1.0,
        }
    }

    /// A generic SmartNIC with embedded ARM cores (§6.8).
    pub fn generic_smartnic(id: PuId) -> PuSpec {
        PuSpec {
            id,
            kind: PuKind::SmartNic,
            model: PuModel::GenericSmartNic,
            name: format!("snic-{}", id.raw()),
            freq_mhz: 1200,
            cores: 8,
            memory_mib: 8 * 1024,
            compute_factor: 3.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_is_pu_zero() {
        assert_eq!(PuId::HOST_CPU, PuId(0));
        assert_eq!(PuId::HOST_CPU.to_string(), "pu0");
    }

    #[test]
    fn kinds_partition_into_gp_and_accelerator() {
        for kind in [PuKind::Cpu, PuKind::Dpu, PuKind::SmartNic] {
            assert!(kind.is_general_purpose());
        }
        for kind in [PuKind::Fpga, PuKind::Gpu] {
            assert!(!kind.is_general_purpose());
        }
    }

    #[test]
    fn bluefield1_is_slower_than_host() {
        let host = PuSpec::xeon_host(PuId(0));
        let bf1 = PuSpec::bluefield1(PuId(1));
        let bf2 = PuSpec::bluefield2(PuId(2));
        let base = SimDuration::from_millis(100);
        let on_bf1 = bf1.scale_compute(base);
        let on_bf2 = bf2.scale_compute(base);
        assert_eq!(host.scale_compute(base), base);
        // Fig. 14c: BF-1 runs functions 4-7x slower than the CPU.
        let r1 = on_bf1.ratio(base);
        assert!((4.0..=7.0).contains(&r1), "BF-1 factor {r1} out of the paper's band");
        // Fig. 14d: BF-2 is 3-4x faster than BF-1.
        let r21 = on_bf1.ratio(on_bf2);
        assert!((3.0..=5.0).contains(&r21), "BF-2 improvement {r21} out of band");
    }

    #[test]
    fn preset_names_are_distinct() {
        let specs = [
            PuSpec::xeon_host(PuId(0)),
            PuSpec::bluefield1(PuId(1)),
            PuSpec::bluefield2(PuId(2)),
            PuSpec::ultrascale_fpga(PuId(3)),
            PuSpec::generic_gpu(PuId(4)),
            PuSpec::generic_smartnic(PuId(5)),
        ];
        let mut names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }
}
