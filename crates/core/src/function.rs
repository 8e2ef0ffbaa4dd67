//! Function definitions, execution models and the function registry.
//!
//! Molecule's programming model (paper §4.1): developers upload a function
//! per language runtime; users explicitly pick resources and the *kinds* of
//! PU the function may run on (its profiles), and the platform schedules
//! among them. An FPGA profile additionally carries the synthesized kernel
//! and its device-side execution time.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hetsim::fpga::KernelSpec;
use hetsim::pu::{PuKind, PuSpec};
use hetsim::time::SimDuration;
use molecule_tenancy::SloClass;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use vsandbox::spec::{FuncId, LangRuntime};

/// How long a function's handler runs for a given input, on the host CPU.
/// Actual PUs scale this by their
/// [`compute_factor`](hetsim::pu::PuSpec::compute_factor).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecModel {
    /// Input-independent execution time.
    Fixed(SimDuration),
    /// Affine in the input size: `base + ns_per_byte * input_bytes`.
    PerByte {
        /// Fixed component.
        base: SimDuration,
        /// Per-input-byte component, nanoseconds.
        ns_per_byte: f64,
    },
}

impl ExecModel {
    /// Host-CPU execution time for `input_bytes` of input.
    pub fn host_time(&self, input_bytes: u64) -> SimDuration {
        match *self {
            ExecModel::Fixed(d) => d,
            ExecModel::PerByte { base, ns_per_byte } => {
                base + SimDuration::from_nanos((ns_per_byte * input_bytes as f64) as u64)
            }
        }
    }

    /// Execution time on a concrete PU.
    pub fn time_on(&self, pu: &PuSpec, input_bytes: u64) -> SimDuration {
        pu.scale_compute(self.host_time(input_bytes))
    }
}

/// An FPGA deployment of a function: the synthesized kernel plus its
/// device-side execution model (FPGA kernels do not follow CPU frequency
/// scaling, so they carry their own timing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpgaProfile {
    /// The synthesized kernel.
    pub kernel: KernelSpec,
    /// Device-side execution model.
    pub exec: ExecModel,
}

/// A deployable serverless function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionDef {
    /// Unique function id.
    pub id: FuncId,
    /// Language runtime (Python/Node.js for CPU/DPU; OpenCL/CUDA for
    /// accelerators).
    pub lang: LangRuntime,
    /// Explicit memory reservation, MiB (§4.1: users assign resources).
    pub memory_mib: u64,
    /// PU kinds this function may run on, in user preference order.
    pub profiles: Vec<PuKind>,
    /// Handler execution model (host-CPU timescale).
    pub exec: ExecModel,
    /// One-time initialization on a cold start (imports, model loading).
    pub init: SimDuration,
    /// Extra first-invocation cost after a cfork (copy-on-write faults and
    /// cold caches; §6.6 notes cfork "will lead to more page faults").
    pub cfork_first_run: SimDuration,
    /// FPGA deployment, when an Fpga profile exists.
    pub fpga: Option<FpgaProfile>,
    /// GPU execution model, when a Gpu profile exists (§6.8: a CUDA kernel
    /// behind the runG wrapper).
    pub gpu: Option<ExecModel>,
    /// Bytes this function emits to the next function in a chain.
    pub output_bytes: u64,
    /// Named shared-state regions (`molecule-state`) the function reads or
    /// writes. Placement prefers PUs already hosting these regions' pages
    /// (the state-locality term), and stateful workloads attach them before
    /// the handler runs.
    #[serde(default)]
    pub regions: Vec<String>,
    /// Declared service-level objective. `Latency(target)` steers the
    /// placer away from cold FPGAs and deep queues and sets a default
    /// deadline; `Batch` absorbs them and is shed first under overload.
    /// `None` behaves like pre-SLO code: no placement bias, no default
    /// deadline.
    #[serde(default)]
    pub slo: Option<SloClass>,
}

impl FunctionDef {
    /// Starts building a function definition.
    pub fn builder(id: impl Into<FuncId>, lang: LangRuntime) -> FunctionBuilder {
        FunctionBuilder {
            def: FunctionDef {
                id: id.into(),
                lang,
                memory_mib: 128,
                profiles: vec![PuKind::Cpu],
                exec: ExecModel::Fixed(SimDuration::from_millis(1)),
                init: SimDuration::ZERO,
                cfork_first_run: SimDuration::ZERO,
                fpga: None,
                gpu: None,
                output_bytes: 1024,
                regions: Vec::new(),
                slo: None,
            },
        }
    }

    /// True if the function may run on PUs of `kind`.
    pub fn supports(&self, kind: PuKind) -> bool {
        self.profiles.contains(&kind)
    }
}

/// Builder for [`FunctionDef`].
#[derive(Debug)]
pub struct FunctionBuilder {
    def: FunctionDef,
}

impl FunctionBuilder {
    /// Sets the memory reservation in MiB.
    pub fn memory_mib(mut self, mib: u64) -> FunctionBuilder {
        self.def.memory_mib = mib;
        self
    }

    /// Sets the allowed PU kinds (user profile selection, §4.1).
    pub fn profiles(mut self, kinds: &[PuKind]) -> FunctionBuilder {
        self.def.profiles = kinds.to_vec();
        self
    }

    /// Sets the handler execution model.
    pub fn exec(mut self, exec: ExecModel) -> FunctionBuilder {
        self.def.exec = exec;
        self
    }

    /// Sets a fixed handler execution time.
    pub fn exec_ms(mut self, ms: f64) -> FunctionBuilder {
        self.def.exec = ExecModel::Fixed(SimDuration::from_millis_f64(ms));
        self
    }

    /// Sets the one-time cold-start initialization cost.
    pub fn init_ms(mut self, ms: f64) -> FunctionBuilder {
        self.def.init = SimDuration::from_millis_f64(ms);
        self
    }

    /// Sets the extra first-run cost after a cfork.
    pub fn cfork_first_run_ms(mut self, ms: f64) -> FunctionBuilder {
        self.def.cfork_first_run = SimDuration::from_millis_f64(ms);
        self
    }

    /// Adds an FPGA profile.
    pub fn fpga(mut self, kernel: KernelSpec, exec: ExecModel) -> FunctionBuilder {
        self.def.fpga = Some(FpgaProfile { kernel, exec });
        if !self.def.profiles.contains(&PuKind::Fpga) {
            self.def.profiles.push(PuKind::Fpga);
        }
        self
    }

    /// Adds a GPU profile (a CUDA kernel with its device-side timing).
    pub fn gpu(mut self, exec: ExecModel) -> FunctionBuilder {
        self.def.gpu = Some(exec);
        if !self.def.profiles.contains(&PuKind::Gpu) {
            self.def.profiles.push(PuKind::Gpu);
        }
        self
    }

    /// Sets the bytes emitted to the next function in a chain.
    pub fn output_bytes(mut self, bytes: u64) -> FunctionBuilder {
        self.def.output_bytes = bytes;
        self
    }

    /// Declares a shared-state region the function uses. Repeatable; the
    /// scheduler's state-locality term prefers PUs already hosting a
    /// replica of any declared region.
    pub fn region(mut self, name: impl Into<String>) -> FunctionBuilder {
        let name = name.into();
        if !self.def.regions.contains(&name) {
            self.def.regions.push(name);
        }
        self
    }

    /// Declares the function latency-sensitive with a p-target of `ms`.
    /// Submissions without an explicit deadline default to this budget and
    /// the placer penalizes cold starts and queueing for it.
    pub fn slo_latency_ms(mut self, ms: f64) -> FunctionBuilder {
        self.def.slo = Some(SloClass::Latency(SimDuration::from_millis_f64(ms)));
        self
    }

    /// Declares the function a batch job: happy to eat cold starts and
    /// queueing, and the first to be shed when a PU is overloaded.
    pub fn slo_batch(mut self) -> FunctionBuilder {
        self.def.slo = Some(SloClass::Batch);
        self
    }

    /// Finalizes the definition.
    ///
    /// # Panics
    ///
    /// Panics if an Fpga profile is listed without FPGA deployment data.
    pub fn build(self) -> FunctionDef {
        if self.def.profiles.contains(&PuKind::Fpga) {
            assert!(
                self.def.fpga.is_some(),
                "function {} lists an FPGA profile but has no kernel",
                self.def.id
            );
        }
        if self.def.profiles.contains(&PuKind::Gpu) {
            assert!(
                self.def.gpu.is_some(),
                "function {} lists a GPU profile but has no kernel timing",
                self.def.id
            );
        }
        self.def
    }
}

/// The platform's function registry (what the API gateway deploys from).
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    inner: Arc<Mutex<HashMap<FuncId, Arc<FunctionDef>>>>,
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionRegistry").field("functions", &self.inner.lock().len()).finish()
    }
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers (or replaces) a function. A replacement does not touch
    /// definitions already handed out by [`get`](Self::get): holders keep
    /// the version they looked up.
    pub fn register(&self, def: FunctionDef) {
        self.inner.lock().insert(def.id.clone(), Arc::new(def));
    }

    /// Looks up a function. The definition is shared, not copied: a lookup
    /// costs one reference-count bump, whatever the definition's profiles,
    /// regions and kernel hold.
    pub fn get(&self, id: &FuncId) -> Option<Arc<FunctionDef>> {
        self.inner.lock().get(id).cloned()
    }

    /// All registered function ids, sorted.
    pub fn ids(&self) -> Vec<FuncId> {
        let mut v: Vec<FuncId> = self.inner.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::pu::PuId;

    #[test]
    fn exec_model_scales_with_pu() {
        let exec = ExecModel::Fixed(SimDuration::from_millis(100));
        let cpu = PuSpec::xeon_host(PuId(0));
        let dpu = PuSpec::bluefield1(PuId(1));
        assert_eq!(exec.time_on(&cpu, 0), SimDuration::from_millis(100));
        assert_eq!(exec.time_on(&dpu, 0), SimDuration::from_millis(620));
    }

    #[test]
    fn per_byte_model_grows_with_input() {
        let exec = ExecModel::PerByte { base: SimDuration::from_micros(10), ns_per_byte: 2.0 };
        assert_eq!(exec.host_time(0), SimDuration::from_micros(10));
        assert_eq!(exec.host_time(1000), SimDuration::from_micros(12));
    }

    #[test]
    fn builder_produces_consistent_defs() {
        let def = FunctionDef::builder("img", LangRuntime::Python)
            .memory_mib(256)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(14.1)
            .init_ms(6.3)
            .output_bytes(2048)
            .build();
        assert_eq!(def.memory_mib, 256);
        assert!(def.supports(PuKind::Dpu));
        assert!(!def.supports(PuKind::Fpga));
        assert_eq!(def.exec.host_time(0), SimDuration::from_micros(14_100));
    }

    #[test]
    fn slo_classes_ride_the_builder_and_default_to_none() {
        let plain = FunctionDef::builder("plain", LangRuntime::Python).build();
        assert_eq!(plain.slo, None);
        let lat = FunctionDef::builder("lat", LangRuntime::Python).slo_latency_ms(250.0).build();
        assert_eq!(lat.slo.and_then(|s| s.latency_target()), Some(SimDuration::from_millis(250)));
        let batch = FunctionDef::builder("bulk", LangRuntime::Python).slo_batch().build();
        assert!(batch.slo.is_some_and(|s| s.is_batch()));
    }

    #[test]
    #[should_panic(expected = "no kernel")]
    fn fpga_profile_without_kernel_panics() {
        let _ = FunctionDef::builder("bad", LangRuntime::OpenCl).profiles(&[PuKind::Fpga]).build();
    }

    #[test]
    fn registry_roundtrip() {
        let reg = FunctionRegistry::new();
        assert!(reg.is_empty());
        let def = FunctionDef::builder("a", LangRuntime::Python).build();
        reg.register(def.clone());
        reg.register(FunctionDef::builder("b", LangRuntime::NodeJs).build());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(&"a".into()).as_deref(), Some(&def));
        assert_eq!(reg.ids(), vec![FuncId::new("a"), FuncId::new("b")]);
        assert_eq!(reg.get(&"zzz".into()), None);
    }
}
