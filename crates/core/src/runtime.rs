//! The Molecule serverless runtime (paper §4).
//!
//! [`Molecule`] is the worker-machine runtime: it deploys an XPU-Shim
//! cluster over the heterogeneous computer, drives one sandbox runtime per
//! PU (`runc` on CPU/DPU, `runf` on FPGAs, `runG` on GPUs), manages
//! template containers, and exposes the startup paths the paper evaluates:
//!
//! * **cold baseline** — fresh container + language-runtime boot (what
//!   Molecule-homo does);
//! * **cfork** — fork from a per-(PU, language) template container, locally
//!   or issued from a neighbouring PU over XPU-Shim ("cfork-XPU");
//! * **FPGA paths** — vectorized image caching with warm-image /
//!   warm-sandbox states.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hetsim::engine::ProcCtx;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use parking_lot::Mutex;
use vsandbox::oci::{OciRuntime, VectorizedRuntime};
use vsandbox::runc::{CforkOpts, RuncRuntime};
use vsandbox::runf::RunfRuntime;
use vsandbox::rung::RungRuntime;
use vsandbox::spec::{FuncId, LangRuntime, SandboxConfig, SandboxId};
use xpu_shim::cluster::{ShimCluster, ShimConfig};
use xpu_shim::id::XpuPid;

use crate::billing::{Meter, PriceTable};
use crate::error::MoleculeError;
use crate::function::{FunctionDef, FunctionRegistry};

/// How an instance is (cold-)started — the axes of Fig. 10 and Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupKind {
    /// Fresh container + language runtime boot (the Molecule-homo baseline).
    ColdBaseline,
    /// Container fork from the local template.
    CforkLocal,
    /// Container fork requested from a neighbouring PU through XPU-Shim
    /// ("cfork-XPU": adds the nIPC command + remote coordination cost).
    CforkXpu {
        /// The PU the command is issued from.
        issued_from: PuId,
    },
    /// Restore from a pre-captured snapshot (the Replayable/Firecracker
    /// design point of Fig. 15, for ablation against cfork).
    Snapshot,
}

/// Configuration of a Molecule deployment.
#[derive(Debug, Clone)]
pub struct MoleculeConfig {
    /// XPU-Shim cluster configuration.
    pub shim: ShimConfig,
    /// Function containers pre-initialized per general-purpose PU
    /// (the "FuncContainer" optimization; 0 disables it).
    pub preinit_containers_per_pu: usize,
}

impl Default for MoleculeConfig {
    fn default() -> Self {
        MoleculeConfig { shim: ShimConfig::default(), preinit_containers_per_pu: 8 }
    }
}

/// Identifier of a live function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

#[derive(Debug)]
struct Instance {
    func: Arc<FunctionDef>,
    pu: PuId,
    kind: PuKind,
    sandbox: SandboxId,
    /// One-time cost still owed at the first invocation (cfork page faults
    /// or deferred init).
    pending_first_run: SimDuration,
    invocations: u64,
}

/// Report of one instance start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupReport {
    /// The started instance.
    pub instance: InstanceId,
    /// Virtual time the start took.
    pub latency: SimDuration,
}

/// What [`Molecule::purge_pu`] dropped when a PU was declared dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurgeReport {
    /// The purged PU.
    pub pu: PuId,
    /// Instances that lived on the PU (sorted; their sandboxes died with
    /// it).
    pub instances: Vec<InstanceId>,
    /// Template containers lost with the PU.
    pub templates: usize,
    /// Whether the PU's executor registration was dropped.
    pub executor_dropped: bool,
    /// Sandboxes the PU's `runc` book-keeping marked `Stopped`.
    pub sandboxes_reconciled: usize,
}

/// Report of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvokeReport {
    /// Virtual time from request hand-off to completion.
    pub latency: SimDuration,
    /// Credits billed.
    pub billed: f64,
}

struct RtState {
    templates: HashMap<(PuId, LangRuntime), SandboxId>,
    instances: HashMap<InstanceId, Instance>,
    executors: HashMap<PuId, XpuPid>,
    next_instance: u64,
    next_sandbox: u64,
    meter: Meter,
    manager: Option<XpuPid>,
}

struct MoleculeInner {
    machine: Machine,
    cluster: ShimCluster,
    config: MoleculeConfig,
    registry: FunctionRegistry,
    runcs: HashMap<PuId, RuncRuntime>,
    runfs: HashMap<PuId, RunfRuntime>,
    rungs: HashMap<PuId, RungRuntime>,
    state: Mutex<RtState>,
}

/// The Molecule runtime for one worker machine. Cheap to clone.
#[derive(Clone)]
pub struct Molecule {
    inner: Arc<MoleculeInner>,
}

impl fmt::Debug for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Molecule")
            .field("pus", &self.inner.machine.pus().len())
            .field("functions", &self.inner.registry.len())
            .field("instances", &st.instances.len())
            .finish()
    }
}

impl Molecule {
    /// Deploys Molecule on `machine`: XPU-Shim on every general-purpose PU,
    /// `runc`/`runf`/`runG` per device. (Executors are launched by
    /// [`bootstrap`](Self::bootstrap), which needs simulation context.)
    pub fn launch(machine: Machine, config: MoleculeConfig) -> Molecule {
        let cluster = ShimCluster::deploy(machine.clone(), config.shim);
        let calib = machine.calibration().clone();
        let mut runcs = HashMap::new();
        let mut runfs = HashMap::new();
        let mut rungs = HashMap::new();
        for pu in machine.pus() {
            match pu.kind {
                PuKind::Cpu | PuKind::Dpu | PuKind::SmartNic => {
                    let os = machine.os(pu.id).expect("gp PU has an OS").clone();
                    // The cpuset lock kernel patch ("Cpuset opt", §4.2).
                    os.set_cpuset_lock_mode(hetsim::os::CpusetLockMode::Mutex);
                    runcs.insert(pu.id, RuncRuntime::new(os, &calib));
                }
                PuKind::Fpga => {
                    let dev = machine.fpga(pu.id).expect("fpga device").clone();
                    runfs.insert(pu.id, RunfRuntime::new(dev));
                }
                PuKind::Gpu => {
                    let dev = machine.gpu(pu.id).expect("gpu device").clone();
                    rungs.insert(pu.id, RungRuntime::new(dev));
                }
            }
        }
        Molecule {
            inner: Arc::new(MoleculeInner {
                machine,
                cluster,
                config,
                registry: FunctionRegistry::new(),
                runcs,
                runfs,
                rungs,
                state: Mutex::new(RtState {
                    templates: HashMap::new(),
                    instances: HashMap::new(),
                    executors: HashMap::new(),
                    next_instance: 0,
                    next_sandbox: 0,
                    meter: Meter::new(PriceTable::default()),
                    manager: None,
                }),
            }),
        }
    }

    /// The machine Molecule manages.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// The XPU-Shim cluster.
    pub fn cluster(&self) -> &ShimCluster {
        &self.inner.cluster
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.inner.registry
    }

    /// The deployment configuration.
    pub fn config(&self) -> &MoleculeConfig {
        &self.inner.config
    }

    /// The `runc` runtime on a general-purpose PU.
    pub fn runc(&self, pu: PuId) -> Option<&RuncRuntime> {
        self.inner.runcs.get(&pu)
    }

    /// The `runf` runtime on an FPGA PU.
    pub fn runf(&self, pu: PuId) -> Option<&RunfRuntime> {
        self.inner.runfs.get(&pu)
    }

    /// The `runG` runtime on a GPU PU.
    pub fn rung(&self, pu: PuId) -> Option<&RungRuntime> {
        self.inner.rungs.get(&pu)
    }

    /// Registers a function with the platform.
    pub fn register_function(&self, def: FunctionDef) {
        self.inner.registry.register(def);
    }

    /// Boots the control plane: attaches the global manager on the host CPU
    /// and xSpawns one executor per neighbour general-purpose PU (paper
    /// Fig. 6), then pre-initializes function containers.
    ///
    /// # Errors
    ///
    /// Propagates shim errors from the executor spawns.
    pub fn bootstrap(&self, ctx: &mut ProcCtx) -> Result<(), MoleculeError> {
        telemetry::with(|r| {
            // Name one trace lane per PU so exports read "cpu0"/"dpu1"
            // instead of bare lane numbers.
            for pu in self.inner.machine.pus() {
                r.set_lane_name(pu.id.0, format!("{} (pu{})", pu.kind, pu.id.0));
            }
            r.instant(ctx.lane(), ctx.now().as_nanos(), "molecule-bootstrap", ctx.trace_ctx());
        });
        let host = self.inner.machine.host_cpu();
        let shim = self.inner.cluster.shim_on(host)?;
        let manager = shim.attach_process();
        self.inner.state.lock().manager = Some(manager);
        for pu in self.inner.machine.pus() {
            if pu.kind.is_general_purpose() && pu.id != host {
                let exec = shim.xspawn_inert(ctx, manager, pu.id, "molecule-executor", &[])?;
                self.inner.state.lock().executors.insert(pu.id, exec);
            }
        }
        if self.inner.config.preinit_containers_per_pu > 0 {
            for runc in self.inner.runcs.values() {
                runc.preinit_function_containers(ctx, self.inner.config.preinit_containers_per_pu);
            }
        }
        Ok(())
    }

    /// Prepares a template container for `lang` on `pu` (off the request
    /// critical path).
    ///
    /// # Errors
    ///
    /// Sandbox errors from the underlying `runc`.
    pub fn prepare_template(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        lang: LangRuntime,
    ) -> Result<(), MoleculeError> {
        let runc = self
            .inner
            .runcs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runc on {pu}")))?;
        let id = runc.prepare_template(ctx, lang, 256)?;
        self.inner.state.lock().templates.insert((pu, lang), id);
        Ok(())
    }

    fn lookup_function(&self, func: &FuncId) -> Result<Arc<FunctionDef>, MoleculeError> {
        self.inner.registry.get(func).ok_or_else(|| MoleculeError::UnknownFunction(func.clone()))
    }

    fn fresh_sandbox_id(&self, func: &FuncId) -> SandboxId {
        let mut st = self.inner.state.lock();
        st.next_sandbox += 1;
        SandboxId::new(format!("{func}-{}", st.next_sandbox))
    }

    fn register_instance(&self, inst: Instance) -> InstanceId {
        let mut st = self.inner.state.lock();
        st.next_instance += 1;
        let id = InstanceId(st.next_instance);
        st.instances.insert(id, inst);
        id
    }

    /// Starts an instance of `func` on a general-purpose PU via the given
    /// startup path, returning the instance and its startup latency.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::UnsupportedPu`] if the function has no profile for
    /// the PU's kind; sandbox errors otherwise.
    pub fn start_instance(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        pu: PuId,
        how: StartupKind,
    ) -> Result<StartupReport, MoleculeError> {
        let t0 = ctx.now();
        let out = self.do_start_instance(ctx, func, pu, how);
        telemetry::with(|r| {
            let kind = match how {
                StartupKind::ColdBaseline => "cold",
                StartupKind::CforkLocal => "cfork",
                StartupKind::CforkXpu { .. } => "cfork_xpu",
                StartupKind::Snapshot => "snapshot",
            };
            r.complete_span(
                ctx.lane(),
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("startup:{kind} {func}->pu{}", pu.0),
                ctx.trace_ctx(),
            );
        });
        out
    }

    fn do_start_instance(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        pu: PuId,
        how: StartupKind,
    ) -> Result<StartupReport, MoleculeError> {
        let def = self.lookup_function(func)?;
        let spec = self
            .inner
            .machine
            .pu(pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no such pu {pu}")))?
            .clone();
        if !def.supports(spec.kind) {
            return Err(MoleculeError::UnsupportedPu { func: func.clone(), pu });
        }
        // A crashed PU cannot start anything: surface the same fault shape
        // the shim layer uses so callers take their failover path.
        if self.inner.machine.fault_plane().is_dead(pu) {
            return Err(MoleculeError::Shim(xpu_shim::error::ShimError::PeerDead(pu)));
        }
        if spec.kind == PuKind::Fpga {
            return self.start_fpga_instance(ctx, &def, pu);
        }
        if spec.kind == PuKind::Gpu {
            return self.start_gpu_instance(ctx, &def, pu);
        }
        let runc = self
            .inner
            .runcs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runc on {pu}")))?;
        let sandbox = self.fresh_sandbox_id(func);
        let cfg = SandboxConfig::general(def.id.clone(), def.lang, def.memory_mib);
        let t0 = ctx.now();
        let pending_first_run = match how {
            StartupKind::ColdBaseline => {
                runc.create(ctx, &sandbox, &cfg)?;
                runc.start(ctx, &sandbox)?;
                // The generic container loads function code + dependencies
                // during boot (scaled to the PU's speed).
                ctx.sleep(spec.scale_compute(def.init));
                SimDuration::ZERO
            }
            StartupKind::Snapshot => {
                runc.restore_from_snapshot(ctx, &sandbox, &cfg)?;
                // The snapshot was captured after initialization.
                SimDuration::ZERO
            }
            StartupKind::CforkLocal | StartupKind::CforkXpu { .. } => {
                if let StartupKind::CforkXpu { issued_from } = how {
                    if issued_from != pu {
                        // nIPC command to the remote executor + remote
                        // coordination (Fig. 10: "about 1-3 ms").
                        let route_cost =
                            self.inner.machine.route(issued_from, pu).transfer_time(256);
                        ctx.sleep(route_cost);
                        ctx.sleep(runc.container_costs().cfork_xpu_extra);
                    }
                }
                let template = {
                    let st = self.inner.state.lock();
                    st.templates.get(&(pu, def.lang)).cloned()
                }
                .ok_or_else(|| {
                    MoleculeError::Internal(format!("no {} template on {pu}", def.lang))
                })?;
                let opts = CforkOpts {
                    use_preinit_container: self.inner.config.preinit_containers_per_pu > 0,
                    dense: false,
                };
                runc.cfork(ctx, &template, &sandbox, &cfg, opts)?;
                // Templates are dedicated (code + deps preloaded, §4.2):
                // only COW page faults remain for the first run.
                spec.scale_compute(def.cfork_first_run)
            }
        };
        let latency = ctx.now() - t0;
        let instance = self.register_instance(Instance {
            func: def,
            pu,
            kind: spec.kind,
            sandbox,
            pending_first_run,
            invocations: 0,
        });
        Ok(StartupReport { instance, latency })
    }

    fn start_fpga_instance(
        &self,
        ctx: &mut ProcCtx,
        def: &Arc<FunctionDef>,
        pu: PuId,
    ) -> Result<StartupReport, MoleculeError> {
        let runf = self
            .inner
            .runfs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runf on {pu}")))?;
        let profile = def
            .fpga
            .as_ref()
            .ok_or_else(|| MoleculeError::UnsupportedPu { func: def.id.clone(), pu })?;
        let sandbox = SandboxId::new(def.id.as_str());
        let t0 = ctx.now();
        let known = runf.state(ctx, &sandbox).is_ok();
        if !known {
            let cfg = SandboxConfig::fpga(def.id.clone(), profile.kernel.clone());
            runf.create(ctx, &sandbox, &cfg)?;
        }
        match runf.state(ctx, &sandbox) {
            Ok(vsandbox::spec::SandboxState::Running) => {} // warm hit
            _ => runf.start(ctx, &sandbox)?,
        }
        let latency = ctx.now() - t0;
        let instance = self.register_instance(Instance {
            func: Arc::clone(def),
            pu,
            kind: PuKind::Fpga,
            sandbox,
            pending_first_run: SimDuration::ZERO,
            invocations: 0,
        });
        Ok(StartupReport { instance, latency })
    }

    fn start_gpu_instance(
        &self,
        ctx: &mut ProcCtx,
        def: &Arc<FunctionDef>,
        pu: PuId,
    ) -> Result<StartupReport, MoleculeError> {
        let rung = self
            .inner
            .rungs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runG on {pu}")))?;
        if def.gpu.is_none() {
            return Err(MoleculeError::UnsupportedPu { func: def.id.clone(), pu });
        }
        let sandbox = self.fresh_sandbox_id(&def.id);
        let cfg = SandboxConfig {
            func: def.id.clone(),
            lang: LangRuntime::Cuda,
            memory_mib: def.memory_mib,
            fpga_kernel: None,
        };
        let t0 = ctx.now();
        rung.create(ctx, &sandbox, &cfg)?;
        rung.start(ctx, &sandbox)?;
        let latency = ctx.now() - t0;
        let instance = self.register_instance(Instance {
            func: Arc::clone(def),
            pu,
            kind: PuKind::Gpu,
            sandbox,
            pending_first_run: SimDuration::ZERO,
            invocations: 0,
        });
        Ok(StartupReport { instance, latency })
    }

    /// Packs `funcs` into one vectorized FPGA image on `pu` and flashes it —
    /// the instance-caching path of §4.2. All named functions become
    /// `Created` sandboxes resident on the fabric.
    ///
    /// # Errors
    ///
    /// Unknown functions, functions without FPGA profiles, or device
    /// capacity errors.
    pub fn cache_fpga_functions(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        funcs: &[FuncId],
    ) -> Result<(), MoleculeError> {
        let runf = self
            .inner
            .runfs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runf on {pu}")))?;
        let mut entries = Vec::with_capacity(funcs.len());
        for func in funcs {
            let def = self.lookup_function(func)?;
            let profile = def
                .fpga
                .as_ref()
                .ok_or_else(|| MoleculeError::UnsupportedPu { func: func.clone(), pu })?;
            entries.push((
                SandboxId::new(func.as_str()),
                SandboxConfig::fpga(func.clone(), profile.kernel.clone()),
            ));
        }
        runf.create_vec(ctx, &entries)?;
        Ok(())
    }

    /// Like [`cache_fpga_functions`](Self::cache_fpga_functions) but
    /// *replaces* existing sandboxes with the same ids — the re-flash path
    /// used by the keep-alive cache manager when the resident set changes.
    ///
    /// # Errors
    ///
    /// Same as [`cache_fpga_functions`](Self::cache_fpga_functions).
    pub fn cache_fpga_functions_replacing(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        funcs: &[FuncId],
    ) -> Result<(), MoleculeError> {
        let runf = self
            .inner
            .runfs
            .get(&pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runf on {pu}")))?;
        let mut entries = Vec::with_capacity(funcs.len());
        for func in funcs {
            let def = self.lookup_function(func)?;
            let profile = def
                .fpga
                .as_ref()
                .ok_or_else(|| MoleculeError::UnsupportedPu { func: func.clone(), pu })?;
            entries.push((
                SandboxId::new(func.as_str()),
                SandboxConfig::fpga(func.clone(), profile.kernel.clone()),
            ));
        }
        runf.repack_image(ctx, &entries)?;
        Ok(())
    }

    /// Invokes an instance with `input_bytes` of input, charging execution
    /// (scaled to the PU) plus any pending first-run cost, and billing the
    /// meter.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::UnknownInstance`]; FPGA device errors.
    pub fn invoke(
        &self,
        ctx: &mut ProcCtx,
        instance: InstanceId,
        input_bytes: u64,
    ) -> Result<InvokeReport, MoleculeError> {
        // Copy out only what the invoke reads: the shared definition, the
        // placement, the first-run cost still owed and, for accelerators,
        // the sandbox their device call names.
        let (func, pu, kind, first_run, sandbox) = {
            let st = self.inner.state.lock();
            let inst =
                st.instances.get(&instance).ok_or(MoleculeError::UnknownInstance(instance.0))?;
            let first_run =
                if inst.invocations == 0 { inst.pending_first_run } else { SimDuration::ZERO };
            let sandbox =
                matches!(inst.kind, PuKind::Fpga | PuKind::Gpu).then(|| inst.sandbox.clone());
            (Arc::clone(&inst.func), inst.pu, inst.kind, first_run, sandbox)
        };
        // Invoking on a crashed PU fails like a dead peer would over the
        // shim, so gateways fail over instead of billing phantom work.
        if self.inner.machine.fault_plane().is_dead(pu) {
            return Err(MoleculeError::Shim(xpu_shim::error::ShimError::PeerDead(pu)));
        }
        let t0 = ctx.now();
        match (kind, &sandbox) {
            (PuKind::Fpga, Some(sandbox)) => {
                let profile = func.fpga.as_ref().ok_or_else(|| {
                    MoleculeError::Internal("fpga instance without profile".to_owned())
                })?;
                let runf = self
                    .inner
                    .runfs
                    .get(&pu)
                    .ok_or_else(|| MoleculeError::Internal(format!("no runf on {pu}")))?;
                // Arguments move host -> device over DMA.
                let dma = self
                    .inner
                    .machine
                    .route(self.inner.machine.host_cpu(), pu)
                    .transfer_time(input_bytes);
                ctx.sleep(dma);
                runf.invoke(ctx, sandbox, profile.exec.host_time(input_bytes))?;
            }
            (PuKind::Gpu, Some(sandbox)) => {
                let exec = func.gpu.ok_or_else(|| {
                    MoleculeError::Internal("gpu instance without profile".to_owned())
                })?;
                let rung = self
                    .inner
                    .rungs
                    .get(&pu)
                    .ok_or_else(|| MoleculeError::Internal(format!("no runG on {pu}")))?;
                let dma = self
                    .inner
                    .machine
                    .route(self.inner.machine.host_cpu(), pu)
                    .transfer_time(input_bytes);
                ctx.sleep(dma);
                rung.invoke(ctx, sandbox, exec.host_time(input_bytes))?;
            }
            _ => {
                let spec = self.inner.machine.pu(pu).expect("instance on known pu");
                if !first_run.is_zero() {
                    ctx.sleep(first_run);
                }
                ctx.sleep(func.exec.time_on(spec, input_bytes));
            }
        }
        let latency = ctx.now() - t0;
        telemetry::with(|r| {
            r.complete_span(
                ctx.lane(),
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("invoke {}", func.id),
                ctx.trace_ctx(),
            );
        });
        let billed = {
            let mut st = self.inner.state.lock();
            if let Some(i) = st.instances.get_mut(&instance) {
                i.invocations += 1;
            }
            st.meter.charge(kind, latency, func.memory_mib.max(1))
        };
        Ok(InvokeReport { latency, billed })
    }

    /// Stops and removes an instance, releasing its sandbox.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::UnknownInstance`]; sandbox errors from teardown.
    pub fn retire_instance(
        &self,
        ctx: &mut ProcCtx,
        instance: InstanceId,
    ) -> Result<(), MoleculeError> {
        let inst = self
            .inner
            .state
            .lock()
            .instances
            .remove(&instance)
            .ok_or(MoleculeError::UnknownInstance(instance.0))?;
        match inst.kind {
            PuKind::Fpga => {
                let runf = self.inner.runfs.get(&inst.pu).expect("runf exists");
                // Lazy delete: free, reclaimed at the next create.
                runf.delete(ctx, &inst.sandbox)?;
            }
            PuKind::Gpu => {
                let rung = self.inner.rungs.get(&inst.pu).expect("runG exists");
                rung.delete(ctx, &inst.sandbox)?;
            }
            _ => {
                let runc = self.inner.runcs.get(&inst.pu).expect("runc exists");
                runc.delete(ctx, &inst.sandbox)?;
            }
        }
        Ok(())
    }

    /// Purges every trace of a crashed PU from the runtime: its instances,
    /// templates and executor registration, then reconciles the
    /// PU's `runc` book-keeping (sandboxes that were `Running` there are
    /// marked `Stopped`). No sandbox verbs are charged — the containers died
    /// with the PU; this is the control plane catching up with reality.
    pub fn purge_pu(&self, pu: PuId) -> PurgeReport {
        let (instances, templates, executor_dropped) = {
            let mut st = self.inner.state.lock();
            let mut dead: Vec<InstanceId> =
                st.instances.iter().filter(|(_, i)| i.pu == pu).map(|(id, _)| *id).collect();
            dead.sort();
            for id in &dead {
                st.instances.remove(id);
            }
            let before = st.templates.len();
            st.templates.retain(|(p, _), _| *p != pu);
            let templates = before - st.templates.len();
            let executor_dropped = st.executors.remove(&pu).is_some();
            (dead, templates, executor_dropped)
        };
        let sandboxes_reconciled =
            self.inner.runcs.get(&pu).map_or(0, |runc| runc.reconcile_lost().len());
        PurgeReport { pu, instances, templates, executor_dropped, sandboxes_reconciled }
    }

    /// A snapshot of the billing meter.
    pub fn meter(&self) -> Meter {
        self.inner.state.lock().meter.clone()
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.inner.state.lock().instances.len()
    }

    /// Number of executors launched by [`bootstrap`](Self::bootstrap).
    pub fn executor_count(&self) -> usize {
        self.inner.state.lock().executors.len()
    }

    /// The PU an instance runs on.
    pub fn instance_pu(&self, instance: InstanceId) -> Option<PuId> {
        self.inner.state.lock().instances.get(&instance).map(|i| i.pu)
    }

    /// The sandbox backing an instance (for memory inspection etc.).
    pub fn instance_sandbox(&self, instance: InstanceId) -> Option<SandboxId> {
        self.inner.state.lock().instances.get(&instance).map(|i| i.sandbox.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::ExecModel;
    use hetsim::engine::Simulation;
    use hetsim::fpga::{FpgaResources, KernelSpec};

    fn image_fn() -> FunctionDef {
        FunctionDef::builder("image-resize", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(14.1)
            .init_ms(6.3)
            .cfork_first_run_ms(1.0)
            .build()
    }

    fn molecule() -> Molecule {
        let m = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        m.register_function(image_fn());
        m
    }

    #[test]
    fn bootstrap_spawns_executors_on_dpus() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("boot", move |ctx| {
            m2.bootstrap(ctx).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(m.executor_count(), 2);
    }

    #[test]
    fn missing_template_is_a_clean_error() {
        let m = molecule();
        let mut sim = Simulation::new();
        let h = sim.spawn("gateway", move |ctx| {
            // No template prepared: cfork must fail without panicking.
            m.start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::CforkLocal)
                .unwrap_err()
        });
        sim.run().unwrap();
        assert!(matches!(h.take_result().unwrap(), MoleculeError::Internal(_)));
    }

    #[test]
    fn startup_paths_match_fig10a() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let h = sim.spawn("gateway", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let cold = m2
                .start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::ColdBaseline)
                .unwrap();
            let cfork = m2
                .start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::CforkLocal)
                .unwrap();
            let cfork_xpu = m2
                .start_instance(
                    ctx,
                    &"image-resize".into(),
                    PuId(1),
                    StartupKind::CforkXpu { issued_from: PuId(0) },
                )
                .unwrap();
            (
                cold.latency.as_millis_f64(),
                cfork.latency.as_millis_f64(),
                cfork_xpu.latency.as_millis_f64(),
            )
        });
        sim.run().unwrap();
        let (cold, cfork, cfork_xpu) = h.take_result().unwrap();
        // Fig. 10a: baseline ≈ 177.6 + init, cfork-local ≈ 6.4 ms.
        assert!((183.0..=185.0).contains(&cold), "baseline {cold}ms");
        assert!((6.3..=6.6).contains(&cfork), "cfork-local {cfork}ms");
        // Fig. 10b: the fork itself runs ~6.2x slower on BF-1 (≈ 40 ms), and
        // issuing it over XPU-Shim adds only the 1-3 ms command overhead.
        assert!((39.0..=46.0).contains(&cfork_xpu), "cfork-XPU on BF-1 {cfork_xpu}ms");
    }

    #[test]
    fn first_invocation_pays_cow_faults_then_warms_up() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let h = sim.spawn("gateway", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
            let started = m2
                .start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::CforkLocal)
                .unwrap();
            let first = m2.invoke(ctx, started.instance, 1024).unwrap();
            let second = m2.invoke(ctx, started.instance, 1024).unwrap();
            (first.latency, second.latency)
        });
        sim.run().unwrap();
        let (first, second) = h.take_result().unwrap();
        assert_eq!(first - second, SimDuration::from_millis(1), "COW fault cost");
        assert_eq!(second, SimDuration::from_micros(14_100));
    }

    #[test]
    fn warm_instances_are_tracked_and_retire_releases_them() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("gateway", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
            let started = m2
                .start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::CforkLocal)
                .unwrap();
            assert_eq!(m2.instance_pu(started.instance), Some(PuId(0)));
            assert_eq!(m2.instance_count(), 1);
            m2.retire_instance(ctx, started.instance).unwrap();
            assert_eq!(m2.instance_pu(started.instance), None);
            assert_eq!(m2.instance_count(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unsupported_pu_is_rejected() {
        let machine = Machine::full_heterogeneous();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let m = Molecule::launch(machine, MoleculeConfig::default());
        m.register_function(image_fn()); // CPU/DPU only
        let mut sim = Simulation::new();
        let h = sim.spawn("gateway", move |ctx| {
            m.start_instance(ctx, &"image-resize".into(), fpga, StartupKind::ColdBaseline)
                .unwrap_err()
        });
        sim.run().unwrap();
        assert!(matches!(h.take_result().unwrap(), MoleculeError::UnsupportedPu { .. }));
    }

    #[test]
    fn fpga_cold_then_warm_startup() {
        let machine = Machine::paper_f1_instance();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let m = Molecule::launch(machine, MoleculeConfig::default());
        let kernel = KernelSpec {
            name: "vmult".to_owned(),
            resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
        };
        m.register_function(
            FunctionDef::builder("vmult", LangRuntime::OpenCl)
                .profiles(&[PuKind::Fpga])
                .fpga(kernel, ExecModel::Fixed(SimDuration::from_micros(1259)))
                .build(),
        );
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let h = sim.spawn("gateway", move |ctx| {
            let cold =
                m2.start_instance(ctx, &"vmult".into(), fpga, StartupKind::ColdBaseline).unwrap();
            let exec = m2.invoke(ctx, cold.instance, 4096).unwrap();
            // A second start finds the sandbox running: warm hit.
            let warm =
                m2.start_instance(ctx, &"vmult".into(), fpga, StartupKind::ColdBaseline).unwrap();
            (cold.latency.as_secs_f64(), warm.latency, exec.latency)
        });
        sim.run().unwrap();
        let (cold, warm, exec) = h.take_result().unwrap();
        // No-erase cold: load (3.75s + compose) + prep 53ms.
        assert!((3.8..=4.1).contains(&cold), "fpga cold {cold}s");
        assert!(warm < SimDuration::from_millis(1), "warm hit {warm}");
        // DMA (4 KiB ≈ 61 µs) + dispatch 80 µs + kernel 1259 µs.
        assert!((1.3..=1.5).contains(&exec.as_millis_f64()), "fpga invoke {exec}");
    }

    #[test]
    fn vectorized_cache_makes_whole_set_resident() {
        let machine = Machine::paper_f1_instance();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let m = Molecule::launch(machine, MoleculeConfig::default());
        let mut funcs = Vec::new();
        for name in ["madd", "mmult", "mscale"] {
            let kernel = KernelSpec {
                name: name.to_owned(),
                resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
            };
            m.register_function(
                FunctionDef::builder(name, LangRuntime::OpenCl)
                    .profiles(&[PuKind::Fpga])
                    .fpga(kernel, ExecModel::Fixed(SimDuration::from_micros(100)))
                    .build(),
            );
            funcs.push(FuncId::new(name));
        }
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let funcs2 = funcs.clone();
        let h = sim.spawn("gateway", move |ctx| {
            m2.cache_fpga_functions(ctx, fpga, &funcs2).unwrap();
            // Starting a cached function only needs the 53ms sandbox prep.
            let r =
                m2.start_instance(ctx, &"mmult".into(), fpga, StartupKind::ColdBaseline).unwrap();
            r.latency.as_millis_f64()
        });
        sim.run().unwrap();
        let warm_sandbox = h.take_result().unwrap();
        assert_eq!(warm_sandbox, 53.0, "Fig. 10c warm-sandbox");
    }

    #[test]
    fn billing_accumulates_per_kind() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("gateway", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
            let r = m2
                .start_instance(ctx, &"image-resize".into(), PuId(0), StartupKind::CforkLocal)
                .unwrap();
            m2.invoke(ctx, r.instance, 0).unwrap();
            m2.invoke(ctx, r.instance, 0).unwrap();
        });
        sim.run().unwrap();
        let meter = m.meter();
        assert_eq!(meter.invocations(), 2);
        assert!(meter.total_for(PuKind::Cpu) > 0.0);
        assert_eq!(meter.total_for(PuKind::Dpu), 0.0);
    }
}
