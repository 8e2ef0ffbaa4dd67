//! `runc` — the container sandbox runtime for CPU and DPU functions.
//!
//! Models the paper's modified Docker runc (§5): the five OCI verbs over
//! containers on one PU's local OS, plus the **cfork** primitives Molecule
//! builds its startup optimization on (§4.2):
//!
//! * *template containers* holding a booted, multi-threaded language runtime;
//! * the *forkable runtime* merge → fork → expand dance (Unix fork only
//!   propagates the forking thread);
//! * *function containers*, optionally pre-initialized ("FuncContainer",
//!   Fig. 11a);
//! * cgroup re-attachment whose cost depends on the kernel's cpuset lock
//!   mode ("Cpuset opt", Fig. 11a).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hetsim::calib::{Calibration, ContainerCosts, LanguageCosts, MemoryModel};
use hetsim::engine::{ProcCtx, SimSemaphore};
use hetsim::os::{BlockId, CgroupId, LocalOs, OsPid};
use parking_lot::Mutex;

use crate::oci::{self, OciRuntime, SandboxError, VectorizedRuntime};
use crate::spec::{LangRuntime, SandboxConfig, SandboxId, SandboxState, Signal};

/// Options controlling a [`RuncRuntime::cfork`] call (the Fig. 11a ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CforkOpts {
    /// Settle the child in a pre-initialized function container instead of
    /// creating one on the critical path ("FuncContainer").
    pub use_preinit_container: bool,
    /// Dense profile: the child dirties only
    /// [`MemoryModel::dense_private_pages`] instead of the full
    /// `cfork_private_pages` working set, trading first-run warmth for the
    /// sub-linear PSS curve the 10k-sandbox density study depends on.
    ///
    /// [`MemoryModel::dense_private_pages`]: hetsim::calib::MemoryModel::dense_private_pages
    pub dense: bool,
}

#[derive(Debug)]
struct Container {
    state: SandboxState,
    config: SandboxConfig,
    os_pid: Option<OsPid>,
    cgroup: CgroupId,
    reserved_mib: u64,
    is_template: bool,
    /// Shared-state region blocks currently mapped into the sandbox.
    regions: Vec<BlockId>,
}

#[derive(Default)]
struct RuncState {
    sandboxes: HashMap<SandboxId, Container>,
    /// Per-language shared library block (file-backed pages shared between
    /// baseline-booted instances).
    shared_libs: HashMap<LangRuntime, BlockId>,
    /// Per-language template block (the whole template image, COW-shared
    /// into cforked children).
    template_blocks: HashMap<SandboxId, BlockId>,
    /// Pre-initialized (empty) function containers.
    preinit_pool: Vec<CgroupId>,
    next_anon: u64,
}

/// The container runtime for one general-purpose PU. Cheap to clone.
#[derive(Clone)]
pub struct RuncRuntime {
    inner: Arc<RuncInner>,
}

struct RuncInner {
    os: LocalOs,
    container: ContainerCosts,
    lang: LanguageCosts,
    memory: MemoryModel,
    state: Mutex<RuncState>,
    /// Serializes the merge → fork → expand window: a second cfork slipping
    /// in after this one's fork but before its expand would find the
    /// template multi-threaded again and fail. Lazily bound to the
    /// simulation on first use.
    fork_gate: Mutex<Option<SimSemaphore>>,
    /// Test-only: when set, cfork skips the gate, re-exposing the historical
    /// merge/fork/expand race so the schedule explorer can demonstrate it
    /// finds (and shrinks) the bug. Never enabled in production paths.
    unserialized_cfork: std::sync::atomic::AtomicBool,
}

impl fmt::Debug for RuncRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("RuncRuntime")
            .field("pu", &self.inner.os.pu())
            .field("sandboxes", &st.sandboxes.len())
            .field("preinit_pool", &st.preinit_pool.len())
            .finish()
    }
}

impl RuncRuntime {
    /// Creates a runtime over `os`, with costs from `calib` scaled to the
    /// OS's PU speed (container operations on a BlueField's 800 MHz cores
    /// run proportionally slower, Fig. 10b).
    pub fn new(os: LocalOs, calib: &Calibration) -> RuncRuntime {
        let factor = os.model().compute_factor();
        RuncRuntime {
            inner: Arc::new(RuncInner {
                os,
                container: calib.container.scaled(factor),
                lang: calib.lang.scaled(factor),
                memory: calib.memory,
                state: Mutex::new(RuncState::default()),
                fork_gate: Mutex::new(None),
                unserialized_cfork: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Test-only: disables the per-template cfork gate, re-introducing the
    /// merge/fork/expand interleaving race for the schedule explorer to
    /// find. Not part of the supported API.
    #[doc(hidden)]
    pub fn set_unserialized_cfork_for_test(&self, on: bool) {
        self.inner.unserialized_cfork.store(on, std::sync::atomic::Ordering::SeqCst);
    }

    /// The OS this runtime manages containers on.
    pub fn os(&self) -> &LocalOs {
        &self.inner.os
    }

    /// The container cost table in effect.
    pub fn container_costs(&self) -> &ContainerCosts {
        &self.inner.container
    }

    fn boot_cost(&self, lang: LangRuntime) -> Result<hetsim::time::SimDuration, SandboxError> {
        match lang {
            LangRuntime::Python => Ok(self.inner.lang.python_boot),
            LangRuntime::NodeJs => Ok(self.inner.lang.nodejs_boot),
            other => {
                Err(SandboxError::UnsupportedConfig(format!("runc cannot host {other} functions")))
            }
        }
    }

    /// Pre-creates `n` empty function containers off the critical path
    /// (the "FuncContainer" optimization).
    pub fn preinit_function_containers(&self, ctx: &mut ProcCtx, n: usize) {
        for i in 0..n {
            ctx.sleep(self.inner.container.create);
            let cg = self.inner.os.create_cgroup(&format!("preinit-{i}"));
            self.inner.state.lock().preinit_pool.push(cg);
        }
    }

    /// Boots a template container for `lang`: a full container with a booted,
    /// *multi-threaded* language runtime, ready to be cforked. Returns the
    /// template's sandbox id.
    ///
    /// # Errors
    ///
    /// [`SandboxError::UnsupportedConfig`] for accelerator languages;
    /// [`SandboxError::Os`] if memory reservation fails.
    pub fn prepare_template(
        &self,
        ctx: &mut ProcCtx,
        lang: LangRuntime,
        memory_mib: u64,
    ) -> Result<SandboxId, SandboxError> {
        let boot = self.boot_cost(lang)?;
        let id = {
            let mut st = self.inner.state.lock();
            st.next_anon += 1;
            SandboxId::new(format!("template-{lang}-{}", st.next_anon))
        };
        self.inner.os.try_reserve_mib(memory_mib)?;
        ctx.sleep(self.inner.container.create);
        let cgroup = self.inner.os.create_cgroup(id.as_str());
        ctx.sleep(boot);
        let pid = self.inner.os.register_process(&format!("{lang}-template"), 1);
        // The booted language runtime has worker threads (GC, event loop...)
        // — the very thing that makes plain fork incorrect.
        self.inner.os.set_threads(pid, 3)?;
        let block = self.inner.os.map_private(pid, self.inner.memory.template_pages)?;
        self.inner.os.attach_to_cgroup(pid, cgroup)?;
        let mut st = self.inner.state.lock();
        st.template_blocks.insert(id.clone(), block);
        st.sandboxes.insert(
            id.clone(),
            Container {
                state: SandboxState::Running,
                config: SandboxConfig::general(format!("__template_{lang}"), lang, memory_mib),
                os_pid: Some(pid),
                cgroup,
                reserved_mib: memory_mib,
                is_template: true,
                regions: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Container fork: creates `new_id` by forking the template's language
    /// runtime into a function container (§4.2).
    ///
    /// The forkable runtime first merges the template's threads into one,
    /// forks, then expands both sides — plain `fork(2)` of the multi-threaded
    /// template would fail (and does, in the model).
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] for a missing template,
    /// [`SandboxError::AlreadyExists`] on id reuse, [`SandboxError::Os`] on
    /// memory exhaustion.
    pub fn cfork(
        &self,
        ctx: &mut ProcCtx,
        template_id: &SandboxId,
        new_id: &SandboxId,
        config: &SandboxConfig,
        opts: CforkOpts,
    ) -> Result<(), SandboxError> {
        let (template_pid, template_is) = {
            let st = self.inner.state.lock();
            if st.sandboxes.contains_key(new_id) {
                return Err(SandboxError::AlreadyExists(new_id.clone()));
            }
            let t = st
                .sandboxes
                .get(template_id)
                .ok_or_else(|| SandboxError::Unknown(template_id.clone()))?;
            (t.os_pid, t.is_template)
        };
        let template_pid = template_pid.ok_or_else(|| {
            SandboxError::Os(format!("template {template_id} has no live process"))
        })?;
        if !template_is {
            return Err(SandboxError::UnsupportedConfig(format!(
                "{template_id} is not a template container"
            )));
        }
        self.inner.os.try_reserve_mib(config.memory_mib)?;

        // 1. A function container for the child: pre-initialized if allowed,
        //    created on the critical path otherwise.
        let cgroup = {
            let pooled = if opts.use_preinit_container {
                self.inner.state.lock().preinit_pool.pop()
            } else {
                None
            };
            match pooled {
                Some(cg) => cg,
                None => {
                    ctx.sleep(self.inner.container.create);
                    self.inner.os.create_cgroup(new_id.as_str())
                }
            }
        };

        // 2. Forkable runtime: merge -> fork -> expand, serialized so
        //    concurrent cforks of the same template cannot interleave.
        let gate = {
            let mut slot = self.inner.fork_gate.lock();
            slot.get_or_insert_with(|| ctx.semaphore(1)).clone()
        };
        let permit = if self.inner.unserialized_cfork.load(std::sync::atomic::Ordering::SeqCst) {
            None
        } else {
            Some(gate.acquire(ctx, 1))
        };
        self.inner.os.merge_threads(ctx, template_pid)?;
        ctx.sleep(self.inner.container.fork_propagate);
        let child = self.inner.os.fork_uncharged(template_pid)?;
        self.inner.os.expand_threads(ctx, template_pid)?;
        self.inner.os.expand_threads(ctx, child)?;
        drop(permit);

        // 3. Settle the child into the function container: namespaces +
        //    cgroup (cpuset lock mode decides the cost) + connection back to
        //    the runtime.
        ctx.sleep(self.inner.container.ns_reconfig);
        ctx.sleep(self.inner.os.cgroup_attach_cost(&self.inner.container));
        self.inner.os.attach_to_cgroup(child, cgroup)?;
        ctx.sleep(self.inner.container.conn_handshake);

        // 4. Function state: the child COW-shares the template image and
        //    makes its own working set private. A dense-profile child keeps
        //    most of the template COW-shared and dirties only the small
        //    dense working set.
        let private_pages = if opts.dense {
            self.inner.memory.dense_private_pages
        } else {
            self.inner.memory.cfork_private_pages
        };
        self.inner.os.map_private(child, private_pages)?;

        let mut st = self.inner.state.lock();
        st.sandboxes.insert(
            new_id.clone(),
            Container {
                state: SandboxState::Running,
                config: config.clone(),
                os_pid: Some(child),
                cgroup,
                reserved_mib: config.memory_mib,
                is_template: false,
                regions: Vec::new(),
            },
        );
        Ok(())
    }

    /// Captures a snapshot of a running sandbox (offline preparation for
    /// [`restore_from_snapshot`](Self::restore_from_snapshot)). Returns the
    /// capture cost that was charged.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] for missing sandboxes,
    /// [`SandboxError::InvalidTransition`] unless the sandbox is running.
    pub fn capture_snapshot(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
    ) -> Result<hetsim::time::SimDuration, SandboxError> {
        {
            let st = self.inner.state.lock();
            let c = st.sandboxes.get(id).ok_or_else(|| SandboxError::Unknown(id.clone()))?;
            if c.state != SandboxState::Running {
                return Err(SandboxError::InvalidTransition {
                    id: id.clone(),
                    from: c.state,
                    to: SandboxState::Running,
                });
            }
        }
        let cost = self.inner.container.snapshot_capture;
        ctx.sleep(cost);
        Ok(cost)
    }

    /// Restores `new_id` from a pre-captured snapshot of a booted `config`
    /// instance (Replayable-/Firecracker-style, the alternative startup
    /// optimization of Fig. 15's design space).
    ///
    /// Unlike cfork, a restored instance maps all its pages privately — no
    /// sharing with a template — so it starts faster than a cold boot but
    /// pays the full memory footprint.
    ///
    /// # Errors
    ///
    /// [`SandboxError::AlreadyExists`] on id reuse; [`SandboxError::Os`] on
    /// memory exhaustion.
    pub fn restore_from_snapshot(
        &self,
        ctx: &mut ProcCtx,
        new_id: &SandboxId,
        config: &SandboxConfig,
    ) -> Result<(), SandboxError> {
        self.boot_cost(config.lang)?; // validates the language
        {
            let st = self.inner.state.lock();
            if st.sandboxes.contains_key(new_id) {
                return Err(SandboxError::AlreadyExists(new_id.clone()));
            }
        }
        self.inner.os.try_reserve_mib(config.memory_mib)?;
        ctx.sleep(self.inner.container.snapshot_restore);
        let cgroup = self.inner.os.create_cgroup(new_id.as_str());
        let pid = self.inner.os.register_process(&format!("{}-restored", config.lang), 1);
        // A restored image is fully private: template sharing does not apply.
        self.inner.os.map_private(
            pid,
            self.inner.memory.cfork_shared_pages + self.inner.memory.cfork_private_pages,
        )?;
        self.inner.os.attach_to_cgroup(pid, cgroup)?;
        let mut st = self.inner.state.lock();
        st.sandboxes.insert(
            new_id.clone(),
            Container {
                state: SandboxState::Running,
                config: config.clone(),
                os_pid: Some(pid),
                cgroup,
                reserved_mib: config.memory_mib,
                is_template: false,
                regions: Vec::new(),
            },
        );
        Ok(())
    }

    /// The OS pid of a sandbox's main process, if it is live.
    pub fn os_pid(&self, id: &SandboxId) -> Option<OsPid> {
        self.inner.state.lock().sandboxes.get(id).and_then(|c| c.os_pid)
    }

    /// RSS of a sandbox's process in bytes.
    pub fn rss_bytes(&self, id: &SandboxId) -> Option<u64> {
        let pid = self.os_pid(id)?;
        self.inner.os.rss_bytes(pid, self.inner.memory.page_bytes)
    }

    /// PSS of a sandbox's process in bytes.
    pub fn pss_bytes(&self, id: &SandboxId) -> Option<f64> {
        let pid = self.os_pid(id)?;
        self.inner.os.pss_bytes(pid, self.inner.memory.page_bytes)
    }

    /// Sum of PSS over every live sandbox (templates included): shared pages
    /// are charged fractionally, so this is the fleet's true resident
    /// footprint — the number the density gate divides by the sandbox count.
    pub fn fleet_pss_bytes(&self) -> f64 {
        let pids: Vec<OsPid> =
            self.inner.state.lock().sandboxes.values().filter_map(|c| c.os_pid).collect();
        pids.iter()
            .filter_map(|&pid| self.inner.os.pss_bytes(pid, self.inner.memory.page_bytes))
            .sum()
    }

    /// OCI extension verb: maps a shared-state region's backing block into a
    /// running sandbox (`map_shared` — refcount + 1). N co-located sandboxes
    /// mapping the same region keep one copy of its pages resident; the
    /// density accounting ([`rss_bytes`](Self::rss_bytes) /
    /// [`pss_bytes`](Self::pss_bytes)) sees it for free. Idempotent per
    /// (sandbox, block).
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] / [`SandboxError::InvalidTransition`] (the
    /// sandbox must be `Running`) / [`SandboxError::Os`].
    pub fn map_region(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        block: BlockId,
    ) -> Result<(), SandboxError> {
        oci::verb_span(ctx, "runc", "map_region", id, |ctx| self.do_map_region(ctx, id, block))
    }

    fn do_map_region(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        block: BlockId,
    ) -> Result<(), SandboxError> {
        ctx.sleep(self.inner.os.costs().syscall);
        let mut st = self.inner.state.lock();
        let c = st.sandboxes.get_mut(id).ok_or_else(|| SandboxError::Unknown(id.clone()))?;
        let pid = match (c.state, c.os_pid) {
            (SandboxState::Running, Some(pid)) => pid,
            _ => {
                return Err(SandboxError::InvalidTransition {
                    id: id.clone(),
                    from: c.state,
                    to: SandboxState::Running,
                })
            }
        };
        if c.regions.contains(&block) {
            return Ok(());
        }
        self.inner.os.map_shared(pid, block)?;
        c.regions.push(block);
        Ok(())
    }

    /// Reconciles runtime state after the PU hosting these containers
    /// crashed: every sandbox that was `Created` or `Running` is marked
    /// [`SandboxState::Stopped`] and its process/memory reservations are
    /// dropped. No verb cost is charged — the containers died with the PU;
    /// this only brings the control plane's book-keeping back in line with
    /// reality. Returns the reconciled sandbox ids, sorted for determinism.
    pub fn reconcile_lost(&self) -> Vec<SandboxId> {
        let mut st = self.inner.state.lock();
        let mut lost: Vec<SandboxId> = Vec::new();
        for (id, c) in &mut st.sandboxes {
            if matches!(c.state, SandboxState::Created | SandboxState::Running) {
                if let Some(pid) = c.os_pid.take() {
                    let _ = self.inner.os.exit_process(pid);
                }
                self.inner.os.release_mib(c.reserved_mib);
                c.reserved_mib = 0;
                c.state = SandboxState::Stopped;
                lost.push(id.clone());
            }
        }
        let os = &self.inner.os;
        st.shared_libs.retain(|_, block| os.block_refs(*block) > 0);
        lost.sort();
        lost
    }
}

impl OciRuntime for RuncRuntime {
    fn state(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<SandboxState, SandboxError> {
        oci::verb_span(ctx, "runc", "state", id, |_ctx| {
            let st = self.inner.state.lock();
            st.sandboxes.get(id).map(|c| c.state).ok_or_else(|| SandboxError::Unknown(id.clone()))
        })
    }

    fn create(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        config: &SandboxConfig,
    ) -> Result<(), SandboxError> {
        oci::verb_span(ctx, "runc", "create", id, |ctx| self.do_create(ctx, id, config))
    }

    fn start(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError> {
        oci::verb_span(ctx, "runc", "start", id, |ctx| self.do_start(ctx, id))
    }

    fn kill(&self, ctx: &mut ProcCtx, id: &SandboxId, signal: Signal) -> Result<(), SandboxError> {
        oci::verb_span(ctx, "runc", "kill", id, |ctx| self.do_kill(ctx, id, signal))
    }

    fn delete(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError> {
        oci::verb_span(ctx, "runc", "delete", id, |ctx| self.do_delete(ctx, id))
    }
}

impl RuncRuntime {
    fn do_create(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        config: &SandboxConfig,
    ) -> Result<(), SandboxError> {
        self.boot_cost(config.lang)?; // validates the language
        if config.fpga_kernel.is_some() {
            return Err(SandboxError::UnsupportedConfig(
                "runc cannot host FPGA kernels".to_owned(),
            ));
        }
        {
            let st = self.inner.state.lock();
            if st.sandboxes.contains_key(id) {
                return Err(SandboxError::AlreadyExists(id.clone()));
            }
        }
        self.inner.os.try_reserve_mib(config.memory_mib)?;
        ctx.sleep(self.inner.container.create);
        let cgroup = self.inner.os.create_cgroup(id.as_str());
        let mut st = self.inner.state.lock();
        st.sandboxes.insert(
            id.clone(),
            Container {
                state: SandboxState::Created,
                config: config.clone(),
                os_pid: None,
                cgroup,
                reserved_mib: config.memory_mib,
                is_template: false,
                regions: Vec::new(),
            },
        );
        Ok(())
    }

    fn do_start(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError> {
        let (lang, cgroup) = {
            let st = self.inner.state.lock();
            let c = st.sandboxes.get(id).ok_or_else(|| SandboxError::Unknown(id.clone()))?;
            if !c.state.can_transition_to(SandboxState::Running) {
                return Err(SandboxError::InvalidTransition {
                    id: id.clone(),
                    from: c.state,
                    to: SandboxState::Running,
                });
            }
            (c.config.lang, c.cgroup)
        };
        // Cold boot: start the language runtime inside the container.
        ctx.sleep(self.boot_cost(lang)?);
        let pid = self.inner.os.register_process(&format!("{lang}-{id}"), 1);
        self.inner.os.map_private(pid, self.inner.memory.baseline_private_pages)?;
        // Shared, file-backed libraries: one block per language, mapped into
        // every baseline instance.
        let lib_block = {
            let st = self.inner.state.lock();
            st.shared_libs.get(&lang).copied()
        };
        match lib_block {
            Some(b) => self.inner.os.map_shared(pid, b)?,
            None => {
                let b =
                    self.inner.os.map_private(pid, self.inner.memory.baseline_shared_lib_pages)?;
                self.inner.state.lock().shared_libs.insert(lang, b);
            }
        }
        self.inner.os.attach_to_cgroup(pid, cgroup)?;
        let mut st = self.inner.state.lock();
        let c = st.sandboxes.get_mut(id).expect("checked above");
        c.os_pid = Some(pid);
        c.state = SandboxState::Running;
        Ok(())
    }

    fn do_kill(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        _signal: Signal,
    ) -> Result<(), SandboxError> {
        ctx.sleep(self.inner.os.costs().syscall);
        let mut st = self.inner.state.lock();
        let c = st.sandboxes.get_mut(id).ok_or_else(|| SandboxError::Unknown(id.clone()))?;
        if !c.state.can_transition_to(SandboxState::Stopped) {
            return Err(SandboxError::InvalidTransition {
                id: id.clone(),
                from: c.state,
                to: SandboxState::Stopped,
            });
        }
        c.state = SandboxState::Stopped;
        Ok(())
    }

    fn do_delete(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError> {
        ctx.sleep(self.inner.container.delete);
        let mut st = self.inner.state.lock();
        let c = st.sandboxes.get_mut(id).ok_or_else(|| SandboxError::Unknown(id.clone()))?;
        if c.state == SandboxState::Deleted {
            return Err(SandboxError::InvalidTransition {
                id: id.clone(),
                from: c.state,
                to: SandboxState::Deleted,
            });
        }
        if let Some(pid) = c.os_pid.take() {
            self.inner.os.exit_process(pid)?;
        }
        self.inner.os.release_mib(c.reserved_mib);
        c.reserved_mib = 0;
        c.state = SandboxState::Deleted;
        st.template_blocks.remove(id);
        // If the last instance of a language just exited, its shared
        // library block was freed — forget it so the next boot re-creates
        // it instead of sharing a dangling id.
        let os = &self.inner.os;
        st.shared_libs.retain(|_, block| os.block_refs(*block) > 0);
        Ok(())
    }
}

impl VectorizedRuntime for RuncRuntime {}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::engine::Simulation;
    use hetsim::os::CpusetLockMode;
    use hetsim::pu::{PuId, PuSpec};
    use hetsim::time::SimDuration;

    fn desktop_runtime() -> RuncRuntime {
        let calib = Calibration::desktop();
        let spec = PuSpec::xeon_host(PuId(0));
        let os = LocalOs::boot(&spec, calib.cpu_os, 64 * 1024);
        RuncRuntime::new(os, &calib)
    }

    fn cfg() -> SandboxConfig {
        SandboxConfig::general("image-resize", LangRuntime::Python, 128)
    }

    #[test]
    fn baseline_cold_boot_matches_fig11a() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        let h = sim.spawn("boot", move |ctx| {
            let id = SandboxId::new("sb");
            let t0 = ctx.now();
            rt2.create(ctx, &id, &cfg()).unwrap();
            rt2.start(ctx, &id).unwrap();
            (ctx.now() - t0).as_millis_f64()
        });
        sim.run().unwrap();
        let ms = h.take_result().unwrap();
        assert!((85.0..=86.0).contains(&ms), "baseline cold boot {ms}ms != 85.55");
    }

    #[test]
    fn cfork_ladder_reproduces_fig11a() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        let h = sim.spawn("ladder", move |ctx| {
            let template = rt2.prepare_template(ctx, LangRuntime::Python, 256).unwrap();
            rt2.preinit_function_containers(ctx, 2);
            let mut out = Vec::new();

            // Naive cfork: container created on the critical path, stock
            // kernel (semaphore cpuset locks).
            let t0 = ctx.now();
            rt2.cfork(ctx, &template, &"naive".into(), &cfg(), CforkOpts::default()).unwrap();
            out.push((ctx.now() - t0).as_millis_f64());

            // +FuncContainer: settle into a pre-initialized container.
            let t0 = ctx.now();
            rt2.cfork(
                ctx,
                &template,
                &"preinit".into(),
                &cfg(),
                CforkOpts { use_preinit_container: true, ..CforkOpts::default() },
            )
            .unwrap();
            out.push((ctx.now() - t0).as_millis_f64());

            // +Cpuset opt: the paper's kernel patch.
            rt2.os().set_cpuset_lock_mode(CpusetLockMode::Mutex);
            let t0 = ctx.now();
            rt2.cfork(
                ctx,
                &template,
                &"patched".into(),
                &cfg(),
                CforkOpts { use_preinit_container: true, ..CforkOpts::default() },
            )
            .unwrap();
            out.push((ctx.now() - t0).as_millis_f64());
            out
        });
        sim.run().unwrap();
        let ladder = h.take_result().unwrap();
        // Fig. 11a: 47.25 / 30.05 / 8.40 ms (the model adds a few µs of
        // merge/expand syscalls).
        assert!((47.0..=47.6).contains(&ladder[0]), "naive {}", ladder[0]);
        assert!((29.9..=30.4).contains(&ladder[1]), "func-container {}", ladder[1]);
        assert!((8.3..=8.7).contains(&ladder[2]), "cpuset-opt {}", ladder[2]);
    }

    #[test]
    fn cfork_child_shares_template_memory() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        let h = sim.spawn("mem", move |ctx| {
            let template = rt2.prepare_template(ctx, LangRuntime::Python, 256).unwrap();
            rt2.cfork(ctx, &template, &"child".into(), &cfg(), CforkOpts::default()).unwrap();
            (rt2.rss_bytes(&"child".into()).unwrap(), rt2.pss_bytes(&"child".into()).unwrap())
        });
        sim.run().unwrap();
        let (rss, pss) = h.take_result().unwrap();
        let page = 4096;
        // template 1500 shared + 1750 private pages.
        assert_eq!(rss, 3250 * page);
        assert_eq!(pss, (1750.0 + 1500.0 / 2.0) * page as f64);
    }

    #[test]
    fn dense_cfork_keeps_private_working_set_small() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        let h = sim.spawn("dense", move |ctx| {
            let template = rt2.prepare_template(ctx, LangRuntime::Python, 256).unwrap();
            for i in 0..8 {
                rt2.cfork(
                    ctx,
                    &template,
                    &format!("d{i}").as_str().into(),
                    &cfg(),
                    CforkOpts { dense: true, ..CforkOpts::default() },
                )
                .unwrap();
            }
            (
                rt2.rss_bytes(&"d0".into()).unwrap(),
                rt2.pss_bytes(&"d0".into()).unwrap(),
                rt2.fleet_pss_bytes(),
            )
        });
        sim.run().unwrap();
        let (rss, pss, fleet_pss) = h.take_result().unwrap();
        let page = 4096u64;
        // Dense child: 1500 template pages COW-shared + 512 private.
        assert_eq!(rss, (1500 + 512) * page);
        // Template shared 9 ways (template itself + 8 children).
        assert_eq!(pss, (512.0 + 1500.0 / 9.0) * page as f64);
        // Fleet PSS charges the shared template once: 1500 + 8 * 512.
        let expected_fleet_pss = (1500 + 8 * 512) as f64 * page as f64;
        assert!(
            (fleet_pss - expected_fleet_pss).abs() < 1.0,
            "fleet PSS {fleet_pss} != {expected_fleet_pss}"
        );
    }

    #[test]
    fn cfork_requires_a_template() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let h = sim.spawn("bad", move |ctx| {
            let id = SandboxId::new("plain");
            rt.create(ctx, &id, &cfg()).unwrap();
            rt.start(ctx, &id).unwrap();
            rt.cfork(ctx, &id, &"child".into(), &cfg(), CforkOpts::default()).unwrap_err()
        });
        sim.run().unwrap();
        assert!(matches!(h.take_result().unwrap(), SandboxError::UnsupportedConfig(_)));
    }

    #[test]
    fn lifecycle_transitions_are_enforced() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let h = sim.spawn("life", move |ctx| {
            let id = SandboxId::new("sb");
            let unknown = rt.state(ctx, &id).unwrap_err();
            rt.create(ctx, &id, &cfg()).unwrap();
            assert_eq!(rt.state(ctx, &id).unwrap(), SandboxState::Created);
            let dup = rt.create(ctx, &id, &cfg()).unwrap_err();
            rt.start(ctx, &id).unwrap();
            assert_eq!(rt.state(ctx, &id).unwrap(), SandboxState::Running);
            let double_start = rt.start(ctx, &id).unwrap_err();
            rt.kill(ctx, &id, Signal::Term).unwrap();
            assert_eq!(rt.state(ctx, &id).unwrap(), SandboxState::Stopped);
            rt.delete(ctx, &id).unwrap();
            assert_eq!(rt.state(ctx, &id).unwrap(), SandboxState::Deleted);
            let double_delete = rt.delete(ctx, &id).unwrap_err();
            (unknown, dup, double_start, double_delete)
        });
        sim.run().unwrap();
        let (unknown, dup, double_start, double_delete) = h.take_result().unwrap();
        assert!(matches!(unknown, SandboxError::Unknown(_)));
        assert!(matches!(dup, SandboxError::AlreadyExists(_)));
        assert!(matches!(double_start, SandboxError::InvalidTransition { .. }));
        assert!(matches!(double_delete, SandboxError::InvalidTransition { .. }));
    }

    #[test]
    fn delete_releases_memory_reservation() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        sim.spawn("res", move |ctx| {
            let id = SandboxId::new("sb");
            rt2.create(ctx, &id, &cfg()).unwrap();
            assert_eq!(rt2.os().reserved_mib(), 128);
            rt2.delete(ctx, &id).unwrap();
            assert_eq!(rt2.os().reserved_mib(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn baseline_instances_share_library_pages() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        let h = sim.spawn("libs", move |ctx| {
            for i in 0..4 {
                let id = SandboxId::new(format!("sb{i}"));
                rt2.create(ctx, &id, &cfg()).unwrap();
                rt2.start(ctx, &id).unwrap();
            }
            rt2.pss_bytes(&"sb0".into()).unwrap()
        });
        sim.run().unwrap();
        let pss = h.take_result().unwrap();
        let page = 4096.0;
        // 2750 private + 500 libs shared 4 ways.
        assert_eq!(pss, (2750.0 + 500.0 / 4.0) * page);
    }

    #[test]
    fn runc_rejects_accelerator_configs() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let h = sim.spawn("rej", move |ctx| {
            let bad = SandboxConfig::general("gpu-fn", LangRuntime::Cuda, 64);
            rt.create(ctx, &"x".into(), &bad).unwrap_err()
        });
        sim.run().unwrap();
        assert!(matches!(h.take_result().unwrap(), SandboxError::UnsupportedConfig(_)));
    }

    #[test]
    fn snapshot_capture_then_restore_roundtrips() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let h = sim.spawn("snap", move |ctx| {
            let id = SandboxId::new("orig");
            rt.create(ctx, &id, &cfg()).unwrap();
            // Capture requires a running sandbox.
            let premature = rt.capture_snapshot(ctx, &id).unwrap_err();
            rt.start(ctx, &id).unwrap();
            let capture_cost = rt.capture_snapshot(ctx, &id).unwrap();
            let t0 = ctx.now();
            rt.restore_from_snapshot(ctx, &"restored".into(), &cfg()).unwrap();
            let restore_latency = ctx.now() - t0;
            let state = rt.state(ctx, &"restored".into()).unwrap();
            (premature, capture_cost, restore_latency, state)
        });
        sim.run().unwrap();
        let (premature, capture_cost, restore_latency, state) = h.take_result().unwrap();
        assert!(matches!(premature, SandboxError::InvalidTransition { .. }));
        assert_eq!(capture_cost, SimDuration::from_millis(80)); // desktop preset
        assert_eq!(restore_latency, SimDuration::from_millis(40));
        assert_eq!(state, SandboxState::Running);
    }

    #[test]
    fn restored_instances_share_no_pages() {
        // The memory contrast of the startup ablation: restore maps the
        // whole image privately, cfork shares the template.
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let rt2 = rt.clone();
        sim.spawn("mem", move |ctx| {
            rt2.restore_from_snapshot(ctx, &"restored".into(), &cfg()).unwrap();
        });
        sim.run().unwrap();
        let rss = rt.rss_bytes(&"restored".into()).unwrap();
        let pss = rt.pss_bytes(&"restored".into()).unwrap();
        assert_eq!(rss as f64, pss, "fully private mapping: PSS == RSS");
        assert_eq!(rss, 3250 * 4096); // shared + private page budget, all private
    }

    #[test]
    fn vectorized_adapter_loops_the_scalar_verbs() {
        let rt = desktop_runtime();
        let mut sim = Simulation::new();
        let h = sim.spawn("vec", move |ctx| {
            let entries: Vec<(SandboxId, SandboxConfig)> =
                (0..3).map(|i| (SandboxId::new(format!("v{i}")), cfg())).collect();
            let t0 = ctx.now();
            rt.create_vec(ctx, &entries).unwrap();
            let elapsed = ctx.now() - t0;
            let ids: Vec<SandboxId> = entries.iter().map(|(id, _)| id.clone()).collect();
            let states = rt.state_vec(ctx, &ids).unwrap();
            (elapsed, states)
        });
        sim.run().unwrap();
        let (elapsed, states) = h.take_result().unwrap();
        // runc vectorization is just a loop: 3x the scalar create cost.
        assert_eq!(elapsed, SimDuration::from_millis_f64(17.2) * 3);
        assert_eq!(states, vec![SandboxState::Created; 3]);
    }
}
