//! The API gateway / global manager (paper Fig. 6).
//!
//! [`ApiGateway`] is the request-facing layer above [`Molecule`]: it places
//! incoming requests (profile selection), serves them from the warm pool
//! when possible, auto-scales by cold-starting new instances on misses, and
//! reaps idle instances under a keep-alive policy. It is the piece that
//! turns the runtime's mechanisms into the serverless behaviours the paper
//! promises (auto-scaling, §1; keep-alive, §5).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use hetsim::engine::ProcCtx;
use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use vsandbox::spec::{FuncId, LangRuntime};

use crate::error::MoleculeError;
use crate::function::FunctionDef;
use crate::keepalive::KeepAlivePolicy;
use crate::regions::RegionDirectory;
use crate::runtime::{InstanceId, Molecule, StartupKind};
use crate::schedule::Scheduler;

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Maximum warm instances kept per (function, PU).
    pub max_warm_per_function: usize,
    /// Startup path used to scale up (the ablation knob: Molecule uses
    /// cfork, Molecule-homo uses the cold baseline, Catalyzer-style systems
    /// use snapshots).
    pub scale_up: StartupKind,
    /// Instances an idle reap keeps alive in total.
    pub keepalive_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_warm_per_function: 4,
            scale_up: StartupKind::CforkLocal,
            keepalive_capacity: 64,
        }
    }
}

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestReport {
    /// End-to-end latency (queue + startup if cold + execution).
    pub latency: SimDuration,
    /// Whether a cold start was needed.
    pub cold_start: bool,
    /// The PU that served the request.
    pub pu: PuId,
    /// The serving instance.
    pub instance: InstanceId,
}

/// Counters the gateway keeps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests served from a warm instance.
    pub warm_hits: u64,
    /// Requests that required a cold start.
    pub cold_starts: u64,
    /// Instances retired by keep-alive reaping.
    pub reaped: u64,
    /// Requests re-routed away from a dead or circuit-open PU.
    pub failed_over: u64,
    /// Requests served on a non-preferred PU kind because every PU of the
    /// function's preferred kind was unavailable (e.g. a DPU function run
    /// on the CPU cost table).
    pub degraded: u64,
}

struct GatewayState {
    /// Idle warm instances per (function, PU).
    idle: HashMap<(FuncId, PuId), Vec<InstanceId>>,
    /// Every live instance the gateway created, with its function.
    owned: HashMap<InstanceId, (FuncId, PuId)>,
    /// Per-PU ownership index: the dead-PU purge reads the crashed PU's own
    /// instance set instead of scanning every live instance. At 10k+
    /// sandboxes per PU the full `owned` scan was the purge bottleneck.
    owned_by_pu: HashMap<PuId, HashSet<InstanceId>>,
    /// Live-instance count per function: "does this function still have a
    /// survivor anywhere?" is one lookup, not a scan of `owned`.
    live_funcs: HashMap<FuncId, usize>,
    /// Functions with an idle pool entry per PU — the purge's idle-pool
    /// sweep, again O(pools on the dead PU).
    idle_by_pu: HashMap<PuId, HashSet<FuncId>>,
    /// PUs requests must not be routed to (crashed or circuit-open), kept
    /// sorted for deterministic placement.
    avoid: std::collections::BTreeSet<PuId>,
    policy: Box<dyn KeepAlivePolicy>,
    stats: GatewayStats,
}

impl GatewayState {
    /// Every ownership mutation goes through `own`/`disown` so the per-PU
    /// and per-function indices can never drift from `owned`.
    fn own(&mut self, instance: InstanceId, func: &FuncId, pu: PuId) {
        self.owned.insert(instance, (func.clone(), pu));
        self.owned_by_pu.entry(pu).or_default().insert(instance);
        *self.live_funcs.entry(func.clone()).or_insert(0) += 1;
    }

    fn disown(&mut self, instance: InstanceId) -> Option<(FuncId, PuId)> {
        let (func, pu) = self.owned.remove(&instance)?;
        if let Some(set) = self.owned_by_pu.get_mut(&pu) {
            set.remove(&instance);
            if set.is_empty() {
                self.owned_by_pu.remove(&pu);
            }
        }
        if let Some(n) = self.live_funcs.get_mut(&func) {
            *n -= 1;
            if *n == 0 {
                self.live_funcs.remove(&func);
            }
        }
        Some((func, pu))
    }

    /// The idle pool for `(func, pu)`, creating (and indexing) it on demand.
    fn pool_entry(&mut self, func: &FuncId, pu: PuId) -> &mut Vec<InstanceId> {
        self.idle_by_pu.entry(pu).or_default().insert(func.clone());
        self.idle.entry((func.clone(), pu)).or_default()
    }

    /// Removes an idle pool key and its reverse-index entry.
    fn drop_pool(&mut self, func: &FuncId, pu: PuId) {
        self.idle.remove(&(func.clone(), pu));
        if let Some(funcs) = self.idle_by_pu.get_mut(&pu) {
            funcs.remove(func);
            if funcs.is_empty() {
                self.idle_by_pu.remove(&pu);
            }
        }
    }
}

/// The request-facing gateway over one Molecule deployment. Cheap to clone.
#[derive(Clone)]
pub struct ApiGateway {
    molecule: Molecule,
    scheduler: Scheduler,
    config: GatewayConfig,
    regions: RegionDirectory,
    state: Arc<Mutex<GatewayState>>,
}

impl fmt::Debug for ApiGateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("ApiGateway")
            .field("live_instances", &st.owned.len())
            .field("stats", &st.stats)
            .finish()
    }
}

impl ApiGateway {
    /// Creates a gateway over `molecule` with a keep-alive `policy`.
    pub fn new(
        molecule: Molecule,
        scheduler: Scheduler,
        config: GatewayConfig,
        policy: Box<dyn KeepAlivePolicy>,
    ) -> ApiGateway {
        ApiGateway {
            molecule,
            scheduler,
            config,
            regions: RegionDirectory::new(),
            state: Arc::new(Mutex::new(GatewayState {
                idle: HashMap::new(),
                owned: HashMap::new(),
                owned_by_pu: HashMap::new(),
                live_funcs: HashMap::new(),
                idle_by_pu: HashMap::new(),
                avoid: std::collections::BTreeSet::new(),
                policy,
                stats: GatewayStats::default(),
            })),
        }
    }

    /// The underlying runtime.
    pub fn molecule(&self) -> &Molecule {
        &self.molecule
    }

    /// Gateway counters.
    pub fn stats(&self) -> GatewayStats {
        self.state.lock().stats
    }

    /// The directory of shared-state region hosts. `molecule-sched` keeps
    /// it current from the state layer's host observer and reads it for the
    /// state-locality placement term.
    pub fn region_directory(&self) -> &RegionDirectory {
        &self.regions
    }

    /// Live instances the gateway manages.
    pub fn live_instances(&self) -> usize {
        self.state.lock().owned.len()
    }

    /// Excludes a PU from placement and warm-pool reuse (crashed, or its
    /// circuit breaker opened). Idempotent.
    pub fn mark_pu_unschedulable(&self, pu: PuId) {
        self.state.lock().avoid.insert(pu);
    }

    /// Re-admits a PU for placement (its circuit breaker closed again).
    pub fn mark_pu_schedulable(&self, pu: PuId) {
        self.state.lock().avoid.remove(&pu);
    }

    /// The PUs currently excluded from placement, sorted.
    pub fn avoided_pus(&self) -> Vec<PuId> {
        self.state.lock().avoid.iter().copied().collect()
    }

    /// Purges every gateway record of a crashed PU: idle warm instances and
    /// ownership entries on `pu` are dropped (their sandboxes died with the
    /// PU — nothing to retire), the PU is marked unschedulable, and
    /// functions left with no live instance anywhere are evicted from the
    /// keep-alive policy so dead-PU entries cannot linger in the keep set.
    /// Returns the number of instances purged.
    pub fn purge_pu(&self, pu: PuId) -> usize {
        // Region hosting records die with the PU: retract them so the
        // state-locality term stops steering placements there.
        self.regions.retract_pu(pu);
        let mut st = self.state.lock();
        st.avoid.insert(pu);
        // Idle pools on the dead PU via the reverse index — O(pools there),
        // not a retain over every (function, PU) pool in the gateway.
        if let Some(funcs) = st.idle_by_pu.remove(&pu) {
            for func in funcs {
                st.idle.remove(&(func, pu));
            }
        }
        let mut purged: Vec<InstanceId> =
            st.owned_by_pu.get(&pu).map(|s| s.iter().copied().collect()).unwrap_or_default();
        purged.sort();
        let mut seen: HashSet<FuncId> = HashSet::new();
        let mut dead_funcs: Vec<FuncId> = Vec::new();
        for id in &purged {
            if let Some((func, _)) = st.disown(*id) {
                if seen.insert(func.clone()) {
                    dead_funcs.push(func);
                }
            }
        }
        // Keep-alive eviction: only forget functions with no survivors —
        // one live-count lookup each, not a scan of every owned instance.
        dead_funcs.retain(|f| !st.live_funcs.contains_key(f));
        dead_funcs.sort();
        st.policy.forget_many(&dead_funcs);
        telemetry::with(|r| {
            r.metrics().counter_add("gateway.purged_instances", purged.len() as u64);
        });
        purged.len()
    }

    /// Handles one request for `func` carrying `input_bytes`.
    ///
    /// A warm idle instance is reused when available; otherwise the gateway
    /// places the function, cold-starts an instance via the configured
    /// scale-up path, and serves the request on it. The instance returns to
    /// the idle pool afterwards (bounded per function).
    ///
    /// # Errors
    ///
    /// Placement or startup failures from the runtime.
    pub fn handle_request(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
    ) -> Result<RequestReport, MoleculeError> {
        // Admission span: opened before the body so every downstream span
        // (startup, sandbox verbs, nIPC writes) becomes a child through the
        // ambient trace context; ended on every return path below.
        let prev = ctx.trace_ctx();
        let mut req_span = None;
        telemetry::with(|r| {
            req_span = Some(r.begin_span(
                ctx.lane(),
                ctx.now().as_nanos(),
                &format!("gateway:request {func}"),
                prev,
            ));
        });
        if req_span.is_some() {
            ctx.set_trace_ctx(req_span);
        }
        let out = self.do_handle_request(ctx, func, input_bytes);
        telemetry::with(|r| {
            if let Some(span) = req_span {
                r.end_span(ctx.lane(), ctx.now().as_nanos(), span);
            }
            match &out {
                Ok(rep) => {
                    let kind = if rep.cold_start { "cold" } else { "warm" };
                    r.metrics().counter_add(&format!("gateway.requests.{kind}"), 1);
                    r.metrics().observe_ns("gateway.request_ns", rep.latency.as_nanos());
                }
                Err(_) => r.metrics().counter_add("gateway.requests.err", 1),
            }
        });
        ctx.set_trace_ctx(prev);
        out
    }

    fn do_handle_request(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
    ) -> Result<RequestReport, MoleculeError> {
        match self.try_serve(ctx, func, input_bytes) {
            Err(e) => {
                // Failover: the chosen PU turned out to be dead or
                // unresponsive mid-request. Quarantine it and re-route the
                // request to a survivor — the request is not lost.
                let Some(bad) = Self::failed_pu(&e) else { return Err(e) };
                self.mark_pu_unschedulable(bad);
                self.state.lock().stats.failed_over += 1;
                telemetry::with(|r| {
                    r.metrics().counter_add("gateway.failovers", 1);
                    r.instant(
                        ctx.lane(),
                        ctx.now().as_nanos(),
                        &format!("gateway:failover {func} away from pu{}", bad.0),
                        ctx.trace_ctx(),
                    );
                });
                self.try_serve(ctx, func, input_bytes)
            }
            ok => ok,
        }
    }

    /// The PU a fault-shaped error points at, if the error is one a
    /// failover can address. Public so schedulers layered above the gateway
    /// (e.g. `molecule-sched`) can drive their own failover/drain logic off
    /// the same classification.
    pub fn failed_pu(e: &MoleculeError) -> Option<PuId> {
        use xpu_shim::error::ShimError;
        match e {
            MoleculeError::PuUnavailable(pu)
            | MoleculeError::Shim(ShimError::PeerDead(pu) | ShimError::XcallTimeout(pu)) => {
                Some(*pu)
            }
            _ => None,
        }
    }

    /// Picks the PU for one request and serves it there: the first warm
    /// pool in profile order (never on a quarantined PU), or else a
    /// placement on a surviving PU, where the serve body scales up.
    fn try_serve(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
    ) -> Result<RequestReport, MoleculeError> {
        let def = self.function(func)?;
        let warm = {
            let st = self.state.lock();
            let machine = self.molecule.machine();
            def.profiles.iter().flat_map(|kind| machine.pus_of_kind(*kind)).find(|pu| {
                !st.avoid.contains(pu)
                    && st.idle.get(&(func.clone(), *pu)).is_some_and(|pool| !pool.is_empty())
            })
        };
        let pu = match warm {
            Some(pu) => pu,
            None => {
                let avoid: Vec<PuId> = self.avoided_pus();
                let pu = self.scheduler.place(self.molecule.machine(), &def, &avoid)?;
                self.note_degradation(ctx, &def, pu, &avoid);
                pu
            }
        };
        self.serve_on(ctx, &def, pu, input_bytes)
    }

    /// Serves one request pinned to `pu`: warm pool on `(func, pu)` first,
    /// otherwise a cold start *on that PU* — no internal placement and no
    /// failover. This is the dispatch primitive for external schedulers
    /// (`molecule-sched`'s per-PU run-queue workers) that have already
    /// made the placement decision; errors surface unhandled so the caller
    /// can drain and re-place.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::PuUnavailable`] when `pu` is quarantined, plus any
    /// startup or invoke failure from the runtime.
    pub fn handle_request_on(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        pu: PuId,
        input_bytes: u64,
    ) -> Result<RequestReport, MoleculeError> {
        let def = self.function(func)?;
        let report = self.serve_on(ctx, &def, pu, input_bytes)?;
        let kind = if report.cold_start { "cold" } else { "warm" };
        telemetry::with(|r| r.metrics().counter_add(&format!("gateway.requests.{kind}"), 1));
        Ok(report)
    }

    /// The registered definition of `func`.
    fn function(&self, func: &FuncId) -> Result<FunctionDef, MoleculeError> {
        self.molecule
            .registry()
            .get(func)
            .ok_or_else(|| MoleculeError::UnknownFunction(func.clone()))
    }

    /// The serve body both entry points share: pops a warm instance of the
    /// function on `pu` or cold-starts one there, invokes it, and returns it
    /// to the pool.
    fn serve_on(
        &self,
        ctx: &mut ProcCtx,
        def: &FunctionDef,
        pu: PuId,
        input_bytes: u64,
    ) -> Result<RequestReport, MoleculeError> {
        let t0 = ctx.now();
        let func = &def.id;
        let warm = {
            let mut st = self.state.lock();
            if st.avoid.contains(&pu) {
                return Err(MoleculeError::PuUnavailable(pu));
            }
            st.idle.get_mut(&(func.clone(), pu)).and_then(Vec::pop)
        };
        let (instance, cold) = match warm {
            Some(inst) => (inst, false),
            None => {
                let how = self.effective_startup();
                let started = self.molecule.start_instance(ctx, func, pu, how)?;
                self.state.lock().own(started.instance, func, pu);
                (started.instance, true)
            }
        };
        let report = self.molecule.invoke(ctx, instance, input_bytes)?;
        self.return_to_pool(ctx, def, pu, instance, cold, report.latency)?;
        Ok(RequestReport { latency: ctx.now() - t0, cold_start: cold, pu, instance })
    }

    /// Books a finished request: stats, keep-alive accounting, and the
    /// instance's return to the idle pool (bounded; overflow retires it).
    fn return_to_pool(
        &self,
        ctx: &mut ProcCtx,
        def: &FunctionDef,
        pu: PuId,
        instance: InstanceId,
        cold: bool,
        exec_latency: SimDuration,
    ) -> Result<(), MoleculeError> {
        let now = ctx.now();
        let func = &def.id;
        let mut st = self.state.lock();
        if cold {
            st.stats.cold_starts += 1;
        } else {
            st.stats.warm_hits += 1;
        }
        st.policy.on_invoke(func, now, exec_latency, def.memory_mib as f64 / 128.0);
        let pool = st.pool_entry(func, pu);
        if pool.len() < self.config.max_warm_per_function {
            pool.push(instance);
        } else {
            st.disown(instance);
            drop(st);
            self.molecule.retire_instance(ctx, instance)?;
        }
        Ok(())
    }

    /// Idle warm instances of `func` currently pooled on `pu`.
    pub fn warm_idle_count(&self, func: &FuncId, pu: PuId) -> usize {
        self.state.lock().idle.get(&(func.clone(), pu)).map_or(0, Vec::len)
    }

    /// Tells the keep-alive policy a request for `func` was shed by an
    /// admission controller: shed load is still demand, so policies should
    /// not let the function's keep-alive window lapse just because the
    /// request never executed.
    pub fn note_shed(&self, func: &FuncId, now: SimTime) {
        self.state.lock().policy.on_shed(func, now);
    }

    /// Records a service degradation: the request landed on a PU whose kind
    /// differs from the function's preferred profile because every PU of the
    /// preferred kind is quarantined — e.g. a DPU/FPGA function now billed
    /// on the CPU cost table.
    fn note_degradation(&self, ctx: &mut ProcCtx, def: &FunctionDef, placed: PuId, avoid: &[PuId]) {
        let Some(preferred) = def.profiles.first().copied() else { return };
        let machine = self.molecule.machine();
        let Some(spec) = machine.pu(placed) else { return };
        if spec.kind == preferred {
            return;
        }
        let preferred_all_down = machine.pus_of_kind(preferred).iter().all(|pu| avoid.contains(pu));
        if !preferred_all_down {
            return;
        }
        self.state.lock().stats.degraded += 1;
        telemetry::with(|r| {
            r.metrics().counter_add("gateway.degraded", 1);
            r.instant(
                ctx.lane(),
                ctx.now().as_nanos(),
                &format!("gateway:degraded {} {preferred}->{}", def.id, spec.kind),
                ctx.trace_ctx(),
            );
        });
    }

    /// The startup path for a scale-up: the configured kind, with a
    /// cross-PU fork pinned to the target PU's local template.
    fn effective_startup(&self) -> StartupKind {
        match self.config.scale_up {
            StartupKind::CforkXpu { .. } => StartupKind::CforkLocal,
            other => other,
        }
    }

    /// Retires idle instances the keep-alive policy no longer wants.
    ///
    /// # Errors
    ///
    /// Teardown failures from the runtime.
    pub fn reap_idle(&self, ctx: &mut ProcCtx) -> Result<usize, MoleculeError> {
        let now = ctx.now();
        let to_retire = {
            let mut st = self.state.lock();
            // HashSet membership: one O(1) probe per idle pool instead of a
            // linear scan of the keep set for each.
            let keep: std::collections::HashSet<FuncId> =
                st.policy.keep_set(now, self.config.keepalive_capacity).into_iter().collect();
            let mut to_retire = Vec::new();
            for ((func, _pu), pool) in st.idle.iter_mut() {
                if !keep.contains(func) {
                    to_retire.append(pool);
                }
            }
            // HashMap iteration order is arbitrary; retire deterministically.
            to_retire.sort();
            let mut emptied: Vec<(FuncId, PuId)> = Vec::new();
            st.idle.retain(|key, pool| {
                if pool.is_empty() {
                    emptied.push(key.clone());
                }
                !pool.is_empty()
            });
            for (func, pu) in emptied {
                st.drop_pool(&func, pu);
            }
            for inst in &to_retire {
                st.disown(*inst);
            }
            st.stats.reaped += to_retire.len() as u64;
            to_retire
        };
        let count = to_retire.len();
        for inst in to_retire {
            self.molecule.retire_instance(ctx, inst)?;
        }
        telemetry::with(|r| r.metrics().counter_add("gateway.reaped", count as u64));
        Ok(count)
    }

    /// Pre-boots templates for every (general-purpose PU, language) pair the
    /// registered functions need.
    ///
    /// # Errors
    ///
    /// Template boot failures.
    pub fn prepare_all_templates(&self, ctx: &mut ProcCtx) -> Result<(), MoleculeError> {
        let mut langs: Vec<LangRuntime> = Vec::new();
        for id in self.molecule.registry().ids() {
            if let Some(def) = self.molecule.registry().get(&id) {
                if matches!(def.lang, LangRuntime::Python | LangRuntime::NodeJs)
                    && !langs.contains(&def.lang)
                {
                    langs.push(def.lang);
                }
            }
        }
        for pu in self.molecule.machine().pus() {
            if pu.kind.is_general_purpose() {
                for lang in &langs {
                    self.molecule.prepare_template(ctx, pu.id, *lang)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::{FixedWindow, Lru};
    use crate::runtime::MoleculeConfig;
    use hetsim::engine::Simulation;
    use hetsim::pu::PuKind;
    use hetsim::topology::Machine;

    fn gateway(scale_up: StartupKind) -> ApiGateway {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(
            FunctionDef::builder("img", LangRuntime::Python)
                .profiles(&[PuKind::Cpu, PuKind::Dpu])
                .exec_ms(10.0)
                .init_ms(6.0)
                .cfork_first_run_ms(1.0)
                .build(),
        );
        ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig { scale_up, ..GatewayConfig::default() },
            Box::new(Lru::new()),
        )
    }

    #[test]
    fn first_request_is_cold_second_is_warm() {
        let gw = gateway(StartupKind::CforkLocal);
        let mut sim = Simulation::new();
        let g = gw.clone();
        let out = sim.spawn("gw", move |ctx| {
            g.molecule().bootstrap(ctx).unwrap();
            g.prepare_all_templates(ctx).unwrap();
            let first = g.handle_request(ctx, &"img".into(), 1024).unwrap();
            let second = g.handle_request(ctx, &"img".into(), 1024).unwrap();
            (first, second)
        });
        sim.run().unwrap();
        let (first, second) = out.take_result().unwrap();
        assert!(first.cold_start);
        assert!(!second.cold_start);
        assert!(first.latency > second.latency);
        assert_eq!(first.instance, second.instance, "warm pool reuses the instance");
        let stats = gw.stats();
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_hits, 1);
    }

    #[test]
    fn cfork_scale_up_beats_cold_and_snapshot_sits_between() {
        // The startup ablation (Fig. 15 design space): cold > snapshot >
        // cfork for the first-request latency.
        let mut results = Vec::new();
        for how in [StartupKind::ColdBaseline, StartupKind::Snapshot, StartupKind::CforkLocal] {
            let gw = gateway(how);
            let mut sim = Simulation::new();
            let g = gw.clone();
            let out = sim.spawn("gw", move |ctx| {
                g.molecule().bootstrap(ctx).unwrap();
                g.prepare_all_templates(ctx).unwrap();
                g.handle_request(ctx, &"img".into(), 1024).unwrap().latency
            });
            sim.run().unwrap();
            results.push(out.take_result().unwrap());
        }
        let (cold, snapshot, cfork) = (results[0], results[1], results[2]);
        assert!(cold > snapshot, "cold {cold} must exceed snapshot {snapshot}");
        assert!(snapshot > cfork, "snapshot {snapshot} must exceed cfork {cfork}");
    }

    #[test]
    fn pool_overflow_retires_excess_instances() {
        let gw = gateway(StartupKind::CforkLocal);
        let mut sim = Simulation::new();
        let g = gw.clone();
        sim.spawn("gw", move |ctx| {
            g.molecule().bootstrap(ctx).unwrap();
            g.prepare_all_templates(ctx).unwrap();
            // Burst of sequential requests: the pool caps at 4 per function.
            for _ in 0..8 {
                g.handle_request(ctx, &"img".into(), 64).unwrap();
            }
        });
        sim.run().unwrap();
        // Sequential requests reuse one instance: 1 cold, 7 warm.
        let stats = gw.stats();
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_hits, 7);
        assert_eq!(gw.live_instances(), 1);
    }

    #[test]
    fn reaping_evicts_expired_functions() {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(
            FunctionDef::builder("img", LangRuntime::Python).exec_ms(1.0).build(),
        );
        let gw = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(FixedWindow::new(SimDuration::from_millis(50))),
        );
        let mut sim = Simulation::new();
        let g = gw.clone();
        let out = sim.spawn("gw", move |ctx| {
            g.molecule().bootstrap(ctx).unwrap();
            g.prepare_all_templates(ctx).unwrap();
            g.handle_request(ctx, &"img".into(), 64).unwrap();
            let before = g.live_instances();
            ctx.sleep(SimDuration::from_millis(200)); // window expires
            let reaped = g.reap_idle(ctx).unwrap();
            (before, reaped, g.live_instances())
        });
        sim.run().unwrap();
        let (before, reaped, after) = out.take_result().unwrap();
        assert_eq!(before, 1);
        assert_eq!(reaped, 1);
        assert_eq!(after, 0);
        assert_eq!(gw.stats().reaped, 1);
    }

    #[test]
    fn handle_request_prefers_a_warm_pool_over_the_first_placement() {
        // DPU first: a cold placement would pick the first DPU, but the
        // only warm instance idles on the second.
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(
            FunctionDef::builder("edge", LangRuntime::Python)
                .profiles(&[PuKind::Dpu, PuKind::Cpu])
                .exec_ms(1.0)
                .build(),
        );
        let gw = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let mut sim = Simulation::new();
        let g = gw.clone();
        let out = sim.spawn("gw", move |ctx| {
            g.molecule().bootstrap(ctx).unwrap();
            g.prepare_all_templates(ctx).unwrap();
            let dpus = g.molecule().machine().pus_of_kind(PuKind::Dpu);
            let seeded = g.handle_request_on(ctx, &"edge".into(), dpus[1], 64).unwrap();
            let served = g.handle_request(ctx, &"edge".into(), 64).unwrap();
            (dpus, seeded, served)
        });
        sim.run().unwrap();
        let (dpus, seeded, served) = out.take_result().unwrap();
        assert_eq!(dpus.len(), 2);
        assert!(seeded.cold_start);
        assert_eq!(served.pu, dpus[1], "the warm pool beats placement on {}", dpus[0]);
        assert!(!served.cold_start);
        assert_eq!(served.instance, seeded.instance);
        assert_eq!(gw.stats().cold_starts, 1);
    }

    #[test]
    fn unknown_function_is_rejected() {
        let gw = gateway(StartupKind::CforkLocal);
        let mut sim = Simulation::new();
        let out =
            sim.spawn("gw", move |ctx| gw.handle_request(ctx, &"ghost".into(), 1).unwrap_err());
        sim.run().unwrap();
        assert!(matches!(out.take_result().unwrap(), MoleculeError::UnknownFunction(_)));
    }
}
