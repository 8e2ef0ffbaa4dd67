//! The load-aware scheduling gateway.
//!
//! [`SchedGateway`] wraps the seed [`ApiGateway`] with the full scheduling
//! pipeline this crate exists for:
//!
//! 1. **Admission** — [`SchedGateway::submit`] ranks candidate PUs with the
//!    calibrated [`placer`], checks the latency budget against
//!    each candidate's estimate, and either enqueues the request on the best
//!    [`RunQueue`] or rejects it with a typed [`Overloaded`].
//! 2. **Service** — a pool of worker processes per PU (one per queue token)
//!    drains the queues, serving general-purpose and GPU PUs through
//!    [`ApiGateway::handle_request_on`] and FPGAs through the
//!    [`FpgaCacheManager`], with cold-start batch aggregation: a miss holds
//!    the fabric for a short window and coalesces every concurrently queued
//!    request into one vectorized flash + `start_vec`.
//! 3. **Failover** — when a PU dies (reported by the fault-shaped error of
//!    an in-flight request, or by the health checker through
//!    [`SchedGateway::attach_health`]), its queue drains and every entry is
//!    re-placed on a surviving PU via [`RunQueue::force`], so admitted work
//!    is never silently lost.
//!
//! Warm pools grow by cold-starting on a miss and shrink through the
//! [`ApiGateway`]'s keep-alive policy; the gateway sizes no pool ahead of
//! demand.
//!
//! Every admitted request resolves to exactly one [`JobOutcome`] on the
//! reply channel returned by `submit`: `Completed`, `Shed` (its SLO budget
//! passed while queued, or a fairness eviction) or `Failed`. This
//! conservation invariant is what the property tests and the chaos suite
//! lean on.
//!
//! [`ApiGateway::handle_request_on`]: molecule_core::gateway::ApiGateway::handle_request_on

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use hetsim::engine::{ProcCtx, SimReceiver, SimSender};
use hetsim::pu::{PuId, PuKind};
use hetsim::time::{SimDuration, SimTime};
use molecule_core::error::MoleculeError;
use molecule_core::fpga_cache::FpgaCacheManager;
use molecule_core::gateway::ApiGateway;
use molecule_core::health::HealthChecker;
use molecule_core::keepalive::Lru;
use molecule_state::StateLayer;
use molecule_tenancy::{TenantId, TenantRegistry, TokenBucket};
use parking_lot::Mutex;
use vsandbox::spec::FuncId;

use crate::placer::{self, Candidate, PuLoad};
use crate::queue::{Overloaded, QueuePolicy, Queued, RunQueue, ShedReason};

/// How the gateway picks a PU for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// First PU (in machine order) that supports the function and has
    /// capacity — the seed gateway's policy, kept as the bench baseline.
    FirstFit,
    /// Calibrated cost-model scoring: exec + cold + live queue wait, with
    /// state-locality bonuses.
    LoadAware,
}

/// Tunables of the scheduling gateway.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Placement policy.
    pub mode: PlacementMode,
    /// Per-PU queued-entry bound (admission backpressure).
    pub depth: usize,
    /// Concurrency tokens on the host CPU.
    pub cpu_tokens: usize,
    /// Concurrency tokens on each DPU / SmartNIC.
    pub dpu_tokens: usize,
    /// How long an FPGA miss holds the fabric to coalesce co-pending cold
    /// starts into one flash. [`SimDuration::ZERO`] disables batching.
    pub batch_window: SimDuration,
    /// The shared tenant table: WFQ weights and admission rate limits.
    /// Unconfigured tenants get weight 1 and no limit, so a deployment
    /// that never registers a tenant behaves exactly like the pre-tenancy
    /// gateway.
    pub tenants: Arc<TenantRegistry>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            mode: PlacementMode::LoadAware,
            depth: 64,
            cpu_tokens: 4,
            dpu_tokens: 2,
            batch_window: SimDuration::from_millis(5),
            tenants: Arc::new(TenantRegistry::new()),
        }
    }
}

impl SchedConfig {
    /// The bench baseline: first-fit placement, an effectively unbounded
    /// queue, no batching. Token counts match the default so comparisons
    /// isolate the policy.
    pub fn baseline_first_fit() -> SchedConfig {
        SchedConfig {
            mode: PlacementMode::FirstFit,
            depth: 1 << 20,
            batch_window: SimDuration::ZERO,
            ..SchedConfig::default()
        }
    }

    fn tokens_for(&self, kind: PuKind) -> usize {
        match kind {
            PuKind::Cpu => self.cpu_tokens.max(1),
            PuKind::Dpu | PuKind::SmartNic => self.dpu_tokens.max(1),
            PuKind::Fpga | PuKind::Gpu => ACCEL_TOKENS,
        }
    }
}

/// Per-request options for [`SchedGateway::submit`]. The latency budget
/// is not one of them: it is the function's declared
/// [`SloClass::Latency`](molecule_tenancy::SloClass::Latency) target, and
/// a function without one has no budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// The submitting tenant. Defaults to [`TenantId::SYSTEM`], which is
    /// never rate-limited by default and shares the queue like any other
    /// weight-1 tenant.
    pub tenant: TenantId,
}

/// Terminal state of one admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Served to completion.
    Completed {
        /// Submit-to-completion latency (queueing included).
        latency: SimDuration,
        /// The PU that served it.
        pu: PuId,
        /// Whether service needed a cold start.
        cold: bool,
    },
    /// Dropped by load shedding while queued.
    Shed {
        /// The queue it was shed from.
        pu: PuId,
        /// How long it waited before being shed.
        waited: SimDuration,
        /// Whether the drop was deadline-driven (its SLO budget expired in
        /// the queue) or fairness-driven (a batch entry evicted to make
        /// room for a latency-class admission).
        reason: ShedReason,
    },
    /// The runtime failed it and no failover target existed.
    Failed(String),
}

/// Why [`SchedGateway::submit`] refused a request.
#[derive(Debug)]
pub enum SubmitError {
    /// Admission control rejected it (queues full or deadline unmeetable).
    Overloaded(Overloaded),
    /// The runtime cannot serve it at all (unknown function, no capable PU).
    Runtime(MoleculeError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded(o) => write!(f, "{o}"),
            SubmitError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counters the scheduling gateway keeps. `submitted` always equals
/// `completed + shed + rejected + failed` plus whatever is still in flight.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests that resolved [`JobOutcome::Completed`].
    pub completed: u64,
    /// Admitted requests dropped by deadline shedding.
    pub shed: u64,
    /// Requests refused at admission ([`SubmitError::Overloaded`]).
    pub rejected: u64,
    /// Requests that resolved [`JobOutcome::Failed`].
    pub failed: u64,
    /// Requests drained off a dead PU and re-placed on a survivor.
    pub requeued: u64,
    /// Vectorized FPGA cold-start batches issued (≥ 2 requests).
    pub batches: u64,
    /// Cold starts that rode in those batches.
    pub batched_cold_starts: u64,
    /// Requests refused because the tenant's admission rate limit was
    /// exhausted (a subset of `rejected`).
    pub rate_denied: u64,
}

/// Per-tenant slice of the gateway's ledger, kept alongside [`SchedStats`]
/// so the bench harnesses and the tenancy smoke gates can audit isolation
/// without parsing telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantLedger {
    /// Requests this tenant offered to `submit`.
    pub submitted: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Admitted requests of this tenant dropped by shedding (any reason).
    pub shed: u64,
    /// Requests refused at admission (queues full / deadline / rate).
    pub rejected: u64,
    /// Rejections specifically due to the tenant's rate limit.
    pub rate_denied: u64,
}

struct Job {
    func: FuncId,
    input: u64,
    submitted_at: SimTime,
    reply: SimSender<JobOutcome>,
}

struct Shared {
    queues: BTreeMap<PuId, RunQueue<Job>>,
    wakes: BTreeMap<PuId, Vec<SimSender<()>>>,
    dead: BTreeSet<PuId>,
    stats: SchedStats,
    buckets: BTreeMap<TenantId, TokenBucket>,
    ledger: BTreeMap<TenantId, TenantLedger>,
}

/// Concurrency tokens on each accelerator (FPGA fabric, GPU).
const ACCEL_TOKENS: usize = 1;

/// Kernels packed per FPGA image by the cache manager.
const FPGA_CACHE_CAPACITY: usize = 12;

/// Maximum requests folded into one vectorized cold-start batch.
const BATCH_MAX: usize = 8;

/// The load-aware scheduling gateway. Cheap to clone; all clones share
/// queues, workers and stats.
#[derive(Clone)]
pub struct SchedGateway {
    api: ApiGateway,
    config: Arc<SchedConfig>,
    caches: Arc<BTreeMap<PuId, FpgaCacheManager>>,
    shared: Arc<Mutex<Shared>>,
}

impl fmt::Debug for SchedGateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedGateway").field("stats", &self.shared.lock().stats).finish()
    }
}

impl SchedGateway {
    /// Builds the gateway over `api`, creating one [`RunQueue`] per PU of
    /// the machine and an [`FpgaCacheManager`] per FPGA fabric.
    pub fn new(api: ApiGateway, config: SchedConfig) -> SchedGateway {
        let pus: Vec<PuId> = api.molecule().machine().pus().iter().map(|p| p.id).collect();
        SchedGateway::new_for_pus(api, config, &pus)
    }

    /// Builds the gateway over `api` but scoped to `pus`: queues, workers
    /// and placement only cover those PUs. This is how a rack shards its
    /// control plane — one gateway per node, each owning that node's PUs,
    /// all over the same machine and runtime. PUs not in the machine are
    /// ignored.
    pub fn new_for_pus(api: ApiGateway, config: SchedConfig, pus: &[PuId]) -> SchedGateway {
        let machine = api.molecule().machine().clone();
        let mut queues = BTreeMap::new();
        let mut caches = BTreeMap::new();
        for pu in pus.iter().filter_map(|id| machine.pu(*id)) {
            let policy = QueuePolicy { depth: config.depth, tokens: config.tokens_for(pu.kind) };
            queues.insert(pu.id, RunQueue::new(pu.id, policy));
            if pu.kind == PuKind::Fpga {
                caches.insert(
                    pu.id,
                    FpgaCacheManager::new(
                        api.molecule().clone(),
                        pu.id,
                        FPGA_CACHE_CAPACITY,
                        Box::new(Lru::new()),
                    ),
                );
            }
        }
        SchedGateway {
            api,
            config: Arc::new(config),
            caches: Arc::new(caches),
            shared: Arc::new(Mutex::new(Shared {
                queues,
                wakes: BTreeMap::new(),
                dead: BTreeSet::new(),
                stats: SchedStats::default(),
                buckets: BTreeMap::new(),
                ledger: BTreeMap::new(),
            })),
        }
    }

    /// The wrapped request gateway.
    pub fn api(&self) -> &ApiGateway {
        &self.api
    }

    /// Counters.
    pub fn stats(&self) -> SchedStats {
        self.shared.lock().stats
    }

    /// Per-tenant ledgers, sorted by tenant id. Tenants appear once they
    /// have submitted at least one request.
    pub fn tenant_stats(&self) -> BTreeMap<TenantId, TenantLedger> {
        self.shared.lock().ledger.clone()
    }

    /// The FPGA cache manager serving `pu`, if `pu` is an FPGA.
    pub fn fpga_cache(&self, pu: PuId) -> Option<&FpgaCacheManager> {
        self.caches.get(&pu)
    }

    /// Spawns the per-PU worker pools (one process per queue token). Call
    /// once after [`Molecule::bootstrap`]; call [`shutdown`](Self::shutdown)
    /// before the simulation ends or the engine reports the blocked workers
    /// as a deadlock.
    ///
    /// [`Molecule::bootstrap`]: molecule_core::runtime::Molecule::bootstrap
    pub fn start(&self, ctx: &mut ProcCtx) {
        let plan: Vec<(PuId, usize)> = {
            let sh = self.shared.lock();
            sh.queues.iter().map(|(pu, q)| (*pu, q.policy().tokens)).collect()
        };
        for (pu, tokens) in plan {
            for slot in 0..tokens {
                let (tx, rx) = ctx.channel::<()>();
                self.shared.lock().wakes.entry(pu).or_default().push(tx);
                let this = self.clone();
                ctx.spawn(&format!("sched-worker-pu{}-{slot}", pu.0), move |wctx| {
                    this.worker_loop(wctx, pu, rx)
                });
            }
        }
    }

    /// Drops every worker wake sender so all gateway processes exit once
    /// idle. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().wakes.clear();
    }

    /// Registers the failover drain with `health`: when the checker
    /// declares a PU dead, that PU's queue drains into surviving queues.
    pub fn attach_health(&self, health: &HealthChecker) {
        let this = self.clone();
        health.on_declared_dead(move |ctx, pu| this.drain_dead_pu(ctx, pu));
    }

    /// Bridges a [`StateLayer`] into the gateway's
    /// [`RegionDirectory`](molecule_core::regions::RegionDirectory): every
    /// replica attach or release publishes or retracts a hosting record, and
    /// the layer replays the current host set on installation. Declared
    /// [`FunctionDef::regions`] then earn [`placer::STATE_BONUS`] on
    /// hosting PUs at placement time.
    ///
    /// [`FunctionDef::regions`]: molecule_core::function::FunctionDef::regions
    pub fn attach_state_layer(&self, layer: &StateLayer) {
        let dir = self.api.region_directory().clone();
        layer.set_host_observer(Arc::new(move |region, pu, hosted| {
            if hosted {
                dir.publish(region, pu);
            } else {
                dir.retract(region, pu);
            }
        }));
    }

    // ----- admission -------------------------------------------------------

    /// Admits one request for `func`, returning the reply channel that will
    /// carry its single [`JobOutcome`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Runtime`] when the function is unknown or no live PU
    /// can serve it; [`SubmitError::Overloaded`] when every candidate queue
    /// is full or no candidate can meet the latency budget.
    pub fn submit(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
        opts: SubmitOpts,
    ) -> Result<SimReceiver<JobOutcome>, SubmitError> {
        let now = ctx.now();
        let tenant = opts.tenant;
        let def =
            self.api.molecule().registry().get(func).ok_or_else(|| {
                SubmitError::Runtime(MoleculeError::UnknownFunction(func.clone()))
            })?;
        let spec = self.config.tenants.spec(tenant);
        {
            let mut sh = self.shared.lock();
            sh.stats.submitted += 1;
            sh.ledger.entry(tenant).or_default().submitted += 1;
            // Rate limiting happens here, before any queue or placer state
            // is touched: a flooding tenant is charged its deny without
            // perturbing anyone else's estimates.
            if let Some(limit) = spec.rate_limit {
                let bucket = sh.buckets.entry(tenant).or_insert_with(|| TokenBucket::new(limit));
                if !bucket.try_admit(now) {
                    sh.stats.rejected += 1;
                    sh.stats.rate_denied += 1;
                    let led = sh.ledger.entry(tenant).or_default();
                    led.rejected += 1;
                    led.rate_denied += 1;
                    drop(sh);
                    telemetry::counter_add_tenant("sched.rate_denied", tenant.raw(), 1);
                    return Err(SubmitError::Overloaded(Overloaded::RateLimited { tenant }));
                }
            }
        }

        let candidates = self.candidate_pus(&def, input_bytes);
        if candidates.is_empty() {
            let mut sh = self.shared.lock();
            sh.stats.rejected += 1;
            sh.ledger.entry(tenant).or_default().rejected += 1;
            return Err(SubmitError::Runtime(MoleculeError::NoCapacity(func.clone())));
        }

        // The declared SLO is the latency budget; batch functions and
        // functions without an SLO get none.
        let batch = def.slo.is_some_and(|s| s.is_batch());
        let budget = def.slo.and_then(|s| s.latency_target());
        let deadline_at = budget.map(|b| now + b);
        let weight = self.config.tenants.weight(tenant);
        let (tx, rx) = ctx.channel::<JobOutcome>();
        let mut job = Job { func: func.clone(), input: input_bytes, submitted_at: now, reply: tx };
        let mut last = None;
        for cand in &candidates {
            if let Some(b) = budget {
                let estimated = cand.estimated_latency();
                if estimated > b {
                    last = Some(Overloaded::DeadlineUnmeetable {
                        pu: cand.pu,
                        estimated,
                        budget: b,
                        tenant,
                    });
                    continue;
                }
            }
            let (offered, evicted) = {
                let mut sh = self.shared.lock();
                let queue = sh.queues.get_mut(&cand.pu).expect("candidate PU has a queue");
                let mut evicted = None;
                let first = queue.offer_for(now, tenant, weight, batch, deadline_at, job);
                // Batch-first shedding: a latency-class admission bouncing
                // off a full queue may evict the youngest batch entry and
                // take its slot. Batch submits never evict anyone.
                let offered = match first {
                    Err((err @ Overloaded::QueueFull { .. }, payload)) if !batch => {
                        match queue.evict_batch(now) {
                            Some(victim) => {
                                evicted = Some(victim);
                                queue.offer_for(now, tenant, weight, batch, deadline_at, payload)
                            }
                            None => Err((err, payload)),
                        }
                    }
                    other => other,
                };
                if let Some(victim) = &evicted {
                    sh.stats.shed += 1;
                    sh.ledger.entry(victim.tenant).or_default().shed += 1;
                }
                (offered, evicted)
            };
            if let Some(victim) = evicted {
                self.api.note_shed(&victim.payload.func, now);
                telemetry::counter_add_tenant("sched.shed", victim.tenant.raw(), 1);
                let _ = victim.payload.reply.send(JobOutcome::Shed {
                    pu: cand.pu,
                    waited: victim.waited,
                    reason: ShedReason::Fairness,
                });
            }
            match offered {
                Ok(_ticket) => {
                    self.publish_depth(cand.pu);
                    self.wake_pu(cand.pu);
                    return Ok(rx);
                }
                Err((why, payload)) => {
                    job = payload;
                    last = Some(why);
                }
            }
        }

        {
            let mut sh = self.shared.lock();
            sh.stats.rejected += 1;
            sh.ledger.entry(tenant).or_default().rejected += 1;
        }
        self.api.note_shed(func, now);
        telemetry::counter_add("sched.rejected", 1);
        telemetry::counter_add_tenant("sched.rejected", tenant.raw(), 1);
        Err(SubmitError::Overloaded(last.expect("candidates was non-empty")))
    }

    /// Ranked candidate PUs for `def` under the configured placement mode.
    /// The per-PU loads stream straight into the ranking, read under the
    /// queue lock, so only the ranking itself is collected.
    fn candidate_pus(
        &self,
        def: &molecule_core::function::FunctionDef,
        input_bytes: u64,
    ) -> Vec<Candidate> {
        let machine = self.api.molecule().machine();
        // Sorted, and empty unless a PU is quarantined.
        let avoided = self.api.avoided_pus();
        // State locality: PUs already hosting the function's declared
        // regions earn the state bonus.
        let state_hosts = match self.config.mode {
            PlacementMode::LoadAware if !def.regions.is_empty() => {
                self.api.region_directory().hosts_of_any(&def.regions)
            }
            _ => Vec::new(),
        };
        let sh = self.shared.lock();
        let loads = sh
            .queues
            .iter()
            .filter(|(pu, _)| avoided.binary_search(pu).is_err() && !sh.dead.contains(pu))
            .map(|(pu, q)| {
                let fallback = placer::exec_estimate(machine, def, *pu, input_bytes)
                    .unwrap_or_else(|| SimDuration::from_millis(1));
                let warm = match self.caches.get(pu) {
                    Some(cache) => cache.is_resident(&def.id),
                    None => self.api.warm_idle_count(&def.id, *pu) > 0,
                };
                PuLoad { pu: *pu, wait: q.estimated_wait(fallback), warm }
            });
        match self.config.mode {
            PlacementMode::LoadAware => {
                placer::rank(machine, def, input_bytes, loads, &state_hosts)
            }
            PlacementMode::FirstFit => {
                // Same feasibility filter, but machine order instead of the
                // cost model: loads come in PU-id order, so ranking with a
                // zeroed wait and re-sorting by PU preserves it while still
                // carrying the estimates admission control needs.
                let blind = loads.map(|l| PuLoad { wait: SimDuration::ZERO, ..l });
                let mut cands = placer::rank(machine, def, input_bytes, blind, &[]);
                cands.sort_by_key(|c| c.pu);
                cands
            }
        }
    }

    // ----- workers ---------------------------------------------------------

    fn worker_loop(&self, ctx: &mut ProcCtx, pu: PuId, wake: SimReceiver<()>) {
        while wake.recv(ctx).is_ok() {
            loop {
                let now = ctx.now();
                let (expired, job) = {
                    let mut sh = self.shared.lock();
                    if sh.dead.contains(&pu) {
                        break;
                    }
                    let Some(queue) = sh.queues.get_mut(&pu) else { break };
                    let expired = queue.shed_expired(now);
                    let job = queue.begin(now);
                    sh.stats.shed += expired.len() as u64;
                    for entry in &expired {
                        sh.ledger.entry(entry.tenant).or_default().shed += 1;
                    }
                    (expired, job)
                };
                for entry in expired {
                    self.api.note_shed(&entry.payload.func, now);
                    telemetry::counter_add("sched.shed", 1);
                    telemetry::counter_add_tenant("sched.shed", entry.tenant.raw(), 1);
                    let _ = entry.payload.reply.send(JobOutcome::Shed {
                        pu,
                        waited: entry.waited,
                        reason: ShedReason::Deadline,
                    });
                }
                let Some(job) = job else { break };
                self.publish_depth(pu);
                if self.caches.contains_key(&pu) {
                    self.serve_fpga(ctx, pu, job);
                } else {
                    self.serve_general(ctx, pu, job);
                }
            }
        }
    }

    fn serve_general(&self, ctx: &mut ProcCtx, pu: PuId, job: Queued<Job>) {
        let serve_start = ctx.now();
        match self.api.handle_request_on(ctx, &job.payload.func, pu, job.payload.input) {
            Ok(report) => {
                self.complete(ctx, pu, job, serve_start, report.cold_start);
            }
            Err(err) => match ApiGateway::failed_pu(&err) {
                Some(bad) => {
                    {
                        let mut sh = self.shared.lock();
                        if let Some(q) = sh.queues.get_mut(&pu) {
                            q.abandon(job.tenant);
                        }
                    }
                    self.fail_over(ctx, bad, vec![job]);
                }
                None => self.fail(pu, job, &err),
            },
        }
    }

    /// Serves an FPGA request, coalescing co-pending cold starts behind a
    /// miss into one vectorized flash.
    fn serve_fpga(&self, ctx: &mut ProcCtx, pu: PuId, first: Queued<Job>) {
        let cache = &self.caches[&pu];
        let serve_start = ctx.now();
        let miss = !cache.is_resident(&first.payload.func);
        let mut batch = vec![first];
        if miss && self.config.batch_window > SimDuration::ZERO {
            // Hold the fabric briefly: every request that queues behind this
            // miss during the window shares its single flash.
            ctx.sleep(self.config.batch_window);
            let now = ctx.now();
            let mut sh = self.shared.lock();
            if let Some(queue) = sh.queues.get_mut(&pu) {
                while batch.len() < BATCH_MAX {
                    match queue.begin(now) {
                        Some(job) => batch.push(job),
                        None => break,
                    }
                }
            }
        }
        let reqs: Vec<(FuncId, u64)> =
            batch.iter().map(|j| (j.payload.func.clone(), j.payload.input)).collect();
        match cache.request_batch(ctx, &reqs) {
            Ok(results) => {
                if batch.len() > 1 {
                    let cold = results.iter().filter(|(_, hit)| !hit).count() as u64;
                    let mut sh = self.shared.lock();
                    sh.stats.batches += 1;
                    sh.stats.batched_cold_starts += cold;
                    telemetry::counter_add("sched.batched_cold_starts", cold);
                }
                for (job, (_, hit)) in batch.into_iter().zip(results) {
                    self.complete(ctx, pu, job, serve_start, !hit);
                }
            }
            Err(err) => match ApiGateway::failed_pu(&err) {
                Some(bad) => {
                    {
                        let mut sh = self.shared.lock();
                        if let Some(q) = sh.queues.get_mut(&pu) {
                            for job in &batch {
                                q.abandon(job.tenant);
                            }
                        }
                    }
                    self.fail_over(ctx, bad, batch);
                }
                None => {
                    for job in batch {
                        self.fail(pu, job, &err);
                    }
                }
            },
        }
    }

    /// Books one finished request: releases the token and replies
    /// `Completed`.
    fn complete(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        job: Queued<Job>,
        serve_start: SimTime,
        cold: bool,
    ) {
        let service = ctx.now().saturating_duration_since(serve_start);
        {
            let mut sh = self.shared.lock();
            if let Some(q) = sh.queues.get_mut(&pu) {
                q.finish(job.tenant, service);
            }
            sh.stats.completed += 1;
            sh.ledger.entry(job.tenant).or_default().completed += 1;
        }
        telemetry::observe_ns("sched.service", service.as_nanos());
        let latency = ctx.now().saturating_duration_since(job.payload.submitted_at);
        telemetry::observe_ns_tenant("sched.latency", job.tenant.raw(), latency.as_nanos());
        telemetry::counter_add_tenant("sched.completed", job.tenant.raw(), 1);
        let _ = job.payload.reply.send(JobOutcome::Completed { latency, pu, cold });
    }

    /// Books one failed request (non-fault-shaped error): releases the
    /// token and replies `Failed`.
    fn fail(&self, pu: PuId, job: Queued<Job>, err: &MoleculeError) {
        {
            let mut sh = self.shared.lock();
            if let Some(q) = sh.queues.get_mut(&pu) {
                q.abandon(job.tenant);
            }
            sh.stats.failed += 1;
        }
        telemetry::counter_add("sched.failed", 1);
        let _ = job.payload.reply.send(JobOutcome::Failed(err.to_string()));
    }

    // ----- failover --------------------------------------------------------

    /// Health-checker hook: drains the dead PU's queue into survivors.
    pub fn drain_dead_pu(&self, ctx: &mut ProcCtx, pu: PuId) {
        self.fail_over(ctx, pu, Vec::new());
    }

    /// Quarantines `bad`, drains its queue, and re-places the drained
    /// entries plus `carry` (in-flight jobs whose service died under them)
    /// on surviving PUs, bypassing depth bounds: conservation beats
    /// backpressure once work is already admitted.
    fn fail_over(&self, ctx: &mut ProcCtx, bad: PuId, carry: Vec<Queued<Job>>) {
        self.api.mark_pu_unschedulable(bad);
        let now = ctx.now();
        let mut jobs = carry;
        {
            let mut sh = self.shared.lock();
            sh.dead.insert(bad);
            // Wake the dead PU's workers so they observe `dead` and park.
            sh.wakes.remove(&bad);
            if let Some(queue) = sh.queues.get_mut(&bad) {
                jobs.extend(queue.drain(now));
            }
        }
        if jobs.is_empty() {
            return;
        }
        telemetry::instant(bad.0, now.as_nanos(), "sched:drain_dead_pu", None);
        let registry = self.api.molecule().registry().clone();
        let mut to_wake = BTreeSet::new();
        for job in jobs {
            let Some(def) = registry.get(&job.payload.func) else {
                let unknown = MoleculeError::UnknownFunction(job.payload.func.clone());
                self.fail(bad, job, &unknown);
                continue;
            };
            let target = self
                .candidate_pus(&def, job.payload.input)
                .into_iter()
                .map(|c| c.pu)
                .find(|pu| *pu != bad);
            match target {
                Some(target) => {
                    {
                        let mut sh = self.shared.lock();
                        let queue = sh.queues.get_mut(&target).expect("candidate PU has a queue");
                        let weight = self.config.tenants.weight(job.tenant);
                        queue.force_for(
                            now,
                            job.tenant,
                            weight,
                            job.batch,
                            job.deadline,
                            job.payload,
                        );
                        sh.stats.requeued += 1;
                    }
                    telemetry::counter_add("sched.requeued", 1);
                    to_wake.insert(target);
                }
                None => {
                    self.shared.lock().stats.failed += 1;
                    let _ = job.payload.reply.send(JobOutcome::Failed(format!(
                        "no surviving PU can serve {}",
                        job.payload.func
                    )));
                }
            }
        }
        for pu in to_wake {
            self.publish_depth(pu);
            self.wake_pu(pu);
        }
    }

    // ----- plumbing --------------------------------------------------------

    /// Wakes every worker of `pu`. A send only schedules the worker's
    /// resume, so it is made in place under the lock.
    fn wake_pu(&self, pu: PuId) {
        let sh = self.shared.lock();
        for tx in sh.wakes.get(&pu).into_iter().flatten() {
            let _ = tx.send(());
        }
    }

    fn publish_depth(&self, pu: PuId) {
        // Gauge-only path: skip the lock *and* the name formatting entirely
        // when no recorder is attached.
        if !telemetry::enabled() {
            return;
        }
        let depth = {
            let sh = self.shared.lock();
            sh.queues.get(&pu).map_or(0, RunQueue::queued)
        };
        telemetry::gauge_set(&format!("sched.pu{}.queue_depth", pu.0), depth as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::engine::Simulation;
    use hetsim::topology::Machine;
    use molecule_core::function::{FunctionBuilder, FunctionDef};
    use molecule_core::gateway::GatewayConfig;
    use molecule_core::runtime::{Molecule, MoleculeConfig, StartupKind};
    use molecule_core::schedule::Scheduler;
    use vsandbox::spec::LangRuntime;

    /// The `img` function most tests serve: CPU first, DPUs as spillover.
    fn img() -> FunctionBuilder {
        FunctionDef::builder("img", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(10.0)
            .init_ms(6.0)
            .cfork_first_run_ms(1.0)
    }

    /// A gateway over the paper's CPU+DPU server with `def` registered.
    fn api_with(def: FunctionDef) -> ApiGateway {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(def);
        ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        )
    }

    fn run_with<T: Send + 'static>(
        gw: &SchedGateway,
        f: impl FnOnce(&mut ProcCtx, SchedGateway) -> T + Send + 'static,
    ) -> T {
        let mut sim = Simulation::new();
        let g = gw.clone();
        let out = sim.spawn("driver", move |ctx| {
            g.api().molecule().bootstrap(ctx).unwrap();
            g.api().prepare_all_templates(ctx).unwrap();
            g.start(ctx);
            let result = f(ctx, g.clone());
            g.shutdown();
            result
        });
        sim.run().unwrap();
        out.take_result().unwrap()
    }

    #[test]
    fn submitted_requests_complete_and_balance_the_books() {
        let gw = SchedGateway::new(api_with(img().build()), SchedConfig::default());
        let outcomes = run_with(&gw, |ctx, g| {
            let rxs: Vec<_> = (0..6)
                .map(|_| g.submit(ctx, &"img".into(), 1024, SubmitOpts::default()).unwrap())
                .collect();
            rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(outcomes.len(), 6);
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Completed { .. }), "unexpected outcome {o:?}");
        }
        let st = gw.stats();
        assert_eq!(st.submitted, 6);
        assert_eq!(st.completed, 6);
        assert_eq!(st.shed + st.rejected + st.failed, 0);
    }

    #[test]
    fn load_spreads_across_pus_instead_of_piling_on_one() {
        // The DPUs run ~6.2x slower than the host CPU, so light load rightly
        // stays on the CPU; only once its queue-wait estimate exceeds the
        // DPU's exec + cold estimate should spillover start. 48 back-to-back
        // submits push it well past that point.
        let gw = SchedGateway::new(api_with(img().build()), SchedConfig::default());
        let pus = run_with(&gw, |ctx, g| {
            let rxs: Vec<_> = (0..48)
                .map(|_| g.submit(ctx, &"img".into(), 1024, SubmitOpts::default()).unwrap())
                .collect();
            rxs.into_iter()
                .map(|rx| match rx.recv(ctx).unwrap() {
                    JobOutcome::Completed { pu, .. } => pu,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect::<Vec<_>>()
        });
        let distinct: BTreeSet<PuId> = pus.iter().copied().collect();
        assert!(distinct.len() >= 2, "12 concurrent requests should fan out, got {distinct:?}");
    }

    #[test]
    fn full_queues_reject_with_queue_full() {
        let config =
            SchedConfig { depth: 1, cpu_tokens: 1, dpu_tokens: 1, ..SchedConfig::default() };
        let gw = SchedGateway::new(api_with(img().build()), config);
        let (accepted, rejected) = run_with(&gw, |ctx, g| {
            // Never start workers' turn: submit everything in one burst so
            // queues cannot drain between offers (workers only run when this
            // process yields, and submit never sleeps).
            let mut accepted = 0;
            let mut rejected = 0;
            let mut rxs = Vec::new();
            for _ in 0..16 {
                match g.submit(ctx, &"img".into(), 1024, SubmitOpts::default()) {
                    Ok(rx) => {
                        accepted += 1;
                        rxs.push(rx);
                    }
                    Err(SubmitError::Overloaded(Overloaded::QueueFull { .. })) => rejected += 1,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            for rx in rxs {
                rx.recv(ctx).unwrap();
            }
            (accepted, rejected)
        });
        // 3 PUs × depth 1 = 3 queued slots; everything else bounces.
        assert_eq!(accepted, 3);
        assert_eq!(rejected, 13);
        assert_eq!(gw.stats().rejected, 13);
    }

    #[test]
    fn unmeetable_deadlines_are_rejected_up_front() {
        // A 1 µs SLO: no PU's estimate can meet it.
        let api = api_with(img().slo_latency_ms(0.001).build());
        let gw = SchedGateway::new(api, SchedConfig::default());
        let err =
            run_with(&gw, |ctx, g| g.submit(ctx, &"img".into(), 1024, SubmitOpts::default()).err());
        match err {
            Some(SubmitError::Overloaded(Overloaded::DeadlineUnmeetable {
                estimated,
                budget,
                ..
            })) => {
                assert!(estimated > budget);
            }
            other => panic!("expected DeadlineUnmeetable, got {other:?}"),
        }
    }

    #[test]
    fn queued_requests_past_deadline_are_shed_not_lost() {
        // Admission prices a cold start as a cfork from a template, but this
        // gateway scales up by cold boot (runc create and start plus a
        // 100 ms init). One token per PU: a burst admits requests against
        // their 40 ms SLO that then wait out the head's real cold start in
        // the queue, and the worker sheds them.
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(img().init_ms(100.0).slo_latency_ms(40.0).build());
        let scale_up = StartupKind::ColdBaseline;
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig { scale_up, ..GatewayConfig::default() },
            Box::new(Lru::new()),
        );
        let config = SchedConfig { cpu_tokens: 1, dpu_tokens: 1, ..SchedConfig::default() };
        let gw = SchedGateway::new(api, config);
        let outcomes = run_with(&gw, |ctx, g| {
            let rxs: Vec<_> = (0..10)
                .map(|_| g.submit(ctx, &"img".into(), 1024, SubmitOpts::default()))
                .filter_map(Result::ok)
                .collect();
            rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect::<Vec<_>>()
        });
        let st = gw.stats();
        let done = outcomes.iter().filter(|o| matches!(o, JobOutcome::Completed { .. })).count();
        let shed = outcomes.iter().filter(|o| matches!(o, JobOutcome::Shed { .. })).count();
        assert!(shed > 0, "an admitted request must expire in the queue ({st:?})");
        assert_eq!(done as u64, st.completed);
        assert_eq!(shed as u64, st.shed);
        assert_eq!(
            st.submitted,
            st.completed + st.shed + st.rejected + st.failed,
            "conservation: every request resolves exactly once ({st:?})"
        );
    }

    #[test]
    fn dead_pu_drains_its_queue_into_survivors() {
        // A DPU-only function: requests spread over the two DPUs, then one
        // DPU dies with work still queued. Everything must finish on the
        // survivor.
        let api = api_with(
            FunctionDef::builder("edge", LangRuntime::Python)
                .profiles(&[PuKind::Dpu])
                .exec_ms(10.0)
                .init_ms(6.0)
                .cfork_first_run_ms(1.0)
                .build(),
        );
        let gw = SchedGateway::new(api, SchedConfig { dpu_tokens: 1, ..SchedConfig::default() });
        let outcomes = run_with(&gw, |ctx, g| {
            // Stack requests onto both DPU queues, then kill one before its
            // workers get a turn.
            let rxs: Vec<_> = (0..9)
                .map(|_| g.submit(ctx, &"edge".into(), 1024, SubmitOpts::default()).unwrap())
                .collect();
            let dpu = g.api().molecule().machine().pus_of_kind(PuKind::Dpu)[0];
            g.drain_dead_pu(ctx, dpu);
            rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(outcomes.len(), 9, "no admitted request may be lost");
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Completed { .. }), "unexpected outcome {o:?}");
        }
        let st = gw.stats();
        assert!(st.requeued > 0, "the dead DPU's queue should have drained: {st:?}");
        assert_eq!(st.completed, 9);
    }

    #[test]
    fn state_layer_hosts_steer_stateful_placement() {
        use molecule_state::{RegionSpec, StateLayer};
        use xpu_shim::cluster::{ShimCluster, ShimConfig};

        let api = api_with(
            FunctionDef::builder("infer", LangRuntime::Python)
                .profiles(&[PuKind::Dpu])
                .exec_ms(1.0)
                .init_ms(1.0)
                .region("weights")
                .build(),
        );
        let gw = SchedGateway::new(api, SchedConfig::default());
        let layer = StateLayer::new(ShimCluster::deploy(
            gw.api().molecule().machine().clone(),
            ShimConfig::default(),
        ));
        gw.attach_state_layer(&layer);
        let (host, outcome) = run_with(&gw, move |ctx, g| {
            // Master the region on the *second* DPU: the two DPUs are
            // otherwise identical, so without the state term the score tie
            // breaks toward the first.
            let dpus = g.api().molecule().machine().pus_of_kind(PuKind::Dpu);
            layer.create_region(ctx, dpus[1], RegionSpec::new("weights", 4)).unwrap();
            assert_eq!(
                g.api().region_directory().hosts("weights"),
                vec![dpus[1]],
                "the host observer must publish into the gateway directory"
            );
            let rx = g.submit(ctx, &"infer".into(), 1024, SubmitOpts::default()).unwrap();
            (dpus[1], rx.recv(ctx).unwrap())
        });
        match outcome {
            JobOutcome::Completed { pu, .. } => {
                assert_eq!(pu, host, "placement should follow the region's pages");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fpga_misses_batch_into_one_flash() {
        // One fabric only, so all four cold starts queue on it instead of
        // spreading across an F1's eight FPGAs.
        let machine = Machine::builder().host_cpu().fpgas(1).build();
        let molecule = Molecule::launch(machine, MoleculeConfig::default());
        let mut funcs = Vec::new();
        for i in 0..4 {
            let name = format!("kern{i}");
            molecule.register_function(
                FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                    .profiles(&[PuKind::Fpga])
                    .fpga(
                        hetsim::fpga::KernelSpec {
                            name: name.clone(),
                            resources: hetsim::fpga::FpgaResources {
                                luts: 5_000,
                                regs: 8_000,
                                brams: 20,
                                dsps: 36,
                            },
                        },
                        molecule_core::function::ExecModel::Fixed(SimDuration::from_micros(100)),
                    )
                    .build(),
            );
            funcs.push(FuncId::new(name));
        }
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, SchedConfig::default());
        let fpga = gw.api().molecule().machine().pus_of_kind(PuKind::Fpga)[0];
        let outcomes = run_with(&gw, move |ctx, g| {
            let rxs: Vec<_> = funcs
                .iter()
                .map(|f| g.submit(ctx, f, 4096, SubmitOpts::default()).unwrap())
                .collect();
            rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect::<Vec<_>>()
        });
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Completed { cold: true, .. }), "all cold: {o:?}");
        }
        let st = gw.stats();
        assert!(st.batches >= 1, "co-pending cold starts should batch: {st:?}");
        let cache = gw.fpga_cache(fpga).unwrap().stats();
        assert!(
            cache.flashes < 4,
            "4 cold starts must share flashes, got {} flashes",
            cache.flashes
        );
    }
}
