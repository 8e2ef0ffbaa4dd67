//! Per-PU bounded run queues with explicit backpressure and weighted
//! fairness across tenants.
//!
//! The seed gateway served every request inline: a PU could accumulate an
//! unbounded backlog with no admission signal whatsoever. [`RunQueue`] is
//! the replacement primitive: a bounded queue with a token-style
//! concurrency limit and deadline-aware shedding. Entries are arbitrated
//! by a start-time-fair [`SfqQueue`](molecule_tenancy::SfqQueue) over
//! per-tenant sub-queues, so one tenant's flood cannot starve another's
//! trickle. It is a pure deterministic data structure — the property tests
//! in `tests/properties.rs` drive it directly, and [`SchedGateway`] wraps
//! one per PU.
//!
//! Invariants (property-tested):
//!
//! * **bounded depth** — `queued() <= policy.depth` always; an offer into a
//!   full queue is rejected with a typed [`Overloaded`], never dropped;
//! * **FIFO per tenant** — within one tenant's sub-queue, jobs dispatch in
//!   offer order; across tenants, SFQ virtual time arbitrates by weight;
//! * **conservation** — every admitted ticket leaves the queue exactly once
//!   (dispatched, shed, or drained), never twice and never silently;
//! * **tenant token caps** — with several tenants backlogged, no tenant
//!   holds more in-service tokens than its weight share (rounded up) while
//!   an under-share tenant has queued work; unused share still flows to
//!   whoever is backlogged (work conservation).
//!
//! [`SchedGateway`]: crate::gateway::SchedGateway

use std::collections::BTreeMap;
use std::fmt;

use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use molecule_tenancy::{SfqQueue, TenantId};

/// Why an admitted entry was dropped before service — carried in
/// `JobOutcome::Shed` so callers can tell an SLO miss from a fairness
/// eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The entry's deadline passed while it was queued.
    Deadline,
    /// A batch-class entry was evicted to make room for a latency-class
    /// admission on a full queue.
    Fairness,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Deadline => f.write_str("deadline"),
            ShedReason::Fairness => f.write_str("fairness"),
        }
    }
}

/// Why admission was refused — the typed rejection the seed gateway lacked.
/// Callers see this instead of unbounded queue growth; every variant names
/// the tenant whose budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overloaded {
    /// Every candidate queue is at its configured depth bound.
    QueueFull {
        /// The last PU tried.
        pu: PuId,
        /// Its depth bound.
        depth: usize,
        /// The tenant whose admission bounced.
        tenant: TenantId,
    },
    /// No candidate PU can meet the request deadline even if it dispatched
    /// next: estimated completion exceeds the budget, so admitting the
    /// request would only waste a slot.
    DeadlineUnmeetable {
        /// The best candidate PU.
        pu: PuId,
        /// Estimated completion time on that PU.
        estimated: SimDuration,
        /// The request's remaining budget.
        budget: SimDuration,
        /// The tenant whose budget was unmeetable.
        tenant: TenantId,
    },
    /// The tenant's configured admission rate limit
    /// ([`RateLimit`](molecule_tenancy::RateLimit)) is exhausted: the
    /// gateway's token bucket had no token at submit time. No queue was
    /// touched.
    RateLimited {
        /// The tenant whose bucket ran dry.
        tenant: TenantId,
    },
}

impl Overloaded {
    /// The tenant whose budget (depth, deadline or rate) was exhausted.
    pub fn tenant(&self) -> TenantId {
        match *self {
            Overloaded::QueueFull { tenant, .. }
            | Overloaded::DeadlineUnmeetable { tenant, .. }
            | Overloaded::RateLimited { tenant } => tenant,
        }
    }
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overloaded::QueueFull { pu, depth, tenant } => {
                write!(f, "overloaded: run queue on {pu} at depth bound {depth} (tenant {tenant})")
            }
            Overloaded::DeadlineUnmeetable { pu, estimated, budget, tenant } => write!(
                f,
                "overloaded: best PU {pu} estimates {estimated} against a {budget} budget \
                 (tenant {tenant})"
            ),
            Overloaded::RateLimited { tenant } => {
                write!(f, "overloaded: tenant {tenant} exceeded its admission rate limit")
            }
        }
    }
}

impl std::error::Error for Overloaded {}

/// Sizing of one PU's run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum *queued* (not yet dispatched) entries.
    pub depth: usize,
    /// Token-style concurrency limit: how many entries may be in service at
    /// once. The gateway spawns this many worker processes per PU.
    pub tokens: usize,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy { depth: 64, tokens: 1 }
    }
}

/// Identifies one admitted entry for conservation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// One entry handed back by [`RunQueue::begin`], [`RunQueue::shed_expired`],
/// [`RunQueue::evict_batch`] or [`RunQueue::drain`].
#[derive(Debug, Clone)]
pub struct Queued<T> {
    /// The admission ticket.
    pub ticket: Ticket,
    /// The tenant it was admitted for.
    pub tenant: TenantId,
    /// Whether the entry is batch-class (first to evict under pressure).
    pub batch: bool,
    /// When the entry was offered.
    pub enqueued_at: SimTime,
    /// Absolute completion deadline, if any.
    pub deadline: Option<SimTime>,
    /// How long the entry waited in the queue.
    pub waited: SimDuration,
    /// The caller's payload.
    pub payload: T,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    ticket: Ticket,
    batch: bool,
    enqueued_at: SimTime,
    deadline: Option<SimTime>,
    payload: T,
}

impl<T> Entry<T> {
    /// The caller-facing view of an entry leaving the queue at `now`.
    fn leave(self, tenant: TenantId, now: SimTime) -> Queued<T> {
        Queued {
            ticket: self.ticket,
            tenant,
            batch: self.batch,
            enqueued_at: self.enqueued_at,
            deadline: self.deadline,
            waited: now.saturating_duration_since(self.enqueued_at),
            payload: self.payload,
        }
    }
}

/// A bounded run queue for one PU: per-tenant SFQ sub-queues.
#[derive(Debug)]
pub struct RunQueue<T> {
    pu: PuId,
    policy: QueuePolicy,
    entries: SfqQueue<Entry<T>>,
    /// Last weight seen per tenant — the SFQ tags already encode it, but
    /// the token-cap computation needs the denominator.
    weights: BTreeMap<TenantId, u32>,
    in_service: usize,
    in_service_by: BTreeMap<TenantId, usize>,
    next_ticket: u64,
    /// EWMA of observed service time, in nanoseconds (0 until first finish).
    ewma_service_ns: f64,
    served: u64,
}

/// EWMA smoothing factor for the service-time estimate.
const EWMA_ALPHA: f64 = 0.2;

impl<T> RunQueue<T> {
    /// Creates an empty queue for `pu` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.tokens` is zero: a PU with no service tokens could
    /// never drain.
    pub fn new(pu: PuId, policy: QueuePolicy) -> RunQueue<T> {
        assert!(policy.tokens > 0, "a run queue needs at least one service token");
        RunQueue {
            pu,
            policy,
            entries: SfqQueue::new(),
            weights: BTreeMap::new(),
            in_service: 0,
            in_service_by: BTreeMap::new(),
            next_ticket: 0,
            ewma_service_ns: 0.0,
            served: 0,
        }
    }

    /// The PU this queue feeds.
    pub fn pu(&self) -> PuId {
        self.pu
    }

    /// The sizing policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Entries waiting (not yet dispatched).
    pub fn queued(&self) -> usize {
        self.entries.len()
    }

    /// Queued entries per tenant, sorted by tenant id.
    pub fn queued_by_tenant(&self) -> Vec<(TenantId, usize)> {
        self.entries.queued_by_tenant()
    }

    /// Entries currently in service (dispatched, not finished).
    pub fn in_service(&self) -> usize {
        self.in_service
    }

    /// In-service tokens held per tenant, sorted by tenant id.
    pub fn in_service_by_tenant(&self) -> Vec<(TenantId, usize)> {
        self.in_service_by.iter().filter(|(_, n)| **n > 0).map(|(t, n)| (*t, *n)).collect()
    }

    /// Completed services so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The smoothed service-time estimate, or `fallback` before any entry
    /// has finished.
    pub fn ewma_service_or(&self, fallback: SimDuration) -> SimDuration {
        if self.served == 0 {
            fallback
        } else {
            SimDuration::from_nanos(self.ewma_service_ns as u64)
        }
    }

    /// Estimated queueing delay a new entry would see: outstanding work
    /// (queued + in service) divided over the service tokens, times the
    /// smoothed service time. `fallback_service` seeds the estimate before
    /// the first completion.
    pub fn estimated_wait(&self, fallback_service: SimDuration) -> SimDuration {
        let outstanding = (self.queued() + self.in_service) as f64;
        let per_token = outstanding / self.policy.tokens as f64;
        self.ewma_service_or(fallback_service).mul_f64(per_token)
    }

    /// Offers an entry for the system tenant at weight 1 — the pre-tenancy
    /// entry point; all existing call sites behave exactly as before.
    #[allow(clippy::result_large_err)]
    pub fn offer(
        &mut self,
        now: SimTime,
        deadline: Option<SimTime>,
        payload: T,
    ) -> Result<Ticket, (Overloaded, T)> {
        self.offer_for(now, TenantId::SYSTEM, 1, false, deadline, payload)
    }

    /// Offers an entry for `tenant` with its WFQ `weight`. `batch` marks it
    /// batch-class: eligible for [`evict_batch`](Self::evict_batch) when a
    /// latency-class admission finds the queue full. Returns the admission
    /// ticket, or the payload back with a typed [`Overloaded`] when the
    /// queue is at its depth bound.
    #[allow(clippy::result_large_err)]
    pub fn offer_for(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        weight: u32,
        batch: bool,
        deadline: Option<SimTime>,
        payload: T,
    ) -> Result<Ticket, (Overloaded, T)> {
        if self.queued() >= self.policy.depth {
            return Err((
                Overloaded::QueueFull { pu: self.pu, depth: self.policy.depth, tenant },
                payload,
            ));
        }
        Ok(self.force_for(now, tenant, weight, batch, deadline, payload))
    }

    /// Enqueues for the system tenant bypassing the depth bound — see
    /// [`force_for`](Self::force_for).
    pub fn force(&mut self, now: SimTime, deadline: Option<SimTime>, payload: T) -> Ticket {
        self.force_for(now, TenantId::SYSTEM, 1, false, deadline, payload)
    }

    /// Enqueues bypassing the depth bound — the failover path. Entries
    /// drained off a dead PU must land *somewhere*: bouncing them off a full
    /// survivor would turn a PU failure into silent request loss, so
    /// conservation wins over the bound here. Normal admission always goes
    /// through [`offer_for`](Self::offer_for).
    pub fn force_for(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        weight: u32,
        batch: bool,
        deadline: Option<SimTime>,
        payload: T,
    ) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.weights.insert(tenant, weight.max(1));
        self.entries.push(
            tenant,
            weight,
            Entry { ticket, batch, enqueued_at: now, deadline, payload },
        );
        ticket
    }

    /// Per-tenant in-service token caps: each tenant that is currently
    /// active (queued or in service) may hold up to its weight share of the
    /// tokens, rounded up. With a single active tenant the cap equals the
    /// whole token pool, so gating only bites under contention.
    fn service_caps(&self) -> BTreeMap<TenantId, usize> {
        let mut active: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (tenant, _) in self.entries.queued_by_tenant() {
            active.entry(tenant).or_insert_with(|| u64::from(self.weight_of(tenant)));
        }
        for (tenant, n) in &self.in_service_by {
            if *n > 0 {
                active.entry(*tenant).or_insert_with(|| u64::from(self.weight_of(*tenant)));
            }
        }
        let total: u64 = active.values().sum();
        if total == 0 {
            return BTreeMap::new();
        }
        let tokens = self.policy.tokens as u64;
        active
            .into_iter()
            .map(|(t, w)| (t, ((tokens * w).div_ceil(total)).max(1) as usize))
            .collect()
    }

    fn weight_of(&self, tenant: TenantId) -> u32 {
        self.weights.get(&tenant).copied().unwrap_or(1)
    }

    /// Dispatches the next entry (smallest SFQ virtual start time), marking
    /// one token busy. Returns `None` when nothing is queued. Does **not**
    /// check the total token bound — the caller's worker processes *are*
    /// the tokens; a worker only calls `begin` when it holds one. It *does* enforce the per-tenant share
    /// cap: a tenant already at its share is skipped while an under-share
    /// tenant has queued work, falling back to an unfiltered pop so idle
    /// share is never wasted.
    pub fn begin(&mut self, now: SimTime) -> Option<Queued<T>> {
        let caps = self.service_caps();
        let held = &self.in_service_by;
        let (tenant, entry) = self
            .entries
            .pop_where(|t| {
                held.get(&t).copied().unwrap_or(0) < caps.get(&t).copied().unwrap_or(usize::MAX)
            })
            .or_else(|| self.entries.pop())?;
        self.in_service += 1;
        *self.in_service_by.entry(tenant).or_default() += 1;
        Some(entry.leave(tenant, now))
    }

    /// Completes one in-service entry for `tenant`, returning its token and
    /// folding the observed `service` time into the EWMA estimate.
    pub fn finish(&mut self, tenant: TenantId, service: SimDuration) {
        debug_assert!(self.in_service > 0, "finish without begin");
        self.release(tenant);
        self.served += 1;
        let obs = service.as_nanos() as f64;
        self.ewma_service_ns = if self.served == 1 {
            obs
        } else {
            EWMA_ALPHA * obs + (1.0 - EWMA_ALPHA) * self.ewma_service_ns
        };
    }

    /// Returns `tenant`'s token without recording a service observation —
    /// the failover path, where the dispatched entry never ran to
    /// completion on this PU.
    pub fn abandon(&mut self, tenant: TenantId) {
        debug_assert!(self.in_service > 0, "abandon without begin");
        self.release(tenant);
    }

    fn release(&mut self, tenant: TenantId) {
        self.in_service = self.in_service.saturating_sub(1);
        if let Some(n) = self.in_service_by.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.in_service_by.remove(&tenant);
            }
        }
    }

    /// Removes and returns every queued entry whose deadline has passed —
    /// the load-shedding sweep a worker runs before dispatching.
    pub fn shed_expired(&mut self, now: SimTime) -> Vec<Queued<T>> {
        self.entries
            .remove_where(|_, e| e.deadline.is_some_and(|d| d <= now))
            .into_iter()
            .map(|(tenant, entry)| entry.leave(tenant, now))
            .collect()
    }

    /// Evicts the *youngest* queued batch-class entry, if any — the
    /// fairness-shedding primitive: when a latency-class admission finds
    /// the queue full, one batch entry gives up its slot (batch SLOs absorb
    /// retries; latency SLOs do not). Youngest-first keeps the oldest batch
    /// work (closest to dispatch) intact.
    pub fn evict_batch(&mut self, now: SimTime) -> Option<Queued<T>> {
        let ticket = self
            .entries
            .iter()
            .filter(|(_, e)| e.batch)
            .max_by_key(|(_, e)| (e.enqueued_at, e.ticket))
            .map(|(_, e)| e.ticket)?;
        let (tenant, entry) = self.entries.remove_where(|_, e| e.ticket == ticket).pop()?;
        Some(entry.leave(tenant, now))
    }

    /// Removes and returns every queued entry, dispatch order preserved —
    /// the dead-PU path: the health checker drains the queue so the gateway
    /// can re-place every entry on a survivor. Does not touch the service
    /// tokens.
    pub fn drain(&mut self, now: SimTime) -> Vec<Queued<T>> {
        std::iter::from_fn(|| self.entries.pop()).map(|(t, e)| e.leave(t, now)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn offer_rejects_beyond_depth_with_typed_overload() {
        let mut q = RunQueue::new(PuId(1), QueuePolicy { depth: 2, tokens: 1 });
        q.offer(t(0), None, "a").unwrap();
        q.offer(t(1), None, "b").unwrap();
        let (err, payload) = q.offer(t(2), None, "c").unwrap_err();
        assert_eq!(payload, "c", "the payload comes back to the caller");
        assert!(matches!(
            err,
            Overloaded::QueueFull { pu: PuId(1), depth: 2, tenant: TenantId::SYSTEM }
        ));
        assert_eq!(err.tenant(), TenantId::SYSTEM);
        assert_eq!(q.queued(), 2);
    }

    #[test]
    fn dispatch_is_fifo_in_offer_order() {
        let mut q = RunQueue::new(PuId(0), QueuePolicy { depth: 8, tokens: 2 });
        for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            q.offer(t(i as u64), None, name).unwrap();
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.begin(t(10)).map(|e| e.payload)).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        assert_eq!(q.in_service(), 4);
    }

    #[test]
    fn backlogged_tenants_share_a_lane_by_weight() {
        let mut q = RunQueue::new(PuId(0), QueuePolicy { depth: 64, tokens: 4 });
        for i in 0..12u32 {
            q.offer_for(t(0), TenantId(1), 3, false, None, i).unwrap();
            q.offer_for(t(0), TenantId(2), 1, false, None, 100 + i).unwrap();
        }
        let mut counts = [0u32; 3];
        for _ in 0..8 {
            let e = q.begin(t(1)).unwrap();
            q.finish(e.tenant, SimDuration::from_millis(1));
            counts[e.tenant.raw() as usize] += 1;
        }
        // Weight 3 vs 1: of 8 dispatches, ~6 go to tenant 1.
        assert!((5..=7).contains(&counts[1]), "tenant 1 got {}", counts[1]);
        assert!(counts[2] >= 1, "tenant 2 is never starved");
    }

    #[test]
    fn token_cap_skips_an_over_share_tenant_while_a_victim_waits() {
        // Two tokens, two equal-weight tenants: tenant 1 already holds one
        // token, so the next dispatch must come from tenant 2's sub-queue
        // even though tenant 1's head has the smaller SFQ start tag.
        let mut q = RunQueue::new(PuId(0), QueuePolicy { depth: 64, tokens: 2 });
        for i in 0..4u32 {
            q.offer_for(t(i as u64), TenantId(1), 1, false, None, i).unwrap();
        }
        q.offer_for(t(10), TenantId(2), 1, false, None, 100).unwrap();
        let first = q.begin(t(11)).unwrap();
        assert_eq!(first.tenant, TenantId(1), "smallest start tag dispatches first");
        let second = q.begin(t(11)).unwrap();
        assert_eq!(second.tenant, TenantId(2), "cap diverts the second token to the victim");
        // With tenant 2 drained, work conservation hands tenant 1 the rest.
        q.finish(TenantId(2), SimDuration::from_millis(1));
        let third = q.begin(t(12)).unwrap();
        assert_eq!(third.tenant, TenantId(1));
        assert_eq!(q.in_service_by_tenant(), vec![(TenantId(1), 2)]);
    }

    #[test]
    fn shed_expired_removes_only_past_deadline_entries() {
        let mut q = RunQueue::new(PuId(0), QueuePolicy::default());
        q.offer(t(0), Some(t(5)), "expires").unwrap();
        q.offer(t(0), Some(t(500)), "survives").unwrap();
        q.offer(t(0), None, "no-deadline").unwrap();
        let shed = q.shed_expired(t(10));
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].payload, "expires");
        assert_eq!(shed[0].waited, SimDuration::from_micros(10));
        assert_eq!(q.queued(), 2);
    }

    #[test]
    fn evict_batch_takes_the_youngest_batch_entry_only() {
        let mut q = RunQueue::new(PuId(0), QueuePolicy { depth: 4, tokens: 1 });
        q.offer_for(t(0), TenantId(1), 1, true, None, "old-batch").unwrap();
        q.offer_for(t(1), TenantId(2), 1, false, None, "latency").unwrap();
        q.offer_for(t(2), TenantId(1), 1, true, None, "young-batch").unwrap();
        let victim = q.evict_batch(t(3)).unwrap();
        assert_eq!(victim.payload, "young-batch");
        assert!(victim.batch);
        assert_eq!(q.queued(), 2);
        // No batch work left after the second eviction: latency entries are
        // never fairness-shed.
        q.evict_batch(t(4)).unwrap();
        assert!(q.evict_batch(t(5)).is_none());
        assert_eq!(q.begin(t(6)).unwrap().payload, "latency");
    }

    #[test]
    fn ewma_and_wait_estimates_track_service_times() {
        let mut q: RunQueue<u32> = RunQueue::new(PuId(0), QueuePolicy { depth: 8, tokens: 2 });
        let fallback = SimDuration::from_millis(1);
        assert_eq!(q.estimated_wait(fallback), SimDuration::ZERO);
        q.offer(t(0), None, 1).unwrap();
        q.begin(t(0)).unwrap();
        q.finish(TenantId::SYSTEM, SimDuration::from_millis(10));
        assert_eq!(q.ewma_service_or(fallback), SimDuration::from_millis(10));
        // Two outstanding over two tokens = one smoothed service time.
        q.offer(t(1), None, 2).unwrap();
        q.offer(t(1), None, 3).unwrap();
        assert_eq!(q.estimated_wait(fallback), SimDuration::from_millis(10));
    }

    #[test]
    fn drain_returns_everything_in_dispatch_order() {
        let mut q = RunQueue::new(PuId(2), QueuePolicy { depth: 8, tokens: 1 });
        q.offer(t(0), None, "a").unwrap();
        q.offer(t(0), None, "b").unwrap();
        let drained: Vec<&str> = q.drain(t(1)).into_iter().map(|e| e.payload).collect();
        assert_eq!(drained, ["a", "b"]);
        assert_eq!(q.queued(), 0);
        assert_eq!(q.in_service(), 0);
    }
}
