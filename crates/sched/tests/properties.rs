//! Property-based tests of the run-queue invariants the scheduler leans on:
//! bounded depth, FIFO dispatch order, exact deadline shedding, and conservation — every admitted ticket leaves the queue
//! exactly once (served, shed, or drained), never lost, never dispatched
//! twice — including under `force` (failover) admissions that bypass the
//! depth bound. With several tenants, every dispatch matches a reference
//! model that computes the per-tenant share caps on every `begin`.

use std::collections::BTreeMap;

use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use molecule_sched::queue::{QueuePolicy, RunQueue, Ticket};
use molecule_tenancy::{SfqQueue, TenantId};
use proptest::prelude::*;

/// Reference model: one FIFO of (ticket, deadline).
#[derive(Default)]
struct Model {
    fifo: Vec<(Ticket, Option<SimTime>)>,
}

impl Model {
    fn len(&self) -> usize {
        self.fifo.len()
    }

    fn push(&mut self, ticket: Ticket, deadline: Option<SimTime>) {
        self.fifo.push((ticket, deadline));
    }

    /// The entry `begin` must return: the oldest queued ticket.
    fn expected_head(&mut self) -> Option<Ticket> {
        (!self.fifo.is_empty()).then(|| self.fifo.remove(0).0)
    }

    /// Removes and returns every entry with `deadline <= now`.
    fn expired(&mut self, now: SimTime) -> Vec<Ticket> {
        let mut out = Vec::new();
        self.fifo.retain(|(t, dl)| {
            if dl.is_some_and(|d| d <= now) {
                out.push(*t);
                false
            } else {
                true
            }
        });
        out.sort();
        out
    }

    fn drain_all(&mut self) -> usize {
        let n = self.len();
        self.fifo.clear();
        n
    }
}

/// Reference model for multi-tenant dispatch: every `begin` builds the
/// per-tenant share caps into a map (each active tenant may hold its weight
/// share of the tokens, rounded up), pops the smallest start tag among
/// tenants under their cap, and falls back to an unfiltered pop. This is
/// the computation `RunQueue::begin` made on every dispatch before it
/// skipped the caps with at most one tenant queued.
struct CappedModel {
    tokens: usize,
    sfq: SfqQueue<(Ticket, Option<SimTime>)>,
    weights: BTreeMap<TenantId, u32>,
    in_service_by: BTreeMap<TenantId, usize>,
}

impl CappedModel {
    fn new(tokens: usize) -> CappedModel {
        CappedModel {
            tokens,
            sfq: SfqQueue::new(),
            weights: BTreeMap::new(),
            in_service_by: BTreeMap::new(),
        }
    }

    fn push(&mut self, tenant: TenantId, weight: u32, ticket: Ticket, deadline: Option<SimTime>) {
        self.weights.insert(tenant, weight.max(1));
        self.sfq.push(tenant, weight, (ticket, deadline));
    }

    fn weight_of(&self, tenant: TenantId) -> u32 {
        self.weights.get(&tenant).copied().unwrap_or(1)
    }

    fn service_caps(&self) -> BTreeMap<TenantId, usize> {
        let mut active: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (tenant, _) in self.sfq.queued_by_tenant() {
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
        let tokens = self.tokens as u64;
        active
            .into_iter()
            .map(|(t, w)| (t, ((tokens * w).div_ceil(total)).max(1) as usize))
            .collect()
    }

    fn begin(&mut self) -> Option<(TenantId, Ticket)> {
        let caps = self.service_caps();
        let held = &self.in_service_by;
        let (tenant, (ticket, _)) = self
            .sfq
            .pop_where(|t| {
                held.get(&t).copied().unwrap_or(0) < caps.get(&t).copied().unwrap_or(usize::MAX)
            })
            .or_else(|| self.sfq.pop())?;
        *self.in_service_by.entry(tenant).or_default() += 1;
        Some((tenant, ticket))
    }

    fn release(&mut self, tenant: TenantId) {
        if let Some(n) = self.in_service_by.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                self.in_service_by.remove(&tenant);
            }
        }
    }

    fn shed(&mut self, now: SimTime) -> Vec<(TenantId, Ticket)> {
        self.sfq
            .remove_where(|_, (_, deadline)| deadline.is_some_and(|d| d <= now))
            .into_iter()
            .map(|(tenant, (ticket, _))| (tenant, ticket))
            .collect()
    }
}

proptest! {
    /// Mixed op streams preserve every invariant at every step: the depth
    /// bound (modulo forced failover entries), FIFO dispatch, exact deadline shedding, and conservation of admitted tickets.
    #[test]
    fn run_queue_conserves_admits_and_orders_fifo(
        depth in 1usize..6,
        tokens in 1usize..4,
        ops in proptest::collection::vec((0u8..7, 0u8..12), 1..120),
    ) {
        let mut q: RunQueue<u64> = RunQueue::new(PuId(1), QueuePolicy { depth, tokens });
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        let mut admitted = 0u64;   // tickets that entered the queue
        let mut resolved = 0u64;   // tickets that left it (begun, shed, drained)
        let mut in_service = 0usize;

        for (op, arg) in ops {
            let arg = arg as u64;
            match op {
                // offer: admitted iff below the depth bound.
                0 => {
                    let was_full = q.queued() >= depth;
                    let deadline = arg
                        .is_multiple_of(4)
                        .then(|| now + SimDuration::from_millis(arg % 8));
                    match q.offer(now, deadline, payload) {
                        Ok(ticket) => {
                            prop_assert!(!was_full, "offer succeeded on a full queue");
                            model.push(ticket, deadline);
                            admitted += 1;
                        }
                        Err(_) => prop_assert!(was_full, "offer bounced below the bound"),
                    }
                    payload += 1;
                }
                // force: always admitted, even past the bound.
                1 => {
                    let ticket = q.force(now, None, payload);
                    model.push(ticket, None);
                    admitted += 1;
                    payload += 1;
                }
                // begin: must dispatch the FIFO head.
                2 => match q.begin(now) {
                    Some(entry) => {
                        let ticket =
                            model.expected_head().expect("queue non-empty implies model non-empty");
                        prop_assert_eq!(entry.ticket, ticket, "begin broke FIFO order");
                        resolved += 1;
                        in_service += 1;
                    }
                    None => prop_assert_eq!(model.len(), 0),
                },
                // finish / abandon: release a token.
                3 | 4 => {
                    if in_service > 0 {
                        if op == 3 {
                            q.finish(TenantId::SYSTEM, SimDuration::from_millis(1 + arg));
                        } else {
                            q.abandon(TenantId::SYSTEM);
                        }
                        in_service -= 1;
                    }
                }
                // advance time and shed: exactly the expired entries leave.
                5 => {
                    now += SimDuration::from_millis(arg);
                    let mut shed: Vec<Ticket> =
                        q.shed_expired(now).into_iter().map(|e| e.ticket).collect();
                    shed.sort();
                    prop_assert_eq!(&shed, &model.expired(now), "shed set mismatch at {:?}", now);
                    resolved += shed.len() as u64;
                }
                // drain (failover): everything queued leaves at once.
                _ => {
                    let drained = q.drain(now);
                    prop_assert_eq!(drained.len(), model.drain_all(), "drain lost entries");
                    resolved += drained.len() as u64;
                }
            }
            // Standing invariants after every op.
            prop_assert_eq!(q.queued(), model.len(), "queue depth disagrees with model");
            prop_assert_eq!(q.in_service(), in_service);
            prop_assert_eq!(admitted - resolved, model.len() as u64, "conservation violated");
        }

        // Terminal drain: whatever is left comes out exactly once.
        let rest = q.drain(now);
        prop_assert_eq!(rest.len(), model.drain_all());
        resolved += rest.len() as u64;
        prop_assert_eq!(admitted, resolved, "some admitted ticket never resolved");
        prop_assert_eq!(q.queued(), 0);
    }

    /// Tickets are unique across offer and force — the double-dispatch guard.
    #[test]
    fn tickets_never_repeat(ops in proptest::collection::vec(any::<u8>(), 1..80)) {
        let mut q: RunQueue<()> = RunQueue::new(PuId(0), QueuePolicy { depth: usize::MAX, tokens: 1 });
        let mut seen = std::collections::BTreeSet::new();
        let now = SimTime::ZERO;
        for op in ops {
            let ticket = if op % 2 == 0 {
                q.offer(now, None, ()).expect("unbounded queue admits")
            } else {
                q.force(now, None, ())
            };
            prop_assert!(seen.insert(ticket), "ticket {:?} issued twice", ticket);
        }
    }

    /// With 1–4 tenants of weights 1–4 over 1–4 tokens, every `begin`
    /// dispatches the same tenant and ticket as the capped reference model,
    /// through offers, forced failover entries, finishes, abandons and
    /// deadline sheds — so the single-tenant fast path and the map-free cap
    /// computation pick exactly what the capped pop picks.
    #[test]
    fn multi_tenant_begin_matches_the_capped_model(
        weights in proptest::collection::vec(1u32..=4, 1..5),
        tokens in 1usize..=4,
        depth in 1usize..8,
        ops in proptest::collection::vec((0u8..8, 0u8..16), 1..200),
    ) {
        let mut q: RunQueue<u64> = RunQueue::new(PuId(0), QueuePolicy { depth, tokens });
        let mut model = CappedModel::new(tokens);
        let mut now = SimTime::ZERO;
        for (i, (op, arg)) in ops.into_iter().enumerate() {
            let tenant_ix = usize::from(arg) % weights.len();
            let tenant = TenantId(tenant_ix as u32 + 1);
            let weight = weights[tenant_ix];
            let deadline =
                (arg % 3 == 0).then(|| now + SimDuration::from_millis(u64::from(arg % 5)));
            match op {
                // offer: the depth bound applies to every tenant alike.
                0 | 1 => {
                    let was_full = q.queued() >= depth;
                    match q.offer_for(now, tenant, weight, false, deadline, i as u64) {
                        Ok(ticket) => model.push(tenant, weight, ticket, deadline),
                        Err(_) => prop_assert!(was_full, "offer bounced below the bound"),
                    }
                }
                // force: failover entries bypass the bound.
                2 => {
                    let ticket = q.force_for(now, tenant, weight, false, deadline, i as u64);
                    model.push(tenant, weight, ticket, deadline);
                }
                // begin: the pick must be the capped model's.
                3 | 4 => {
                    let got = q.begin(now).map(|e| (e.tenant, e.ticket));
                    prop_assert_eq!(got, model.begin(), "dispatch diverged at op {}", i);
                }
                // finish / abandon a token some tenant holds.
                5 | 6 => {
                    let held: Vec<TenantId> = model.in_service_by.keys().copied().collect();
                    if !held.is_empty() {
                        let owner = held[usize::from(arg) % held.len()];
                        if op == 5 {
                            q.finish(owner, SimDuration::from_millis(1));
                        } else {
                            q.abandon(owner);
                        }
                        model.release(owner);
                    }
                }
                // advance time and shed: the same entries leave, in order.
                _ => {
                    now += SimDuration::from_millis(u64::from(arg % 4));
                    let shed: Vec<(TenantId, Ticket)> =
                        q.shed_expired(now).into_iter().map(|e| (e.tenant, e.ticket)).collect();
                    prop_assert_eq!(shed, model.shed(now), "shed set diverged at op {}", i);
                }
            }
            prop_assert_eq!(q.queued_by_tenant(), model.sfq.queued_by_tenant());
            let held: Vec<(TenantId, usize)> =
                model.in_service_by.iter().map(|(t, n)| (*t, *n)).collect();
            prop_assert_eq!(q.in_service_by_tenant(), held);
        }
    }
}
