//! Start-time fair queueing (SFQ) across per-tenant sub-queues.
//!
//! Classic SFQ (Goyal et al.): every enqueued item gets a *start tag*
//! `S = max(V, F_tenant)` where `V` is the queue's virtual time and
//! `F_tenant` the tenant's last finish tag; the item's finish tag is
//! `F = S + quantum / weight`, which becomes the tenant's new `F_tenant`.
//! Dispatch always picks the queued head with the smallest start tag and
//! advances `V` to it. Two properties fall out:
//!
//! * **weighted fairness** — a backlogged tenant's finish tags advance at
//!   `quantum / weight` per item, so over any saturated interval its
//!   dispatch count is proportional to its weight;
//! * **work conservation** — an idle tenant has no queued head, so its
//!   unused share flows to whoever is backlogged; when it returns, its
//!   start tag is re-based at `max(V, F)`, which forgives the idle period
//!   instead of letting it bank credit.
//!
//! The structure is a pure deterministic container (ties break on the
//! smaller [`TenantId`]) — `molecule-sched`'s `RunQueue` embeds one, and
//! the property tests in `tests/properties.rs` drive it directly.

use std::collections::{BTreeMap, VecDeque};

use crate::id::TenantId;

/// Virtual-time units one weight-1 dispatch accounts for. Large enough
/// that integer division by any realistic weight keeps fine resolution.
const QUANTUM: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct Item<T> {
    start: u64,
    value: T,
}

#[derive(Debug, Clone)]
struct Lane<T> {
    last_finish: u64,
    items: VecDeque<Item<T>>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane { last_finish: 0, items: VecDeque::new() }
    }
}

/// A weighted fair queue over per-tenant sub-queues.
#[derive(Debug, Clone)]
pub struct SfqQueue<T> {
    vtime: u64,
    lanes: BTreeMap<TenantId, Lane<T>>,
    len: usize,
}

impl<T> Default for SfqQueue<T> {
    fn default() -> Self {
        SfqQueue::new()
    }
}

impl<T> SfqQueue<T> {
    /// An empty queue at virtual time zero.
    pub fn new() -> SfqQueue<T> {
        SfqQueue { vtime: 0, lanes: BTreeMap::new(), len: 0 }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items per tenant, sorted by tenant id.
    pub fn queued_by_tenant(&self) -> Vec<(TenantId, usize)> {
        self.lanes
            .iter()
            .filter(|(_, l)| !l.items.is_empty())
            .map(|(t, l)| (*t, l.items.len()))
            .collect()
    }

    /// Enqueues `value` for `tenant` with `weight` (clamped to at least 1).
    pub fn push(&mut self, tenant: TenantId, weight: u32, value: T) {
        let lane = self.lanes.entry(tenant).or_default();
        let start = self.vtime.max(lane.last_finish);
        lane.last_finish = start + QUANTUM / u64::from(weight.max(1));
        lane.items.push_back(Item { start, value });
        self.len += 1;
    }

    /// Dispatches the queued head with the smallest start tag (ties break
    /// on the smaller tenant id) and advances virtual time to it.
    pub fn pop(&mut self) -> Option<(TenantId, T)> {
        self.pop_where(|_| true)
    }

    /// As [`pop`](Self::pop), but only considers tenants `allow` accepts.
    /// Returns `None` when no allowed tenant has queued work — callers
    /// implementing share caps fall back to an unfiltered `pop` so the
    /// queue stays work-conserving.
    pub fn pop_where(&mut self, mut allow: impl FnMut(TenantId) -> bool) -> Option<(TenantId, T)> {
        let tenant = self
            .lanes
            .iter()
            .filter(|(t, l)| !l.items.is_empty() && allow(**t))
            .min_by_key(|(t, l)| (l.items.front().expect("non-empty").start, **t))
            .map(|(t, _)| *t)?;
        let lane = self.lanes.get_mut(&tenant).expect("lane exists");
        let item = lane.items.pop_front().expect("non-empty");
        self.len -= 1;
        self.vtime = self.vtime.max(item.start);
        // Drop fully-caught-up idle lanes so the map stays bounded by the
        // set of *recently active* tenants. A lane whose finish tag is
        // still ahead of virtual time keeps its debt recorded.
        if lane.items.is_empty() && lane.last_finish <= self.vtime {
            self.lanes.remove(&tenant);
        }
        Some((tenant, item.value))
    }

    /// Removes and returns every queued item matching `pred`, in per-lane
    /// FIFO order (tenants in id order). Remaining items keep their tags.
    pub fn remove_where(
        &mut self,
        mut pred: impl FnMut(TenantId, &T) -> bool,
    ) -> Vec<(TenantId, T)> {
        let mut out = Vec::new();
        for (&tenant, lane) in self.lanes.iter_mut() {
            let mut keep = VecDeque::with_capacity(lane.items.len());
            for item in lane.items.drain(..) {
                if pred(tenant, &item.value) {
                    out.push((tenant, item.value));
                } else {
                    keep.push_back(item);
                }
            }
            lane.items = keep;
        }
        self.len -= out.len();
        let vtime = self.vtime;
        self.lanes.retain(|_, l| !l.items.is_empty() || l.last_finish > vtime);
        out
    }

    /// Immutable walk over every queued item, per-lane FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &T)> {
        self.lanes.iter().flat_map(|(t, l)| l.items.iter().map(move |i| (*t, &i.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tenant_is_fifo() {
        let mut q = SfqQueue::new();
        for i in 0..5 {
            q.push(TenantId::SYSTEM, 1, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_weights_interleave_backlogged_tenants() {
        let mut q = SfqQueue::new();
        for i in 0..4 {
            q.push(TenantId(1), 1, format!("a{i}"));
        }
        for i in 0..4 {
            q.push(TenantId(2), 1, format!("b{i}"));
        }
        let order: Vec<TenantId> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        // Not eight of tenant 1 then eight of tenant 2: the lanes alternate.
        assert_eq!(order, [1, 2, 1, 2, 1, 2, 1, 2].map(TenantId));
    }

    #[test]
    fn dispatch_count_tracks_weight_under_saturation() {
        let mut q = SfqQueue::new();
        for i in 0..90 {
            q.push(TenantId(1), 3, i);
            q.push(TenantId(2), 1, i);
        }
        let mut counts = [0u32; 3];
        for _ in 0..40 {
            let (t, _) = q.pop().unwrap();
            counts[t.raw() as usize] += 1;
        }
        // Weight 3 vs 1: of the first 40 dispatches, ~30 go to tenant 1.
        assert!((28..=32).contains(&counts[1]), "tenant 1 got {}", counts[1]);
    }

    #[test]
    fn idle_tenants_donate_and_rejoin_without_banked_credit() {
        let mut q = SfqQueue::new();
        for i in 0..10 {
            q.push(TenantId(1), 1, i);
        }
        // Tenant 2 is idle: tenant 1 takes everything (work conservation).
        for _ in 0..6 {
            assert_eq!(q.pop().unwrap().0, TenantId(1));
        }
        // Tenant 2 arrives late: it competes from current virtual time, it
        // does not pre-empt with six dispatches of banked credit.
        q.push(TenantId(2), 1, 100);
        let next_two: Vec<TenantId> = (0..2).map(|_| q.pop().unwrap().0).collect();
        assert!(next_two.contains(&TenantId(2)), "late tenant gets its share promptly");
        assert!(next_two.contains(&TenantId(1)), "but does not monopolize");
    }

    #[test]
    fn pop_where_filters_and_remove_where_preserves_the_rest() {
        let mut q = SfqQueue::new();
        q.push(TenantId(1), 1, 10);
        q.push(TenantId(2), 1, 20);
        q.push(TenantId(2), 1, 21);
        let (t, v) = q.pop_where(|t| t == TenantId(2)).unwrap();
        assert_eq!((t, v), (TenantId(2), 20));
        assert!(q.pop_where(|t| t == TenantId(9)).is_none());
        let removed = q.remove_where(|_, v| *v >= 20);
        assert_eq!(removed, vec![(TenantId(2), 21)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.queued_by_tenant(), vec![(TenantId(1), 1)]);
        assert_eq!(q.pop(), Some((TenantId(1), 10)));
        assert!(q.is_empty());
    }
}
