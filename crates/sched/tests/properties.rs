//! Property-based tests of the run-queue invariants the scheduler leans on:
//! bounded depth, FIFO dispatch order, exact deadline shedding, and conservation — every admitted ticket leaves the queue
//! exactly once (served, shed, or drained), never lost, never dispatched
//! twice — including under `force` (failover) admissions that bypass the
//! depth bound.

use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use molecule_sched::queue::{QueuePolicy, RunQueue, Ticket};
use molecule_tenancy::TenantId;
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
}
