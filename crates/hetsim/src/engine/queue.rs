//! The engine's pending-event set: one binary heap keyed by `(time, seq)`.
//!
//! `seq` is a monotone counter assigned at schedule time and unique per
//! event, so keys are totally ordered and same-instant ties resolve in
//! schedule order — the engine's determinism rule.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event, ordered by *reversed* `(time, seq)` so the max-heap
/// pops the earliest event first.
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Pending events, popped in exact `(time in ns, seq)` order.
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` at `time` ns under the next sequence number.
    pub(crate) fn push(&mut self, time: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_at(time, seq, payload);
    }

    /// Re-inserts an event under its already-assigned key — used when a
    /// schedule policy defers same-instant events, which must keep their
    /// original keys. Does not advance the sequence counter.
    pub(crate) fn push_at(&mut self, time: u64, seq: u64, payload: T) {
        self.heap.push(Entry { time, seq, payload });
    }

    /// Time of the earliest pending event, without popping it.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest pending event as `(time, seq, payload)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.payload))
    }
}
