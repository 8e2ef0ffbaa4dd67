//! Per-link shared-segment arena for zero-copy payload hand-off.
//!
//! Large nIPC writes do not stage their payload through the XPUcall shared
//! memory and again through the FIFO: the writer places the bytes **once**
//! in a segment slot registered for the (writer PU, reader PU) link, and the
//! FIFO carries only a small capability-guarded [`SegDescriptor`]. The
//! reader's shim resolves the descriptor when the message is consumed —
//! the same one-copy discipline the FPGA runtime gets from DRAM data
//! retention (paper Fig. 13), generalized to the CPU↔DPU RDMA legs.
//!
//! Descriptors are one-shot: resolving a slot consumes it, and a descriptor
//! whose token or FIFO does not match the parked slot is rejected with
//! [`ShimError::BadDescriptor`], so a forged or replayed descriptor cannot
//! read another link's payload.

use std::collections::HashMap;

use bytes::Bytes;
use hetsim::pu::PuId;
use parking_lot::Mutex;

use crate::error::ShimError;
use crate::id::GlobalUuid;
use crate::watched::Watched;

/// A capability-guarded reference to a payload parked in a shared-segment
/// slot. This is what travels through the FIFO instead of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegDescriptor {
    pub(crate) slot: u64,
    pub(crate) len: u64,
    pub(crate) token: u64,
    /// Rack node whose arena parks the payload. Descriptors travel across
    /// node boundaries; the reader resolves against the *owning* node's
    /// arena so cross-node hand-off stays a single placement.
    pub(crate) node: u16,
}

impl SegDescriptor {
    /// Length in bytes of the parked payload.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the parked payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

struct SegSlot {
    bytes: Bytes,
    token: u64,
    fifo: GlobalUuid,
    #[cfg_attr(not(test), allow(dead_code))]
    link: (PuId, PuId),
}

#[derive(Default)]
struct ArenaState {
    slots: HashMap<u64, SegSlot>,
    next_slot: u64,
    next_token: u64,
}

/// The cluster-wide arena of shared-segment slots, keyed by slot id and
/// guarded by per-slot capability tokens. Every place, reclaim and
/// successful resolve moves the arena's mutation [`epoch`](Self::epoch).
#[derive(Default)]
pub(crate) struct SegmentArena {
    inner: Mutex<Watched<ArenaState>>,
}

/// SplitMix64: turns the sequential slot counter into an unguessable-looking
/// but fully deterministic capability token.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SegmentArena {
    /// Parks `bytes` in a fresh slot on the `from → to` link for `fifo` and
    /// returns the descriptor to send in the payload's place.
    pub(crate) fn place(
        &self,
        from: PuId,
        to: PuId,
        fifo: GlobalUuid,
        bytes: Bytes,
    ) -> SegDescriptor {
        let mut guard = self.inner.lock();
        let st = guard.get_mut();
        let slot = st.next_slot;
        st.next_slot += 1;
        st.next_token += 1;
        let token = mix64(st.next_token);
        let len = bytes.len() as u64;
        st.slots.insert(slot, SegSlot { bytes, token, fifo, link: (from, to) });
        SegDescriptor { slot, len, token, node: 0 }
    }

    /// Consumes a descriptor on behalf of `fifo`'s reader and returns the
    /// parked payload. One-shot: the slot is freed.
    ///
    /// # Errors
    ///
    /// [`ShimError::BadDescriptor`] when the slot does not exist (stale or
    /// replayed descriptor), the token mismatches (forged descriptor), or
    /// the slot was parked for a different FIFO.
    pub(crate) fn resolve(
        &self,
        fifo: &GlobalUuid,
        desc: &SegDescriptor,
    ) -> Result<Bytes, ShimError> {
        let mut st = self.inner.lock();
        let ok = st
            .get()
            .slots
            .get(&desc.slot)
            .is_some_and(|slot| slot.token == desc.token && slot.fifo == *fifo);
        if !ok {
            return Err(ShimError::BadDescriptor);
        }
        Ok(st.get_mut().slots.remove(&desc.slot).expect("checked above").bytes)
    }

    /// Frees every slot parked for `fifo` (close or crash reclamation) and
    /// returns how many were dropped.
    pub(crate) fn reclaim_fifo(&self, fifo: &GlobalUuid) -> usize {
        let mut st = self.inner.lock();
        let slots = &mut st.get_mut().slots;
        let before = slots.len();
        slots.retain(|_, slot| slot.fifo != *fifo);
        before - slots.len()
    }

    /// Slots currently parked and not yet resolved.
    pub(crate) fn outstanding(&self) -> usize {
        self.inner.lock().get().slots.len()
    }

    /// The mutation epoch of the parked slots.
    pub(crate) fn epoch(&self) -> u64 {
        self.inner.lock().epoch()
    }

    /// Parked-slot counts per FIFO, sorted by UUID — deterministic input for
    /// the arena-balance invariant oracle.
    pub(crate) fn parked_by_fifo(&self) -> Vec<(GlobalUuid, usize)> {
        let st = self.inner.lock();
        let mut counts: HashMap<&GlobalUuid, usize> = HashMap::new();
        for slot in st.get().slots.values() {
            *counts.entry(&slot.fifo).or_default() += 1;
        }
        let mut out: Vec<(GlobalUuid, usize)> =
            counts.into_iter().map(|(uuid, n)| (uuid.clone(), n)).collect();
        out.sort();
        out
    }

    /// Slots currently parked on the `from → to` link.
    #[cfg(test)]
    pub(crate) fn outstanding_on(&self, from: PuId, to: PuId) -> usize {
        self.inner.lock().get().slots.values().filter(|s| s.link == (from, to)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uuid(n: u64) -> GlobalUuid {
        GlobalUuid::new(format!("fifo-{n}"))
    }

    #[test]
    fn place_then_resolve_roundtrips_and_consumes_the_slot() {
        let arena = SegmentArena::default();
        let payload = Bytes::from(vec![7u8; 1024]);
        let desc = arena.place(PuId(1), PuId(0), uuid(9), payload.clone());
        assert_eq!(desc.len(), 1024);
        assert_eq!(arena.outstanding(), 1);
        assert_eq!(arena.outstanding_on(PuId(1), PuId(0)), 1);
        let got = arena.resolve(&uuid(9), &desc).unwrap();
        assert_eq!(got, payload);
        assert_eq!(arena.outstanding(), 0);
        // One-shot: a replayed descriptor is dead.
        assert_eq!(arena.resolve(&uuid(9), &desc), Err(ShimError::BadDescriptor));
    }

    #[test]
    fn forged_token_and_wrong_fifo_are_rejected_without_freeing() {
        let arena = SegmentArena::default();
        let desc = arena.place(PuId(1), PuId(0), uuid(9), Bytes::from_static(b"secret"));
        let forged = SegDescriptor { token: desc.token ^ 1, ..desc.clone() };
        assert_eq!(arena.resolve(&uuid(9), &forged), Err(ShimError::BadDescriptor));
        assert_eq!(arena.resolve(&uuid(8), &desc), Err(ShimError::BadDescriptor));
        // The failed attempts must not have consumed the slot.
        assert_eq!(arena.outstanding(), 1);
        assert!(arena.resolve(&uuid(9), &desc).is_ok());
    }

    #[test]
    fn reclaim_drops_only_the_fifos_slots() {
        let arena = SegmentArena::default();
        let d1 = arena.place(PuId(1), PuId(0), uuid(1), Bytes::from_static(b"a"));
        let _d2 = arena.place(PuId(2), PuId(0), uuid(2), Bytes::from_static(b"b"));
        assert_eq!(arena.reclaim_fifo(&uuid(2)), 1);
        assert_eq!(arena.outstanding(), 1);
        assert!(arena.resolve(&uuid(1), &d1).is_ok());
    }

    #[test]
    fn slot_changes_move_the_epoch_and_reads_do_not() {
        let arena = SegmentArena::default();
        let d = arena.place(PuId(1), PuId(0), uuid(1), Bytes::from_static(b"a"));
        let placed = arena.epoch();
        assert!(placed > 0);
        // Reads and a rejected resolve change no slot.
        let forged = SegDescriptor { token: d.token ^ 1, ..d.clone() };
        assert!(arena.resolve(&uuid(1), &forged).is_err());
        assert_eq!((arena.outstanding(), arena.parked_by_fifo().len()), (1, 1));
        assert_eq!(arena.epoch(), placed);
        arena.resolve(&uuid(1), &d).unwrap();
        let resolved = arena.epoch();
        assert!(resolved > placed);
        arena.place(PuId(1), PuId(0), uuid(2), Bytes::from_static(b"b"));
        arena.reclaim_fifo(&uuid(2));
        assert!(arena.epoch() > resolved + 1);
    }

    #[test]
    fn tokens_are_unique_across_slots() {
        let arena = SegmentArena::default();
        let a = arena.place(PuId(1), PuId(0), uuid(1), Bytes::new());
        let b = arena.place(PuId(1), PuId(0), uuid(1), Bytes::new());
        assert_ne!(a.token, b.token);
        assert_ne!(a.slot, b.slot);
        assert!(a.is_empty());
    }
}
