//! A replica's committed cache with its digest memoized.

use std::cell::Cell;

use crate::region::digest;

/// The committed bytes of one replica plus their [`digest`], computed at
/// most once per change. The bytes are writable only through
/// [`bytes_mut`](Committed::bytes_mut), which forgets the memo, so a cached
/// digest is always the digest of the current bytes. A clone carries the
/// memo along with the bytes it describes. The memo is a `Cell`, so a
/// snapshot fills it through a shared borrow and leaves the layer's
/// mutation epoch alone.
#[derive(Clone)]
pub(crate) struct Committed {
    bytes: Vec<u8>,
    digest: Cell<Option<u64>>,
}

impl Committed {
    /// `size` zero bytes (version 0 of every region).
    pub(crate) fn zeroed(size: usize) -> Committed {
        Committed { bytes: vec![0; size], digest: Cell::new(None) }
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the bytes; drops the memoized digest.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        self.digest.set(None);
        &mut self.bytes
    }

    /// The digest of the current bytes, hashing them only if they changed
    /// since the last call.
    pub(crate) fn digest(&self) -> u64 {
        if let Some(d) = self.digest.get() {
            return d;
        }
        let d = digest(&self.bytes);
        self.digest.set(Some(d));
        d
    }
}
