//! Region naming, errors and deterministic snapshots.

use std::fmt;

use hetsim::pu::PuId;
use xpu_shim::{GlobalUuid, ShimError, TenantId};

/// What a shared-state region looks like when it is created: a cluster-wide
/// name plus its fixed page geometry. Regions do not grow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Cluster-unique region name (`weights`, `shuffle-0`, ...).
    pub name: String,
    /// Number of pages in the region.
    pub pages: u64,
    /// Bytes per page.
    pub page_bytes: u64,
    /// The tenant domain the region (and its daemons) lives in. Replicas
    /// can only be attached from the same domain — the guard object's
    /// capability grants refuse everything else.
    pub tenant: TenantId,
}

impl RegionSpec {
    /// A region of `pages` standard 4 KiB pages, in the system domain.
    pub fn new(name: impl Into<String>, pages: u64) -> RegionSpec {
        RegionSpec { name: name.into(), pages, page_bytes: 4096, tenant: TenantId::SYSTEM }
    }

    /// Moves the region into `tenant`'s capability domain (builder style).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> RegionSpec {
        self.tenant = tenant;
        self
    }

    /// Total region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pages * self.page_bytes
    }
}

/// The global UUID a region registers under for generation `gen`.
/// Re-mastering after an owner crash bumps the generation: the old UUID has
/// been reclaimed (exactly once) and may never be reused.
pub(crate) fn region_uuid(name: &str, gen: u64) -> GlobalUuid {
    GlobalUuid::new(format!("region:{name}#g{gen}"))
}

/// Errors from shared-state operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// No region with this name exists (never created, dropped, or lost with
    /// its last replica).
    UnknownRegion(String),
    /// `create_region` found the name taken.
    RegionExists(String),
    /// The PU has no replica of the region (call `attach` first).
    NotAttached(String, PuId),
    /// The PU runs no OS (accelerators cannot host region pages).
    NoOs(PuId),
    /// An access ran past the end of the region.
    OutOfBounds {
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Region size in bytes.
        size: u64,
    },
    /// The region was re-mastered (owner crash) while the operation was in
    /// flight; the caller must retry against the new master.
    Remastered(String),
    /// A shim-level failure (capability denial, dead peer, timeout, ...).
    Shim(ShimError),
    /// A local-OS failure surfaced by the page ledger.
    Os(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnknownRegion(name) => write!(f, "unknown region {name}"),
            StateError::RegionExists(name) => write!(f, "region {name} already exists"),
            StateError::NotAttached(name, pu) => {
                write!(f, "region {name} has no replica on {pu}")
            }
            StateError::NoOs(pu) => write!(f, "{pu} runs no OS to host region pages"),
            StateError::OutOfBounds { offset, len, size } => {
                write!(f, "access [{offset}, {offset}+{len}) outside region of {size} bytes")
            }
            StateError::Remastered(name) => {
                write!(f, "region {name} was re-mastered mid-operation")
            }
            StateError::Shim(e) => write!(f, "shim: {e}"),
            StateError::Os(e) => write!(f, "os: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<ShimError> for StateError {
    fn from(e: ShimError) -> StateError {
        StateError::Shim(e)
    }
}

/// The digest the coherence oracle compares across replicas: an FNV-style
/// hash taken a little-endian `u64` word at a time over four independent
/// lanes, so a 32 KiB cache costs 4,096 multiplies spread over four
/// dependency chains instead of 32,768 in one.
///
/// The lanes start from the FNV offset basis mixed with the length; word
/// `i` goes to lane `i % 4`; a short tail is zero-padded to a whole block;
/// the four lanes fold into one value at the end. Every step — xor in a
/// word, multiply by the odd FNV prime, rotate — is a bijection of both
/// its lane and its word, and so is every fold step. So, as with
/// byte-serial FNV-1a, two inputs of the same length that differ in a
/// single byte always get different digests. Otherwise collisions are
/// irrelevant at the scales the oracle sees.
///
/// The layer computes it once per committed-cache change, not once per
/// snapshot: a replica memoizes its digest until its committed bytes are
/// next written.
pub fn digest(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut lanes = [FNV_BASIS ^ len; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block.try_into().expect("32-byte block"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    lanes.into_iter().fold(FNV_BASIS ^ len, mix)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One hash step. The rotation carries the product's high bits back down,
/// which the multiply alone never does.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(23)
}

/// Mixes the four words of a 32-byte block into the four lanes. The array
/// type lets the optimizer drop the bounds checks and load whole words.
/// Spelled out rather than looped or called per word: unoptimized test
/// builds hash whole committed caches too, and there that halves the cost.
fn absorb(lanes: &mut [u64; 4], b: &[u8; 32]) {
    let w0 = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    let w1 = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
    let w2 = u64::from_le_bytes([b[16], b[17], b[18], b[19], b[20], b[21], b[22], b[23]]);
    let w3 = u64::from_le_bytes([b[24], b[25], b[26], b[27], b[28], b[29], b[30], b[31]]);
    lanes[0] = (lanes[0] ^ w0).wrapping_mul(FNV_PRIME).rotate_left(23);
    lanes[1] = (lanes[1] ^ w1).wrapping_mul(FNV_PRIME).rotate_left(23);
    lanes[2] = (lanes[2] ^ w2).wrapping_mul(FNV_PRIME).rotate_left(23);
    lanes[3] = (lanes[3] ^ w3).wrapping_mul(FNV_PRIME).rotate_left(23);
}

/// One replica as seen by [`StateSnapshot`]: its committed-cache version and
/// the digest of those cached bytes (local uncommitted writes excluded).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplicaSnapshot {
    /// The PU hosting the replica.
    pub pu: PuId,
    /// The committed version the cache holds.
    pub version: u64,
    /// [`digest`] of the cached committed bytes.
    pub digest: u64,
}

/// One region as seen by [`StateSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionStateSnapshot {
    /// Region name.
    pub name: String,
    /// Current global UUID (changes across re-mastering generations).
    pub uuid: GlobalUuid,
    /// Re-mastering generation.
    pub gen: u64,
    /// The PU mastering the region.
    pub master: PuId,
    /// Committed version at the master.
    pub version: u64,
    /// Highest version ever committed under this name (survives
    /// re-mastering; the version counter may never drop below it).
    pub floor: u64,
    /// Every replica, sorted by PU.
    pub replicas: Vec<ReplicaSnapshot>,
}

/// A deterministic snapshot of the whole state layer, for simcheck's
/// coherence oracle: regions sorted by name, replicas sorted by PU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Every live region, sorted by name.
    pub regions: Vec<RegionStateSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::digest;

    /// Each byte of `bytes` at `positions`, in turn, xored with each of
    /// `deltas`, must move the digest off `bytes`'s own.
    fn assert_single_byte_changes_show(
        bytes: &mut [u8],
        positions: impl Iterator<Item = usize>,
        deltas: &[u8],
    ) {
        let base = digest(bytes);
        for at in positions {
            for &delta in deltas {
                bytes[at] ^= delta;
                assert_ne!(digest(bytes), base, "len {} byte {at} ^ {delta:#x}", bytes.len());
                bytes[at] ^= delta;
            }
        }
    }

    #[test]
    fn every_single_byte_change_changes_the_digest() {
        let all: Vec<u8> = (1..=255).collect();
        for len in 0..=70 {
            let mut bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_single_byte_changes_show(&mut bytes, 0..len, &all);
        }
        // A committed cache of the size the simcheck suites use. Every byte
        // of both ends covers each lane and byte-within-word pairing, and a
        // prime stride samples the middle: an unoptimized sweep of all
        // 32,768 positions takes ~10 s.
        const CACHE: usize = 32 * 1024;
        let positions = (0..256).chain((256..CACHE - 256).step_by(97)).chain(CACHE - 256..CACHE);
        assert_single_byte_changes_show(&mut vec![0u8; CACHE], positions, &[0xff]);
    }

    #[test]
    fn appending_a_zero_byte_changes_the_digest() {
        let mut bytes = Vec::new();
        for len in 0..=70 {
            let before = digest(&bytes);
            bytes.push(0);
            assert_ne!(digest(&bytes), before, "len {len} -> {}", len + 1);
        }
    }

    #[test]
    fn equal_bytes_give_equal_digests() {
        for len in [0, 1, 7, 8, 31, 32, 33, 4096, 32 * 1024] {
            let a: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(digest(&a), digest(&a.clone()), "len {len}");
        }
    }
}
