//! Consistent-hash ring for rack-level function placement.
//!
//! The rack front-end owns one [`HashRing`] mapping function names to the
//! node whose gateway serves them. Each node projects `vnodes` points onto
//! a 64-bit ring; a key is owned by the first point clockwise from its
//! hash. Virtual nodes keep the shares balanced, and consistency keeps
//! churn minimal: a node joining or leaving an `N`-node ring reassigns
//! only about `1/N` of the keys — every other key keeps its owner, so warm
//! pools and region replicas on surviving nodes stay useful.
//!
//! Hashing is FNV-1a with a SplitMix64 finalizer — fully deterministic, so
//! the same rack always routes the same function to the same node (the
//! determinism suite relies on this).

use std::collections::BTreeMap;

use hetsim::pu::NodeId;

/// Virtual-node points per node on the rack front's ring: enough that
/// 1–16-node rings stay within a small constant factor of a perfectly fair
/// split.
pub const DEFAULT_VNODES: usize = 128;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: FNV alone clusters on short, similar keys; mixing
/// spreads the vnode points uniformly around the ring.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_key(key: &str) -> u64 {
    mix(fnv1a(key.as_bytes()))
}

fn vnode_point(node: NodeId, replica: usize) -> u64 {
    mix(fnv1a(format!("{node}#{replica}").as_bytes()))
}

/// A consistent-hash ring of rack nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    points: BTreeMap<u64, NodeId>,
}

impl HashRing {
    /// An empty ring with `vnodes` points per node (minimum 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing { vnodes: vnodes.max(1), points: BTreeMap::new() }
    }

    /// A ring already holding every node in `nodes`.
    pub fn with_nodes(vnodes: usize, nodes: impl IntoIterator<Item = NodeId>) -> HashRing {
        let mut ring = HashRing::new(vnodes);
        for node in nodes {
            ring.add(node);
        }
        ring
    }

    /// Adds a node's points (idempotent).
    pub fn add(&mut self, node: NodeId) {
        for replica in 0..self.vnodes {
            // A point collision between two nodes resolves to the lower
            // node id, deterministically, regardless of insertion order.
            let entry = self.points.entry(vnode_point(node, replica)).or_insert(node);
            *entry = (*entry).min(node);
        }
    }

    /// Removes a node's points (idempotent). Keys it owned fall through to
    /// their next point clockwise — nothing else moves.
    pub fn remove(&mut self, node: NodeId) {
        for replica in 0..self.vnodes {
            let point = vnode_point(node, replica);
            if self.points.get(&point) == Some(&node) {
                self.points.remove(&point);
            }
        }
    }

    /// The node owning `key`, or `None` on an empty ring.
    pub fn node_for(&self, key: &str) -> Option<NodeId> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_key(key);
        self.points.range(h..).next().or_else(|| self.points.iter().next()).map(|(_, node)| *node)
    }

    /// Distinct nodes currently on the ring, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.points.values().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// True when no node is on the ring.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of distinct nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_total() {
        let ring = HashRing::with_nodes(DEFAULT_VNODES, (0..4).map(NodeId));
        for i in 0..100 {
            let key = format!("func-{i}");
            let a = ring.node_for(&key).unwrap();
            let b = ring.node_for(&key).unwrap();
            assert_eq!(a, b);
            assert!(a.raw() < 4);
        }
        assert_eq!(ring.len(), 4);
        assert!(HashRing::new(8).node_for("anything").is_none());
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = HashRing::with_nodes(16, (0..3).map(NodeId));
        let before: Vec<_> = (0..50).map(|i| ring.node_for(&format!("k{i}"))).collect();
        ring.add(NodeId(1));
        let after: Vec<_> = (0..50).map(|i| ring.node_for(&format!("k{i}"))).collect();
        assert_eq!(before, after);
        ring.remove(NodeId(2));
        ring.remove(NodeId(2));
        assert_eq!(ring.nodes(), vec![NodeId(0), NodeId(1)]);
    }
}
