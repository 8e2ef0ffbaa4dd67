//! The gateway's region directory: which PUs host which shared-state
//! regions.
//!
//! `molecule-state` owns the regions themselves; the control plane only
//! needs the *location* facts — "region `weights` has replicas on PU 0 and
//! PU 2" — to feed the scheduler's state-locality term (a function that
//! declares [`FunctionDef::regions`] scores better on PUs already holding
//! those pages). The
//! directory is deliberately a plain name→PU-set map so `molecule-core`
//! does not depend on the state crate: `molecule-sched` bridges the two by
//! installing a `StateLayer` host observer that publishes into it.
//!
//! Density refactor: the former single `BTreeMap` under one lock made every
//! publish contend with every lookup and made `retract_pu` — the dead-PU
//! sweep — walk *every* region. The directory is now sharded by region-name
//! hash (lookups and publishes on different regions take different locks)
//! with a `PuId → region names` reverse index, so the dead-PU sweep touches
//! only the regions the dead PU actually hosted. Host lists stay sorted
//! `Vec`s, so every query answer is byte-identical to the `BTreeMap` model.
//!
//! Lock discipline: a shard lock and the reverse-index lock are never held
//! at the same time. The reverse index may transiently hold a stale name
//! for a PU (publish updates the shard first); `retract_pu` tolerates this
//! by counting only real shard-side removals.
//!
//! [`FunctionDef::regions`]: crate::function::FunctionDef::regions

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use hetsim::pu::PuId;
use parking_lot::Mutex;

const SHARDS: usize = 8;

struct DirectoryInner {
    /// Region name → sorted host list, sharded by name hash.
    shards: [Mutex<HashMap<String, Vec<PuId>>>; SHARDS],
    /// Reverse index for the dead-PU sweep: every region name a PU has ever
    /// been published into (pruned on retract).
    by_pu: Mutex<HashMap<PuId, HashSet<String>>>,
}

/// Tracks, per region name, the PUs currently hosting a replica. Cheap to
/// clone; all clones share one map.
#[derive(Clone)]
pub struct RegionDirectory {
    inner: Arc<DirectoryInner>,
}

impl Default for RegionDirectory {
    fn default() -> RegionDirectory {
        RegionDirectory {
            inner: Arc::new(DirectoryInner {
                shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
                by_pu: Mutex::new(HashMap::new()),
            }),
        }
    }
}

impl fmt::Debug for RegionDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionDirectory").field("regions", &self.len()).finish()
    }
}

impl RegionDirectory {
    /// Creates an empty directory.
    pub fn new() -> RegionDirectory {
        RegionDirectory::default()
    }

    fn shard(&self, region: &str) -> &Mutex<HashMap<String, Vec<PuId>>> {
        // BuildHasherDefault<DefaultHasher> is unseeded: the shard choice is
        // stable across processes, keeping cross-process determinism probes
        // honest even though shard choice never leaks into query answers.
        let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(region);
        &self.inner.shards[(h as usize) % SHARDS]
    }

    /// Records that `pu` hosts a replica of `region`. Idempotent.
    pub fn publish(&self, region: &str, pu: PuId) {
        {
            let mut shard = self.shard(region).lock();
            let hosts = shard.entry(region.to_string()).or_default();
            if let Err(pos) = hosts.binary_search(&pu) {
                hosts.insert(pos, pu);
            }
        }
        self.inner.by_pu.lock().entry(pu).or_default().insert(region.to_string());
    }

    /// Records that `pu` no longer hosts `region` (detach or drop). Empty
    /// regions leave the map. Idempotent.
    pub fn retract(&self, region: &str, pu: PuId) {
        {
            let mut shard = self.shard(region).lock();
            if let Some(hosts) = shard.get_mut(region) {
                if let Ok(pos) = hosts.binary_search(&pu) {
                    hosts.remove(pos);
                }
                if hosts.is_empty() {
                    shard.remove(region);
                }
            }
        }
        let mut by_pu = self.inner.by_pu.lock();
        if let Some(names) = by_pu.get_mut(&pu) {
            names.remove(region);
            if names.is_empty() {
                by_pu.remove(&pu);
            }
        }
    }

    /// Drops every hosting record of a crashed PU, returning how many
    /// region entries it was retracted from. The gateway's
    /// [`purge_pu`](crate::gateway::ApiGateway::purge_pu) calls this so a
    /// dead PU can never keep attracting stateful placements. O(regions the
    /// dead PU hosted) via the reverse index — not a walk of the directory.
    pub fn retract_pu(&self, pu: PuId) -> usize {
        let names = match self.inner.by_pu.lock().remove(&pu) {
            Some(names) => names,
            None => return 0,
        };
        let mut retracted = 0;
        for region in names {
            let mut shard = self.shard(&region).lock();
            if let Some(hosts) = shard.get_mut(&region) {
                if let Ok(pos) = hosts.binary_search(&pu) {
                    hosts.remove(pos);
                    retracted += 1;
                }
                if hosts.is_empty() {
                    shard.remove(&region);
                }
            }
        }
        retracted
    }

    /// The PUs hosting `region`, sorted. Empty when unknown.
    pub fn hosts(&self, region: &str) -> Vec<PuId> {
        self.shard(region).lock().get(region).cloned().unwrap_or_default()
    }

    /// The union of hosts over several region names, sorted and deduplicated
    /// — what the placer consumes for a function's full region set.
    pub fn hosts_of_any(&self, regions: &[String]) -> Vec<PuId> {
        let mut out = BTreeSet::new();
        for name in regions {
            if let Some(hosts) = self.shard(name).lock().get(name) {
                out.extend(hosts.iter().copied());
            }
        }
        out.into_iter().collect()
    }

    /// Number of regions with at least one host.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_retract_roundtrip() {
        let dir = RegionDirectory::new();
        assert!(dir.is_empty());
        dir.publish("weights", PuId(0));
        dir.publish("weights", PuId(2));
        dir.publish("weights", PuId(2)); // idempotent
        dir.publish("shuffle", PuId(1));
        assert_eq!(dir.hosts("weights"), vec![PuId(0), PuId(2)]);
        assert_eq!(dir.hosts("shuffle"), vec![PuId(1)]);
        assert_eq!(dir.len(), 2);
        dir.retract("weights", PuId(0));
        assert_eq!(dir.hosts("weights"), vec![PuId(2)]);
        dir.retract("weights", PuId(2));
        assert_eq!(dir.hosts("weights"), Vec::<PuId>::new());
        assert_eq!(dir.len(), 1, "empty regions leave the map");
    }

    #[test]
    fn hosts_of_any_unions_and_sorts() {
        let dir = RegionDirectory::new();
        dir.publish("a", PuId(3));
        dir.publish("a", PuId(1));
        dir.publish("b", PuId(1));
        dir.publish("b", PuId(0));
        let hosts = dir.hosts_of_any(&["a".into(), "b".into(), "ghost".into()]);
        assert_eq!(hosts, vec![PuId(0), PuId(1), PuId(3)]);
    }

    #[test]
    fn retract_pu_sweeps_every_region() {
        let dir = RegionDirectory::new();
        dir.publish("a", PuId(1));
        dir.publish("a", PuId(2));
        dir.publish("b", PuId(1));
        assert_eq!(dir.retract_pu(PuId(1)), 2);
        assert_eq!(dir.hosts("a"), vec![PuId(2)]);
        assert!(dir.hosts("b").is_empty());
        assert_eq!(dir.retract_pu(PuId(1)), 0, "idempotent");
    }

    #[test]
    fn retract_then_retract_pu_counts_real_removals_only() {
        // retract() prunes the reverse index, so a later dead-PU sweep
        // neither revisits nor recounts the already-retracted region.
        let dir = RegionDirectory::new();
        dir.publish("a", PuId(1));
        dir.publish("b", PuId(1));
        dir.retract("a", PuId(1));
        assert_eq!(dir.retract_pu(PuId(1)), 1);
        assert!(dir.is_empty());
    }

    #[test]
    fn many_regions_across_shards_stay_consistent() {
        let dir = RegionDirectory::new();
        for i in 0..100 {
            dir.publish(&format!("region-{i}"), PuId(i % 4));
            dir.publish(&format!("region-{i}"), PuId(4));
        }
        assert_eq!(dir.len(), 100);
        assert_eq!(dir.hosts("region-7"), vec![PuId(3), PuId(4)]);
        // Killing PU 4 retracts it from all 100 regions; the others stay.
        assert_eq!(dir.retract_pu(PuId(4)), 100);
        assert_eq!(dir.len(), 100);
        assert_eq!(dir.hosts("region-7"), vec![PuId(3)]);
    }
}
