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
//! A `PuId → region names` reverse index sits beside the name → hosts map
//! under the same lock, so the dead-PU sweep touches only the regions the
//! dead PU actually hosted. Host lists stay sorted `Vec`s, so every query
//! answer is a sorted list.
//!
//! [`FunctionDef::regions`]: crate::function::FunctionDef::regions

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use hetsim::pu::PuId;
use parking_lot::Mutex;

#[derive(Default)]
struct DirectoryState {
    /// Region name → sorted host list.
    hosts: HashMap<String, Vec<PuId>>,
    /// Reverse index for the dead-PU sweep: every region name a PU hosts.
    by_pu: HashMap<PuId, HashSet<String>>,
}

impl DirectoryState {
    /// Removes `pu` from `region`'s host list, dropping the region once it
    /// has no host. True if `pu` was a host.
    fn remove_host(&mut self, region: &str, pu: PuId) -> bool {
        let Some(hosts) = self.hosts.get_mut(region) else { return false };
        let Ok(pos) = hosts.binary_search(&pu) else { return false };
        hosts.remove(pos);
        if hosts.is_empty() {
            self.hosts.remove(region);
        }
        true
    }
}

/// Tracks, per region name, the PUs currently hosting a replica. Cheap to
/// clone; all clones share one map.
#[derive(Clone, Default)]
pub struct RegionDirectory {
    state: Arc<Mutex<DirectoryState>>,
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

    /// Records that `pu` hosts a replica of `region`. Idempotent.
    pub fn publish(&self, region: &str, pu: PuId) {
        let mut st = self.state.lock();
        let hosts = st.hosts.entry(region.to_string()).or_default();
        if let Err(pos) = hosts.binary_search(&pu) {
            hosts.insert(pos, pu);
            st.by_pu.entry(pu).or_default().insert(region.to_string());
        }
    }

    /// Records that `pu` no longer hosts `region` (drop or PU death). Empty
    /// regions leave the map. Idempotent.
    pub fn retract(&self, region: &str, pu: PuId) {
        let mut st = self.state.lock();
        st.remove_host(region, pu);
        if let Some(names) = st.by_pu.get_mut(&pu) {
            names.remove(region);
            if names.is_empty() {
                st.by_pu.remove(&pu);
            }
        }
    }

    /// Drops every hosting record of a crashed PU, returning how many
    /// region entries it was retracted from. The gateway's
    /// [`purge_pu`](crate::gateway::ApiGateway::purge_pu) calls this so a
    /// dead PU can never keep attracting stateful placements. O(regions the
    /// dead PU hosted) via the reverse index — not a walk of the directory.
    pub fn retract_pu(&self, pu: PuId) -> usize {
        let mut st = self.state.lock();
        let names = st.by_pu.remove(&pu).unwrap_or_default();
        names.iter().filter(|region| st.remove_host(region, pu)).count()
    }

    /// The PUs hosting `region`, sorted. Empty when unknown.
    pub fn hosts(&self, region: &str) -> Vec<PuId> {
        self.state.lock().hosts.get(region).cloned().unwrap_or_default()
    }

    /// The union of hosts over several region names, sorted and deduplicated
    /// — what the placer consumes for a function's full region set.
    pub fn hosts_of_any(&self, regions: &[String]) -> Vec<PuId> {
        let st = self.state.lock();
        let out: BTreeSet<PuId> =
            regions.iter().filter_map(|name| st.hosts.get(name)).flatten().copied().collect();
        out.into_iter().collect()
    }

    /// Number of regions with at least one host.
    pub fn len(&self) -> usize {
        self.state.lock().hosts.len()
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
    fn many_regions_stay_consistent() {
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
