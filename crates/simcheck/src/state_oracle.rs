//! State-coherence oracle over the `molecule-state` shared-state tier.
//!
//! [`check_state`] is a *stateful* check: coherence is a property of
//! histories, not single snapshots, so the oracle carries a
//! [`StateHistory`] across steps and compares each new
//! [`StateSnapshot`] against everything it has already accepted:
//!
//! * per region name, the committed-version floor and the master's
//!   committed version are monotone (re-mastering after an owner kill may
//!   jump them forward, never back);
//! * no replica — master included — ever exposes a version above the
//!   floor;
//! * no two PUs ever expose divergent bytes for the same committed
//!   version of a region: the first digest observed for `(name, version)`
//!   is pinned, and every later observation must match it.
//!
//! Version numbers are never reused within a region name (every commit,
//! CAS and re-mastering generation bumps the floor), which is what makes
//! the digest pinning sound. The one assumption the oracle makes of the
//! scenario: region *names* are not recycled — dropping `"weights"` and
//! creating a fresh `"weights"` would restart the version counter and
//! trip the monotonicity check by design.
//!
//! [`StateOracle::install`] combines this with the control-plane
//! [`check_snapshot`] in a single engine step observer (the engine holds
//! exactly one), so a scenario gets cluster *and* state invariants checked
//! after every event that moved its epoch, with one install call. Each
//! half is gated on its own mutation epoch: [`ShimCluster::epoch`] and
//! [`StateLayer::epoch`].
//!
//! [`check_snapshot`]: crate::oracle::check_snapshot

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hetsim::engine::Simulation;
use molecule_state::{StateLayer, StateSnapshot};
use xpu_shim::ShimCluster;

use crate::oracle::{GatedObserver, OracleConfig};

/// Cross-step evidence for [`check_state`]: high-water marks and pinned
/// digests per region name.
#[derive(Debug, Default)]
pub struct StateHistory {
    regions: HashMap<String, RegionHistory>,
}

/// What [`StateHistory`] has accepted for one region name.
#[derive(Debug, Default)]
struct RegionHistory {
    /// Highest accepted floor.
    floor: u64,
    /// Highest accepted master version.
    version: u64,
    /// First digest observed for each committed version.
    digests: HashMap<u64, u64>,
}

impl StateHistory {
    /// An empty history.
    pub fn new() -> StateHistory {
        StateHistory::default()
    }
}

/// Checks one [`StateSnapshot`] against the history, recording the new
/// high-water marks on success.
///
/// # Errors
///
/// A human-readable description of the first violated coherence invariant.
pub fn check_state(snap: &StateSnapshot, hist: &mut StateHistory) -> Result<(), String> {
    for r in &snap.regions {
        if r.version > r.floor {
            return Err(format!(
                "region {}: master version {} above floor {}",
                r.name, r.version, r.floor
            ));
        }
        // Borrowed lookup first: the name is cloned only when first seen.
        let seen = match hist.regions.get_mut(r.name.as_str()) {
            Some(seen) => seen,
            None => hist.regions.entry(r.name.clone()).or_default(),
        };
        if r.floor < seen.floor {
            return Err(format!(
                "region {}: floor moved backwards ({} after {})",
                r.name, r.floor, seen.floor
            ));
        }
        seen.floor = r.floor;
        if r.version < seen.version {
            return Err(format!(
                "region {}: committed version moved backwards ({} after {})",
                r.name, r.version, seen.version
            ));
        }
        seen.version = r.version;
        for rep in &r.replicas {
            if rep.version > r.floor {
                return Err(format!(
                    "region {}: replica on {} at version {} above floor {}",
                    r.name, rep.pu, rep.version, r.floor
                ));
            }
            let pinned = seen.digests.entry(rep.version).or_insert(rep.digest);
            if *pinned != rep.digest {
                return Err(format!(
                    "region {}: divergent pages for committed version {} — {} exposes \
                     digest {:#x}, previously pinned {:#x}",
                    r.name, rep.version, rep.pu, rep.digest, *pinned
                ));
            }
        }
    }
    Ok(())
}

/// A per-step watchdog combining the control-plane [`check_snapshot`] and
/// the stateful [`check_state`] in one engine step observer. Each half is
/// re-checked only on the steps that moved its mutation epoch. Ask it for
/// the final [`verdict`](Self::verdict) from the scenario's check closure.
///
/// [`check_snapshot`]: crate::oracle::check_snapshot
pub struct StateOracle {
    observer: Rc<RefCell<GatedObserver>>,
}

impl StateOracle {
    /// Installs the combined oracle as `sim`'s step observer (replacing any
    /// previous observer — do not also install a [`ClusterOracle`]) and
    /// returns the handle the check closure consults.
    ///
    /// [`ClusterOracle`]: crate::oracle::ClusterOracle
    pub fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        layer: &StateLayer,
        cfg: OracleConfig,
    ) -> StateOracle {
        StateOracle { observer: GatedObserver::install(sim, cluster, Some(layer), cfg) }
    }

    /// The verdict: the first per-step violation if one was recorded, else a
    /// final quiescence check of both layers. `require_empty_arena`
    /// additionally demands zero parked segment slots — pass true when the
    /// scenario drops every region and drains every FIFO before exiting.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a human-readable message.
    pub fn verdict(&self, require_empty_arena: bool) -> Result<(), String> {
        self.observer.borrow_mut().verdict(require_empty_arena)
    }

    /// The engine step (1-based, counting every step the observer saw)
    /// whose check raised the first violation, if any did.
    pub fn violation_step(&self) -> Option<u64> {
        self.observer.borrow().violation_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::pu::PuId;
    use molecule_state::{RegionStateSnapshot, ReplicaSnapshot};

    fn snap(version: u64, floor: u64, replicas: Vec<(u16, u64, u64)>) -> StateSnapshot {
        StateSnapshot {
            regions: vec![RegionStateSnapshot {
                name: "r".into(),
                uuid: xpu_shim::GlobalUuid::new("uuid-r-g0"),
                gen: 0,
                master: PuId(0),
                version,
                floor,
                replicas: replicas
                    .into_iter()
                    .map(|(pu, version, digest)| ReplicaSnapshot { pu: PuId(pu), version, digest })
                    .collect(),
            }],
        }
    }

    #[test]
    fn monotone_history_passes_and_regressions_trip() {
        let mut h = StateHistory::new();
        check_state(&snap(0, 0, vec![(0, 0, 7)]), &mut h).unwrap();
        check_state(&snap(1, 1, vec![(0, 1, 9), (1, 0, 7)]), &mut h).unwrap();
        let err = check_state(&snap(0, 1, vec![(0, 0, 7)]), &mut h).unwrap_err();
        assert!(err.contains("moved backwards"), "{err}");
    }

    #[test]
    fn divergent_digest_for_same_version_trips() {
        let mut h = StateHistory::new();
        check_state(&snap(1, 1, vec![(0, 1, 0xaa)]), &mut h).unwrap();
        let err = check_state(&snap(1, 1, vec![(0, 1, 0xaa), (2, 1, 0xbb)]), &mut h).unwrap_err();
        assert!(err.contains("divergent pages"), "{err}");
    }

    #[test]
    fn version_above_floor_trips() {
        let mut h = StateHistory::new();
        let err = check_state(&snap(2, 1, vec![(0, 2, 0)]), &mut h).unwrap_err();
        assert!(err.contains("above floor"), "{err}");
    }
}
