//! Invariant oracles over the cross-PU control plane.
//!
//! The snapshot-based checks run against [`ClusterSnapshot`] — either after
//! every engine event that moved the cluster's mutation epoch (install via
//! [`ClusterOracle::install`], which uses the engine's step observer: no
//! engine lock held, no simulated process mid-syscall) or once at
//! quiescence. Evidence-based checks ([`FifoOrderTracker`]) are fed by the
//! scenario's own processes as messages are consumed.
//!
//! Skipping a step whose epoch did not move loses nothing: the epoch moves
//! on every change to what the snapshot reads, so such a step's snapshot
//! equals the last one checked, and [`check_snapshot`] is a pure function
//! of the snapshot. A skipped step can neither raise a violation nor move
//! the first violating step.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use hetsim::engine::Simulation;
use molecule_state::StateLayer;
use xpu_shim::cap::Perm;
use xpu_shim::{ClusterSnapshot, ObjId, ShimCluster, TenantId, XpuPid};

use crate::state_oracle::{check_state, StateHistory};

/// Which invariants [`check_snapshot`] enforces.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Require at most one OWNER capability per object. True for scenarios
    /// that never grant `Perm::OWNER` onwards (ownership *is* transferable
    /// and shareable by design — `grant(.., Perm::OWNER)` is legal — so
    /// scenarios that exercise ownership hand-off turn this off).
    pub owner_partition: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { owner_partition: true }
    }
}

/// Checks every snapshot invariant, returning the first violation:
///
/// * every capability references a live object (no dangling grants after
///   `revoke_cap` / `close` / `reclaim_pu`);
/// * tenant isolation: every capability's holder and object live in the
///   same tenant domain, and every live FIFO's owner / region's master
///   shares its guard object's tenant (no schedule leaks a handle across
///   tenants through spawn, failover or reclaim);
/// * (optional) object ownership is a partition — at most one OWNER each;
/// * every live FIFO's guard object is live, and its owner — while still a
///   registered process — holds OWNER (a dead owner mid-`reclaim_pu` is a
///   legal transient);
/// * every live shared-state region satisfies the same guard/owner/UUID
///   discipline as a FIFO (region caps never leak across reclaim);
/// * no UUID is both live and reclaimed, and none is reclaimed while its
///   free is still parked in the lazy queue (exactly-once reclamation);
/// * the `reclaimed_uuids` counter equals the reclaimed set's size;
/// * every parked zero-copy segment slot belongs to a live FIFO or a live
///   region (no leaked slots after close/reclaim).
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_snapshot(snap: &ClusterSnapshot, cfg: &OracleConfig) -> Result<(), String> {
    let objects: HashSet<ObjId> = snap.objects.iter().copied().collect();
    let proc_tenant: HashMap<XpuPid, TenantId> = snap.tenants.iter().copied().collect();
    let obj_tenant: HashMap<ObjId, TenantId> = snap.object_tenants.iter().copied().collect();
    let tenant_of = |pid: XpuPid| proc_tenant.get(&pid).copied().unwrap_or(TenantId::SYSTEM);
    let tenant_of_obj = |obj: ObjId| obj_tenant.get(&obj).copied().unwrap_or(TenantId::SYSTEM);
    let mut owners: HashMap<ObjId, XpuPid> = HashMap::new();
    for &(pid, obj, perm) in &snap.caps {
        if !objects.contains(&obj) {
            return Err(format!("dangling capability: {pid} holds {perm} on destroyed {obj}"));
        }
        // Tenant isolation: a capability never crosses a tenant boundary.
        // `grant` refuses cross-tenant handouts by construction, so any
        // violation here means a schedule leaked a handle through spawn,
        // failover or reclaim.
        let (pt, ot) = (tenant_of(pid), tenant_of_obj(obj));
        if pt != ot {
            return Err(format!(
                "tenant isolation violated: {pid} ({pt}) holds {perm} on {obj} owned by {ot}"
            ));
        }
        if cfg.owner_partition && perm.contains(Perm::OWNER) {
            if let Some(prev) = owners.insert(obj, pid) {
                return Err(format!("ownership not a partition: {obj} owned by {prev} and {pid}"));
            }
        }
    }
    let live: HashSet<_> = snap.fifos.iter().map(|f| &f.uuid).collect();
    let reclaimed: HashSet<_> = snap.reclaimed.iter().collect();
    for f in &snap.fifos {
        if !objects.contains(&f.obj) {
            return Err(format!("live FIFO {} guarded by destroyed object {}", f.uuid, f.obj));
        }
        // Only demand OWNER while the owner is still a registered process:
        // `reclaim_pu` tears down dead pids' CAP groups first, then yields
        // per-UUID while their FIFOs are still being reclaimed — that
        // transient (dead owner, live FIFO) is legal.
        if snap.procs.binary_search(&f.owner).is_ok() {
            let owner_ok = snap
                .caps
                .iter()
                .any(|&(p, o, perm)| p == f.owner && o == f.obj && perm.contains(Perm::OWNER));
            if !owner_ok {
                return Err(format!("FIFO {} owner {} lost OWNER on {}", f.uuid, f.owner, f.obj));
            }
            if tenant_of(f.owner) != tenant_of_obj(f.obj) {
                return Err(format!(
                    "FIFO {} crossed tenants: owner {} is {} but {} is {}",
                    f.uuid,
                    f.owner,
                    tenant_of(f.owner),
                    f.obj,
                    tenant_of_obj(f.obj)
                ));
            }
        }
        if reclaimed.contains(&f.uuid) {
            return Err(format!("UUID {} is both live and reclaimed", f.uuid));
        }
    }
    for r in &snap.regions {
        if !objects.contains(&r.obj) {
            return Err(format!("live region {} guarded by destroyed object {}", r.uuid, r.obj));
        }
        // Same dead-owner transient tolerance as the FIFO check above:
        // `reclaim_pu` drops the master's CAP group before the region sweep
        // re-masters or parks its regions.
        if snap.procs.binary_search(&r.owner).is_ok() {
            let owner_ok = snap
                .caps
                .iter()
                .any(|&(p, o, perm)| p == r.owner && o == r.obj && perm.contains(Perm::OWNER));
            if !owner_ok {
                return Err(format!(
                    "region {} master {} lost OWNER on {}",
                    r.uuid, r.owner, r.obj
                ));
            }
            if tenant_of(r.owner) != tenant_of_obj(r.obj) {
                return Err(format!(
                    "region {} crossed tenants: master {} is {} but {} is {}",
                    r.uuid,
                    r.owner,
                    tenant_of(r.owner),
                    r.obj,
                    tenant_of_obj(r.obj)
                ));
            }
        }
        if reclaimed.contains(&r.uuid) {
            return Err(format!("region UUID {} is both live and reclaimed", r.uuid));
        }
    }
    let live_regions: HashSet<_> = snap.regions.iter().map(|r| &r.uuid).collect();
    for uuid in &snap.lazy_pending {
        if live.contains(uuid) || live_regions.contains(uuid) {
            return Err(format!("UUID {uuid} live while its free is parked in the lazy queue"));
        }
    }
    if snap.reclaimed_count != snap.reclaimed.len() as u64 {
        return Err(format!(
            "reclamation not exactly-once: counter {} vs {} reclaimed UUIDs",
            snap.reclaimed_count,
            snap.reclaimed.len()
        ));
    }
    for (uuid, n) in &snap.parked_segments {
        if !live.contains(uuid) && !live_regions.contains(uuid) {
            return Err(format!("{n} leaked segment slot(s) parked for dead UUID {uuid}"));
        }
    }
    Ok(())
}

/// The step observer body [`ClusterOracle`] and
/// [`StateOracle`](crate::StateOracle) share. Each step it re-snapshots
/// and re-checks the cluster, and the state layer if it watches one, only
/// when that half's mutation epoch moved since its last check. The first
/// step always checks both, and so does [`verdict`](Self::verdict).
///
/// Re-checking an unchanged state snapshot is a no-op too:
/// [`check_state`] only raises high-water marks and pins digests it has
/// already accepted.
pub(crate) struct GatedObserver {
    cluster: ShimCluster,
    layer: Option<StateLayer>,
    cfg: OracleConfig,
    history: StateHistory,
    /// The epochs at the last check of each half (`None`: never checked).
    cluster_epoch: Option<u64>,
    state_epoch: Option<u64>,
    /// Steps observed so far.
    steps: u64,
    /// The first violation and the step that raised it.
    violation: Option<(u64, String)>,
}

impl GatedObserver {
    /// Installs an observer over `cluster` (and `layer`) as `sim`'s step
    /// observer, replacing any previous observer.
    pub(crate) fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        layer: Option<&StateLayer>,
        cfg: OracleConfig,
    ) -> Rc<RefCell<GatedObserver>> {
        let observer = Rc::new(RefCell::new(GatedObserver {
            cluster: cluster.clone(),
            layer: layer.cloned(),
            cfg,
            history: StateHistory::new(),
            cluster_epoch: None,
            state_epoch: None,
            steps: 0,
            violation: None,
        }));
        let observed = Rc::clone(&observer);
        sim.set_step_observer(Box::new(move || observed.borrow_mut().step()));
        observer
    }

    fn step(&mut self) {
        if self.violation.is_some() {
            return;
        }
        self.steps += 1;
        if let Err(v) = self.check_moved() {
            self.violation = Some((self.steps, v));
        }
    }

    fn check_moved(&mut self) -> Result<(), String> {
        let epoch = self.cluster.epoch();
        if self.cluster_epoch != Some(epoch) {
            check_snapshot(&self.cluster.snapshot(), &self.cfg)?;
            self.cluster_epoch = Some(epoch);
        }
        if let Some(layer) = &self.layer {
            let epoch = layer.epoch();
            if self.state_epoch != Some(epoch) {
                check_state(&layer.snapshot(), &mut self.history)?;
                self.state_epoch = Some(epoch);
            }
        }
        Ok(())
    }

    /// The 1-based step that raised the first violation, if any did.
    pub(crate) fn violation_step(&self) -> Option<u64> {
        self.violation.as_ref().map(|(step, _)| *step)
    }

    /// The first per-step violation if one was recorded, else a final
    /// check of everything watched. `require_empty_arena` additionally
    /// demands zero parked segment slots.
    pub(crate) fn verdict(&mut self, require_empty_arena: bool) -> Result<(), String> {
        if let Some((_, v)) = &self.violation {
            return Err(format!("[step] {v}"));
        }
        let snap = self.cluster.snapshot();
        check_snapshot(&snap, &self.cfg).map_err(|v| format!("[quiescence] {v}"))?;
        if let Some(layer) = &self.layer {
            check_state(&layer.snapshot(), &mut self.history)
                .map_err(|v| format!("[quiescence] {v}"))?;
        }
        if require_empty_arena && snap.outstanding_segments != 0 {
            return Err(format!(
                "[quiescence] arena holds {} unresolved slot(s): {:?}",
                snap.outstanding_segments, snap.parked_segments
            ));
        }
        Ok(())
    }
}

/// A per-step cluster watchdog: checks the cluster after every engine
/// event that moved its mutation epoch and records the first invariant
/// violation. Ask it for the final [`verdict`](Self::verdict) from the
/// scenario's check closure.
pub struct ClusterOracle {
    observer: Rc<RefCell<GatedObserver>>,
}

impl ClusterOracle {
    /// Installs the oracle as `sim`'s step observer (replacing any previous
    /// observer) and returns the handle the check closure consults.
    pub fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        cfg: OracleConfig,
    ) -> ClusterOracle {
        ClusterOracle { observer: GatedObserver::install(sim, cluster, None, cfg) }
    }

    /// The verdict: the first per-step violation if one was recorded, else a
    /// final quiescence check. `require_empty_arena` additionally demands
    /// zero parked segment slots (every descriptor resolved or reclaimed) —
    /// pass true when the scenario drains all its FIFOs.
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

/// Per-writer FIFO-order oracle fed with `(writer, seqno)` pairs in delivery
/// order. Writers number their messages 0, 1, 2, …; the tracker demands
/// that each writer's *first occurrences* appear in strictly increasing
/// seqno order. Losses (missing seqnos) and duplicates (repeats of an
/// already-seen seqno, in any position) are tolerated — the fault plane
/// injects both legally — but an unseen seqno arriving before a smaller
/// unseen one is a reorder, which the FIFO contract forbids.
#[derive(Debug, Default)]
pub struct FifoOrderTracker {
    last_first: HashMap<u64, u64>,
    seen: HashSet<(u64, u64)>,
    violation: Option<String>,
}

impl FifoOrderTracker {
    /// An empty tracker.
    pub fn new() -> FifoOrderTracker {
        FifoOrderTracker::default()
    }

    /// Records that `writer`'s message `seq` was just consumed.
    pub fn note(&mut self, writer: u64, seq: u64) {
        if self.violation.is_some() || !self.seen.insert((writer, seq)) {
            return; // already failed, or a tolerated duplicate
        }
        match self.last_first.get(&writer) {
            Some(&prev) if seq <= prev => {
                self.violation = Some(format!(
                    "per-writer FIFO order violated: writer {writer} seq {seq} first seen after seq {prev}"
                ));
            }
            _ => {
                self.last_first.insert(writer, seq);
            }
        }
    }

    /// The verdict so far.
    ///
    /// # Errors
    ///
    /// The first recorded reorder.
    pub fn verdict(&self) -> Result<(), String> {
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_tracker_tolerates_loss_and_dups_but_not_reorders() {
        let mut t = FifoOrderTracker::new();
        for (w, s) in [(1, 0), (2, 0), (1, 2), (1, 1), (2, 1)] {
            t.note(w, s); // writer 1: 0, then 2 (loss of 1 ok) — but then 1 surfaces late: reorder
        }
        assert!(t.verdict().unwrap_err().contains("writer 1 seq 1"));

        let mut ok = FifoOrderTracker::new();
        for (w, s) in [(1, 0), (1, 0), (1, 1), (2, 5), (1, 3), (1, 1), (2, 9)] {
            ok.note(w, s); // dups of already-seen seqnos are fine anywhere
        }
        ok.verdict().unwrap();
    }
}
