//! Distributed capabilities (paper §3.2).
//!
//! XPU-Shim keeps a `CAP_Group` per global process: the list of distributed
//! objects it may touch and with which permissions. One special permission is
//! *owner* — only an owner may `grant_cap`/`revoke_cap` for the object. All
//! capability updates are synchronized immediately across PUs so permission
//! checks always complete locally (§5 "Inter-PU synchronization").

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use hetsim::pu::PuId;
use molecule_tenancy::TenantId;
use serde::{Deserialize, Serialize};

use crate::id::{ObjId, XpuPid};

/// Permission bits on a distributed object.
///
/// # Examples
///
/// ```
/// use xpu_shim::cap::Perm;
///
/// let rw = Perm::READ | Perm::WRITE;
/// assert!(rw.contains(Perm::READ));
/// assert!(!rw.contains(Perm::OWNER));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Perm(u8);

impl Perm {
    /// No permissions.
    pub const NONE: Perm = Perm(0);
    /// May read (e.g. `xfifo_read` / connect for reading).
    pub const READ: Perm = Perm(0b001);
    /// May write (e.g. `xfifo_write`).
    pub const WRITE: Perm = Perm(0b010);
    /// May grant/revoke this object's capabilities to other processes.
    pub const OWNER: Perm = Perm(0b100);
    /// All permissions.
    pub const ALL: Perm = Perm(0b111);

    /// True if every bit of `other` is present in `self`.
    pub fn contains(self, other: Perm) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if `self` and `other` share at least one bit.
    pub fn intersects(self, other: Perm) -> bool {
        self.0 & other.0 != 0
    }

    /// Removes the bits of `other`.
    #[must_use]
    pub fn without(self, other: Perm) -> Perm {
        Perm(self.0 & !other.0)
    }

    /// True if no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Perm {
    type Output = Perm;
    fn bitor(self, rhs: Perm) -> Perm {
        Perm(self.0 | rhs.0)
    }
}

impl BitOrAssign for Perm {
    fn bitor_assign(&mut self, rhs: Perm) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        s.push(if self.contains(Perm::READ) { 'r' } else { '-' });
        s.push(if self.contains(Perm::WRITE) { 'w' } else { '-' });
        s.push(if self.contains(Perm::OWNER) { 'o' } else { '-' });
        f.write_str(&s)
    }
}

/// What kind of distributed object an [`ObjId`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjKind {
    /// An inter-process connection object (an XPU-FIFO).
    Ipc,
    /// A capability group itself (process identity object).
    CapGroup,
    /// A named shared-state region (the guard object for tier-2 sync).
    Region,
}

/// Errors from capability operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapError {
    /// The acting process lacks the required permission on the object.
    PermissionDenied {
        /// Who attempted the operation.
        actor: XpuPid,
        /// On which object.
        obj: ObjId,
        /// The permission that was required.
        required: Perm,
    },
    /// The object id is unknown.
    UnknownObject(ObjId),
    /// The process has no `CAP_Group` (was never attached to the shim).
    UnknownProcess(XpuPid),
    /// The grant would cross a tenant boundary: the object belongs to one
    /// tenant's capability domain and the grantee to another. Denied by
    /// construction — no permission bits are consulted, no override exists.
    TenantMismatch {
        /// The object whose domain would be breached.
        obj: ObjId,
        /// The tenant owning the object.
        owner: TenantId,
        /// The grantee's tenant.
        to: TenantId,
    },
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::PermissionDenied { actor, obj, required } => {
                write!(f, "{actor} lacks {required} on {obj}")
            }
            CapError::UnknownObject(obj) => write!(f, "unknown object {obj}"),
            CapError::UnknownProcess(pid) => write!(f, "unknown process {pid}"),
            CapError::TenantMismatch { obj, owner, to } => {
                write!(f, "tenant isolation: {obj} belongs to {owner}, grantee is {to}")
            }
        }
    }
}

impl std::error::Error for CapError {}

/// A process's capability list.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CapGroup {
    caps: HashMap<ObjId, Perm>,
}

impl CapGroup {
    /// The permission this group holds on `obj` ([`Perm::NONE`] if absent).
    pub fn perm(&self, obj: ObjId) -> Perm {
        self.caps.get(&obj).copied().unwrap_or(Perm::NONE)
    }

    /// Number of capabilities held.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True if the group holds no capabilities.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// The capability table: `CAP_Group`s for every global process plus object
/// metadata. One logical instance is kept consistent across PUs via the
/// cluster's immediate-sync protocol; this type is the *state*, the cluster
/// charges the *latency*.
#[derive(Debug, Default)]
pub struct CapTable {
    groups: HashMap<XpuPid, CapGroup>,
    objects: HashMap<ObjId, ObjKind>,
    /// Which tenant's capability domain each process belongs to. Absent
    /// means [`TenantId::SYSTEM`] (the pre-tenancy default).
    tenants: HashMap<XpuPid, TenantId>,
    /// Which tenant's domain each object was created in (its owner's
    /// tenant at creation time — objects never migrate).
    object_tenants: HashMap<ObjId, TenantId>,
    /// Per-PU index over `groups`: the crash sweep reads the dead PU's own
    /// pid set instead of filtering every registered process. At 10k+
    /// resident sandboxes per PU the full-table filter is what capped
    /// reclamation.
    by_pu: HashMap<PuId, HashSet<XpuPid>>,
    /// Reverse index: which processes currently hold a capability on each
    /// object, so `destroy_object` revokes O(holders) instead of walking
    /// every `CAP_Group` in the table.
    holders: HashMap<ObjId, HashSet<XpuPid>>,
    next_obj: u64,
}

impl CapTable {
    /// Creates an empty table.
    pub fn new() -> CapTable {
        CapTable::default()
    }

    /// Registers a process (creates its empty `CAP_Group`) in the
    /// [`TenantId::SYSTEM`] domain. Idempotent.
    pub fn register_process(&mut self, pid: XpuPid) {
        self.register_process_for(pid, TenantId::SYSTEM);
    }

    /// Registers a process in `tenant`'s capability domain. Idempotent; a
    /// pid that already exists keeps its original tenant (processes never
    /// migrate between domains).
    pub fn register_process_for(&mut self, pid: XpuPid, tenant: TenantId) {
        self.groups.entry(pid).or_default();
        self.tenants.entry(pid).or_insert(tenant);
        self.by_pu.entry(pid.pu).or_default().insert(pid);
    }

    /// The tenant domain a process belongs to ([`TenantId::SYSTEM`] when
    /// never registered — the pre-tenancy default).
    pub fn tenant_of(&self, pid: XpuPid) -> TenantId {
        self.tenants.get(&pid).copied().unwrap_or(TenantId::SYSTEM)
    }

    /// The tenant domain an object was created in, if it exists.
    pub fn object_tenant(&self, obj: ObjId) -> Option<TenantId> {
        self.object_tenants.get(&obj).copied()
    }

    /// Removes a process and drops all its capabilities.
    pub fn remove_process(&mut self, pid: XpuPid) {
        if let Some(group) = self.groups.remove(&pid) {
            for obj in group.caps.keys() {
                if let Some(holders) = self.holders.get_mut(obj) {
                    holders.remove(&pid);
                    if holders.is_empty() {
                        self.holders.remove(obj);
                    }
                }
            }
        }
        self.tenants.remove(&pid);
        if let Some(pids) = self.by_pu.get_mut(&pid.pu) {
            pids.remove(&pid);
            if pids.is_empty() {
                self.by_pu.remove(&pid.pu);
            }
        }
    }

    /// True if the process has a `CAP_Group`.
    pub fn has_process(&self, pid: XpuPid) -> bool {
        self.groups.contains_key(&pid)
    }

    /// Creates a new distributed object owned by `owner` (who receives
    /// [`Perm::ALL`]).
    ///
    /// # Errors
    ///
    /// [`CapError::UnknownProcess`] if `owner` has no `CAP_Group`.
    pub fn create_object(&mut self, owner: XpuPid, kind: ObjKind) -> Result<ObjId, CapError> {
        if !self.groups.contains_key(&owner) {
            return Err(CapError::UnknownProcess(owner));
        }
        self.next_obj += 1;
        let obj = ObjId(self.next_obj);
        self.objects.insert(obj, kind);
        self.object_tenants.insert(obj, self.tenant_of(owner));
        self.groups.get_mut(&owner).expect("checked above").caps.insert(obj, Perm::ALL);
        self.holders.entry(obj).or_default().insert(owner);
        Ok(obj)
    }

    /// Destroys an object, revoking every process's capability on it.
    ///
    /// # Errors
    ///
    /// [`CapError::UnknownObject`] if the object does not exist.
    pub fn destroy_object(&mut self, obj: ObjId) -> Result<(), CapError> {
        self.objects.remove(&obj).ok_or(CapError::UnknownObject(obj))?;
        self.object_tenants.remove(&obj);
        if let Some(holders) = self.holders.remove(&obj) {
            for pid in holders {
                if let Some(group) = self.groups.get_mut(&pid) {
                    group.caps.remove(&obj);
                }
            }
        }
        Ok(())
    }

    /// The permission `pid` holds on `obj`.
    pub fn perm(&self, pid: XpuPid, obj: ObjId) -> Perm {
        self.groups.get(&pid).map_or(Perm::NONE, |g| g.perm(obj))
    }

    /// Checks that `pid` holds `required` on `obj`.
    ///
    /// # Errors
    ///
    /// [`CapError::PermissionDenied`] (or unknown object/process variants).
    pub fn check(&self, pid: XpuPid, obj: ObjId, required: Perm) -> Result<(), CapError> {
        if !self.objects.contains_key(&obj) {
            return Err(CapError::UnknownObject(obj));
        }
        let group = self.groups.get(&pid).ok_or(CapError::UnknownProcess(pid))?;
        if group.perm(obj).contains(required) {
            Ok(())
        } else {
            Err(CapError::PermissionDenied { actor: pid, obj, required })
        }
    }

    /// `grant_cap(xpu_pid, obj_id, perm)` — `actor` (an owner) grants `perm`
    /// on `obj` to `to`.
    ///
    /// # Errors
    ///
    /// [`CapError::PermissionDenied`] unless `actor` owns `obj`;
    /// [`CapError::UnknownProcess`] if `to` has no `CAP_Group`;
    /// [`CapError::TenantMismatch`] if `to` lives in a different tenant's
    /// capability domain than the object — cross-tenant grants are denied
    /// by construction, even for an owner.
    pub fn grant(
        &mut self,
        actor: XpuPid,
        to: XpuPid,
        obj: ObjId,
        perm: Perm,
    ) -> Result<(), CapError> {
        self.check(actor, obj, Perm::OWNER)?;
        if !self.groups.contains_key(&to) {
            return Err(CapError::UnknownProcess(to));
        }
        let owner_tenant = self.object_tenant(obj).unwrap_or(TenantId::SYSTEM);
        let to_tenant = self.tenant_of(to);
        if owner_tenant != to_tenant {
            return Err(CapError::TenantMismatch { obj, owner: owner_tenant, to: to_tenant });
        }
        let group = self.groups.get_mut(&to).expect("checked above");
        let entry = group.caps.entry(obj).or_insert(Perm::NONE);
        *entry |= perm;
        self.holders.entry(obj).or_default().insert(to);
        Ok(())
    }

    /// `revoke_cap(xpu_pid, obj_id, perm)` — `actor` (an owner) strips `perm`
    /// on `obj` from `from`.
    ///
    /// # Errors
    ///
    /// [`CapError::PermissionDenied`] unless `actor` owns `obj`;
    /// [`CapError::UnknownProcess`] if `from` has no `CAP_Group`.
    pub fn revoke(
        &mut self,
        actor: XpuPid,
        from: XpuPid,
        obj: ObjId,
        perm: Perm,
    ) -> Result<(), CapError> {
        self.check(actor, obj, Perm::OWNER)?;
        let group = self.groups.get_mut(&from).ok_or(CapError::UnknownProcess(from))?;
        if let Some(entry) = group.caps.get_mut(&obj) {
            *entry = entry.without(perm);
            if entry.is_empty() {
                group.caps.remove(&obj);
                if let Some(holders) = self.holders.get_mut(&obj) {
                    holders.remove(&from);
                    if holders.is_empty() {
                        self.holders.remove(&obj);
                    }
                }
            }
        }
        Ok(())
    }

    /// A process's capability group, if registered.
    pub fn group(&self, pid: XpuPid) -> Option<&CapGroup> {
        self.groups.get(&pid)
    }

    /// All registered processes living on `pu`, in pid order. The crash
    /// reclamation path sweeps this list when a PU dies (static
    /// partitioning makes the sweep purely local — the pid embeds the PU).
    /// Served from the per-PU index: O(pids on `pu`), not O(all pids) — at
    /// 10k+ resident sandboxes the full-table filter dominated reclaim.
    pub fn pids_on(&self, pu: PuId) -> Vec<XpuPid> {
        let mut pids: Vec<XpuPid> =
            self.by_pu.get(&pu).map(|s| s.iter().copied().collect()).unwrap_or_default();
        pids.sort();
        pids
    }

    /// Processes currently holding a capability on `obj`, in pid order —
    /// served from the reverse holders index.
    pub fn holders_of(&self, obj: ObjId) -> Vec<XpuPid> {
        let mut pids: Vec<XpuPid> =
            self.holders.get(&obj).map(|s| s.iter().copied().collect()).unwrap_or_default();
        pids.sort();
        pids
    }

    /// Every `(process, object, permission)` triple currently in the table,
    /// sorted — a deterministic flattening for snapshot-based invariant
    /// oracles (simcheck walks this after every engine step that changed
    /// the cluster).
    pub fn entries(&self) -> Vec<(XpuPid, ObjId, Perm)> {
        let mut out: Vec<(XpuPid, ObjId, Perm)> = self
            .groups
            .iter()
            .flat_map(|(pid, group)| group.caps.iter().map(|(obj, perm)| (*pid, *obj, *perm)))
            .collect();
        out.sort_by_key(|(pid, obj, _)| (*pid, *obj));
        out
    }

    /// Every `(process, tenant)` pair, sorted by pid — the deterministic
    /// flattening the simcheck tenant-isolation oracle walks.
    pub fn tenant_entries(&self) -> Vec<(XpuPid, TenantId)> {
        let mut out: Vec<(XpuPid, TenantId)> =
            self.groups.keys().map(|pid| (*pid, self.tenant_of(*pid))).collect();
        out.sort_by_key(|(pid, _)| *pid);
        out
    }

    /// Every `(object, tenant)` pair, sorted by object id.
    pub fn object_tenant_entries(&self) -> Vec<(ObjId, TenantId)> {
        let mut out: Vec<(ObjId, TenantId)> = self
            .objects
            .keys()
            .map(|obj| (*obj, self.object_tenant(*obj).unwrap_or(TenantId::SYSTEM)))
            .collect();
        out.sort_by_key(|(obj, _)| *obj);
        out
    }

    /// All live object ids, sorted.
    pub fn object_ids(&self) -> Vec<ObjId> {
        let mut objs: Vec<ObjId> = self.objects.keys().copied().collect();
        objs.sort();
        objs
    }

    /// All registered process ids (those with a `CAP_Group`), sorted.
    pub fn process_ids(&self) -> Vec<XpuPid> {
        let mut pids: Vec<XpuPid> = self.groups.keys().copied().collect();
        pids.sort();
        pids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::pu::PuId;

    fn pid(pu: u16, local: u32) -> XpuPid {
        XpuPid { pu: PuId(pu), local }
    }

    #[test]
    fn owner_can_grant_and_revoke() {
        let mut t = CapTable::new();
        let owner = pid(0, 1);
        let peer = pid(1, 1);
        t.register_process(owner);
        t.register_process(peer);
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();

        assert!(t.check(peer, obj, Perm::READ).is_err());
        t.grant(owner, peer, obj, Perm::READ | Perm::WRITE).unwrap();
        t.check(peer, obj, Perm::READ).unwrap();
        t.check(peer, obj, Perm::WRITE).unwrap();
        assert!(t.check(peer, obj, Perm::OWNER).is_err());

        t.revoke(owner, peer, obj, Perm::WRITE).unwrap();
        t.check(peer, obj, Perm::READ).unwrap();
        assert!(t.check(peer, obj, Perm::WRITE).is_err());
    }

    #[test]
    fn non_owner_cannot_grant() {
        let mut t = CapTable::new();
        let owner = pid(0, 1);
        let peer = pid(1, 1);
        let third = pid(2, 1);
        for p in [owner, peer, third] {
            t.register_process(p);
        }
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();
        t.grant(owner, peer, obj, Perm::READ | Perm::WRITE).unwrap();
        // peer has rw but not owner: granting onwards must fail.
        let err = t.grant(peer, third, obj, Perm::READ).unwrap_err();
        assert!(
            matches!(err, CapError::PermissionDenied { required, .. } if required == Perm::OWNER)
        );
    }

    #[test]
    fn grants_never_escalate_without_owner() {
        // A process can never gain OWNER unless an owner explicitly grants it.
        let mut t = CapTable::new();
        let owner = pid(0, 1);
        let peer = pid(1, 1);
        t.register_process(owner);
        t.register_process(peer);
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();
        t.grant(owner, peer, obj, Perm::READ).unwrap();
        t.grant(owner, peer, obj, Perm::WRITE).unwrap();
        assert_eq!(t.perm(peer, obj), Perm::READ | Perm::WRITE);
        t.grant(owner, peer, obj, Perm::OWNER).unwrap();
        assert_eq!(t.perm(peer, obj), Perm::ALL);
        // And now the peer can grant onwards (ownership is transferable).
        let third = pid(2, 1);
        t.register_process(third);
        t.grant(peer, third, obj, Perm::READ).unwrap();
    }

    #[test]
    fn destroy_object_revokes_everywhere() {
        let mut t = CapTable::new();
        let owner = pid(0, 1);
        let peer = pid(1, 1);
        t.register_process(owner);
        t.register_process(peer);
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();
        t.grant(owner, peer, obj, Perm::READ).unwrap();
        t.destroy_object(obj).unwrap();
        assert_eq!(t.check(owner, obj, Perm::READ), Err(CapError::UnknownObject(obj)));
        assert_eq!(t.perm(peer, obj), Perm::NONE);
        assert_eq!(t.destroy_object(obj), Err(CapError::UnknownObject(obj)));
    }

    #[test]
    fn unknown_process_errors() {
        let mut t = CapTable::new();
        let ghost = pid(0, 99);
        assert_eq!(t.create_object(ghost, ObjKind::Ipc), Err(CapError::UnknownProcess(ghost)));
        t.register_process(pid(0, 1));
        let obj = {
            t.register_process(ghost);
            let o = t.create_object(ghost, ObjKind::Ipc).unwrap();
            t.remove_process(ghost);
            o
        };
        assert_eq!(t.check(ghost, obj, Perm::READ), Err(CapError::UnknownProcess(ghost)));
    }

    #[test]
    fn perm_display_and_ops() {
        assert_eq!(Perm::ALL.to_string(), "rwo");
        assert_eq!((Perm::READ | Perm::OWNER).to_string(), "r-o");
        assert_eq!(Perm::NONE.to_string(), "---");
        assert!(Perm::ALL.intersects(Perm::WRITE));
        assert!(!Perm::READ.intersects(Perm::WRITE));
        assert!(Perm::READ.without(Perm::READ).is_empty());
    }

    #[test]
    fn cross_tenant_grant_is_denied_by_construction() {
        let mut t = CapTable::new();
        let alice = pid(0, 1);
        let bob = pid(1, 1);
        t.register_process_for(alice, TenantId(1));
        t.register_process_for(bob, TenantId(2));
        let obj = t.create_object(alice, ObjKind::Ipc).unwrap();
        assert_eq!(t.object_tenant(obj), Some(TenantId(1)), "object inherits creator's tenant");
        // Even the owner cannot hand a capability across the boundary.
        let err = t.grant(alice, bob, obj, Perm::READ).unwrap_err();
        assert_eq!(err, CapError::TenantMismatch { obj, owner: TenantId(1), to: TenantId(2) });
        assert_eq!(t.perm(bob, obj), Perm::NONE, "no partial grant leaked");
        // Same-tenant grants still work.
        let carol = pid(1, 2);
        t.register_process_for(carol, TenantId(1));
        t.grant(alice, carol, obj, Perm::READ).unwrap();
        t.check(carol, obj, Perm::READ).unwrap();
    }

    #[test]
    fn register_is_idempotent_and_processes_never_migrate_tenants() {
        let mut t = CapTable::new();
        let p = pid(0, 1);
        t.register_process_for(p, TenantId(5));
        t.register_process_for(p, TenantId(9));
        assert_eq!(t.tenant_of(p), TenantId(5), "first registration wins");
        t.register_process(p);
        assert_eq!(t.tenant_of(p), TenantId(5));
        // Unregistered pids default to the platform domain.
        assert_eq!(t.tenant_of(pid(7, 7)), TenantId::SYSTEM);
        t.remove_process(p);
        assert_eq!(t.tenant_of(p), TenantId::SYSTEM, "removal clears the tag");
    }

    #[test]
    fn tenant_entries_flatten_deterministically() {
        let mut t = CapTable::new();
        t.register_process_for(pid(1, 1), TenantId(2));
        t.register_process_for(pid(0, 1), TenantId(1));
        let objs: Vec<_> = [pid(0, 1), pid(1, 1)]
            .iter()
            .map(|p| t.create_object(*p, ObjKind::Ipc).unwrap())
            .collect();
        assert_eq!(t.tenant_entries(), vec![(pid(0, 1), TenantId(1)), (pid(1, 1), TenantId(2))]);
        assert_eq!(t.object_tenant_entries(), vec![(objs[0], TenantId(1)), (objs[1], TenantId(2))]);
    }

    #[test]
    fn revoking_unheld_perm_is_a_noop() {
        let mut t = CapTable::new();
        let owner = pid(0, 1);
        let peer = pid(1, 1);
        t.register_process(owner);
        t.register_process(peer);
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();
        t.revoke(owner, peer, obj, Perm::WRITE).unwrap();
        assert_eq!(t.perm(peer, obj), Perm::NONE);
    }
}
