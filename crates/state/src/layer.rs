//! The two-tier state layer.
//!
//! **Tier 1 — PU-local shared regions.** Every replica of a region is backed
//! by one block of pages on that PU's [`LocalOs`](hetsim::os::LocalOs),
//! owned by a per-replica region-host process. Co-located sandboxes
//! `map_shared` that block, so N readers of the same weights keep **one**
//! copy resident (the Fig. 2a/11 density argument applied to state). Writes
//! never touch the published pages: they stage into a private working set
//! (COW — the writer's own pages grow, the shared block does not change)
//! until an explicit [`commit`](StateLayer::commit) publishes a new version.
//!
//! **Tier 2 — cross-PU sync.** Replicas on other PUs synchronize through the
//! shim's capability-guarded region API: `commit` from a non-master replica
//! pushes its dirty pages to the master (push-on-commit, last-writer-wins
//! per page), stale replicas refresh with [`pull`](StateLayer::pull)
//! (pull-on-miss, single-flight per replica), and
//! [`cas`](StateLayer::cas) linearizes small read-modify-writes at the
//! master. Payloads at or above the calibrated zero-copy threshold travel as
//! one-shot `SegDescriptor` hand-offs through the shared-segment arena —
//! the same fabric (and the same reclamation sweep) as nIPC FIFO payloads.
//!
//! **Failure.** When a master's PU dies, `ShimCluster::reclaim_pu` sweeps
//! the region's UUID, guard object and parked slots exactly once;
//! [`handle_pu_death`](StateLayer::handle_pu_death) then re-masters each
//! orphaned region onto the surviving replica with the freshest cache,
//! re-registering it under a fresh generation UUID. Commits that only
//! reached the dead master's memory are lost (documented write-back
//! semantics); the committed-version counter still never moves backwards.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use hetsim::calib::OsCosts;
use hetsim::engine::{ProcCtx, SimSemaphore};
use hetsim::os::{BlockId, OsPid};
use hetsim::pu::{PuId, PuModel};
use parking_lot::Mutex;
use xpu_shim::cluster::ShimCluster;
use xpu_shim::{GlobalUuid, ObjId, Perm, TenantId, Watched, XpuPid};

use crate::committed::Committed;
use crate::region::{
    region_uuid, RegionSpec, RegionStateSnapshot, ReplicaSnapshot, StateError, StateSnapshot,
};

/// Called whenever a PU gains (`true`) or loses (`false`) a replica of a
/// region — the hook the gateway's region directory subscribes to for
/// state-locality placement.
pub type HostObserver = Arc<dyn Fn(&str, PuId, bool) + Send + Sync>;

/// A replica's uncommitted writes. No snapshot reads them, so
/// [`StateLayer::write`] stages them through the shared accessor and
/// leaves the layer's mutation epoch alone.
#[derive(Default)]
struct Staging {
    /// COW working set: page index → private page content.
    dirty: BTreeMap<u64, Vec<u8>>,
    /// Private page blocks allocated to writers for COW breaks, released
    /// when the dirty set publishes or the replica goes away.
    blocks: Vec<(OsPid, BlockId)>,
}

struct Replica {
    /// Committed version this cache holds.
    version: u64,
    /// The cached committed bytes (never mutated by local writes).
    committed: Committed,
    staging: RefCell<Staging>,
    /// The region-host process owning the backing block on this PU's OS.
    host_pid: OsPid,
    /// The shared backing block sandboxes `map_shared`.
    block: BlockId,
    /// This replica's shim process (holds the region capabilities).
    daemon: XpuPid,
}

impl Replica {
    /// A fresh replica at version 0 (all-zero bytes) with nothing staged.
    fn new(size: usize, host_pid: OsPid, block: BlockId, daemon: XpuPid) -> Replica {
        Replica {
            version: 0,
            committed: Committed::zeroed(size),
            staging: RefCell::default(),
            host_pid,
            block,
            daemon,
        }
    }
}

struct Region {
    spec: RegionSpec,
    uuid: GlobalUuid,
    guard: ObjId,
    /// Re-mastering generation; bumps when a dead owner's region re-homes.
    gen: u64,
    master: PuId,
    /// Highest version ever committed under this name.
    floor: u64,
    replicas: BTreeMap<PuId, Replica>,
}

impl Region {
    fn master_version(&self) -> u64 {
        self.replicas.get(&self.master).map_or(0, |r| r.version)
    }
}

#[derive(Default)]
struct LayerState {
    /// Every region with its replicas' versions and committed caches: what
    /// [`StateLayer::snapshot`] reads, so every change moves the epoch.
    regions: Watched<HashMap<String, Region>>,
    /// Per-(PU, region) single-flight gates for attach/pull.
    gates: HashMap<(PuId, String), SimSemaphore>,
}

struct LayerInner {
    cluster: ShimCluster,
    state: Mutex<LayerState>,
    observer: Mutex<Option<HostObserver>>,
}

/// The deployed state layer. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct StateLayer {
    inner: Arc<LayerInner>,
}

impl fmt::Debug for StateLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("StateLayer").field("regions", &st.regions.get().len()).finish()
    }
}

impl StateLayer {
    /// Deploys the state layer over an existing shim cluster.
    pub fn new(cluster: ShimCluster) -> StateLayer {
        StateLayer {
            inner: Arc::new(LayerInner {
                cluster,
                state: Mutex::new(LayerState::default()),
                observer: Mutex::new(None),
            }),
        }
    }

    /// The shim cluster this layer syncs through.
    pub fn cluster(&self) -> &ShimCluster {
        &self.inner.cluster
    }

    /// Installs the replica-placement observer (replacing any previous one)
    /// and replays the current host set into it, so a directory attached
    /// late still sees every live replica.
    pub fn set_host_observer(&self, observer: HostObserver) {
        let existing: Vec<(String, PuId)> = {
            let st = self.inner.state.lock();
            st.regions
                .get()
                .iter()
                .flat_map(|(name, r)| r.replicas.keys().map(|pu| (name.clone(), *pu)))
                .collect()
        };
        for (name, pu) in &existing {
            observer(name, *pu, true);
        }
        *self.inner.observer.lock() = Some(observer);
    }

    fn notify(&self, name: &str, pu: PuId, hosted: bool) {
        let observer = self.inner.observer.lock().clone();
        if let Some(f) = observer {
            f(name, pu, hosted);
        }
    }

    fn os_costs(&self, pu: PuId) -> OsCosts {
        let machine = self.inner.cluster.machine();
        let model = machine.pu(pu).map_or(PuModel::Xeon8160, |p| p.model);
        machine.calibration().os_costs(model)
    }

    fn gate(&self, pu: PuId, name: &str, ctx: &mut ProcCtx) -> SimSemaphore {
        let mut st = self.inner.state.lock();
        st.gates.entry((pu, name.to_owned())).or_insert_with(|| ctx.semaphore(1)).clone()
    }

    /// Creates a region mastered on `master`, with its first (authoritative)
    /// replica there at version 0 (all-zero bytes). Registers the region's
    /// UUID and guard object cluster-wide (immediate synchronization, like
    /// `xfifo_init`).
    ///
    /// # Errors
    ///
    /// [`StateError::RegionExists`] / [`StateError::NoOs`] /
    /// [`StateError::Shim`].
    pub fn create_region(
        &self,
        ctx: &mut ProcCtx,
        master: PuId,
        spec: RegionSpec,
    ) -> Result<(), StateError> {
        let name = spec.name.clone();
        if self.inner.state.lock().regions.get().contains_key(&name) {
            return Err(StateError::RegionExists(name));
        }
        let os =
            self.inner.cluster.machine().os(master).cloned().ok_or(StateError::NoOs(master))?;
        let host_pid = os.register_process(&format!("region-{name}@pu{}", master.0), 1);
        let block =
            os.map_private(host_pid, spec.pages).map_err(|e| StateError::Os(e.to_string()))?;
        let shim = self.inner.cluster.shim_on(master)?;
        // The region daemon joins the spec's tenant domain, so the guard
        // object it registers inherits that tenant and every later grant is
        // tenant-checked by construction.
        let daemon = shim.attach_process_as(spec.tenant);
        let uuid = region_uuid(&name, 0);
        let guard = match self.inner.cluster.register_region(ctx, daemon, uuid.clone()) {
            Ok(obj) => obj,
            Err(e) => {
                let _ = os.exit_process(host_pid);
                self.inner.cluster.shim_on(master)?.detach_process(daemon);
                return Err(e.into());
            }
        };
        let size = spec.size_bytes() as usize;
        {
            let mut st = self.inner.state.lock();
            // register_region yielded; a concurrent create with the same
            // name would have failed on the UUID, so the slot is still ours.
            st.regions.get_mut().insert(
                name.clone(),
                Region {
                    spec,
                    uuid,
                    guard,
                    gen: 0,
                    master,
                    floor: 0,
                    replicas: BTreeMap::from([(
                        master,
                        Replica::new(size, host_pid, block, daemon),
                    )]),
                },
            );
        }
        self.notify(&name, master, true);
        Ok(())
    }

    /// Attaches a replica of `name` on `pu`, pulling the current committed
    /// version from the master, and returns the backing block for sandboxes
    /// to `map_shared`. Idempotent: an already-attached PU just gets its
    /// block back.
    ///
    /// # Errors
    ///
    /// [`StateError::UnknownRegion`] / [`StateError::NoOs`] /
    /// [`StateError::Shim`].
    pub fn attach(&self, ctx: &mut ProcCtx, pu: PuId, name: &str) -> Result<BlockId, StateError> {
        self.attach_from(ctx, pu, name, None)
    }

    /// [`attach`](Self::attach), but with the replica daemon joining
    /// `tenant`'s capability domain instead of the region's own. When the
    /// domains differ the attach dies at grant time with
    /// [`ShimError::TenantDenied`](xpu_shim::ShimError::TenantDenied) —
    /// shared state never crosses a tenant boundary.
    ///
    /// # Errors
    ///
    /// As [`attach`](Self::attach), plus the tenant denial above.
    pub fn attach_as(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        name: &str,
        tenant: TenantId,
    ) -> Result<BlockId, StateError> {
        self.attach_from(ctx, pu, name, Some(tenant))
    }

    fn attach_from(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        name: &str,
        tenant: Option<TenantId>,
    ) -> Result<BlockId, StateError> {
        // Single-flight with concurrent attaches and pulls on this (pu,
        // region): the loser of the race finds the replica present.
        let gate = self.gate(pu, name, ctx);
        let _permit = gate.acquire(ctx, 1);
        let (master, guard, pages, region_tenant) = {
            let st = self.inner.state.lock();
            let region =
                st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            if let Some(replica) = region.replicas.get(&pu) {
                return Ok(replica.block);
            }
            let master_daemon =
                region.replicas.get(&region.master).expect("master replica always exists").daemon;
            ((region.master, master_daemon), region.guard, region.spec.pages, region.spec.tenant)
        };
        let os = self.inner.cluster.machine().os(pu).cloned().ok_or(StateError::NoOs(pu))?;
        let host_pid = os.register_process(&format!("region-{name}@pu{}", pu.0), 1);
        let block = os.map_private(host_pid, pages).map_err(|e| StateError::Os(e.to_string()))?;
        let daemon =
            self.inner.cluster.shim_on(pu)?.attach_process_as(tenant.unwrap_or(region_tenant));
        // The master's daemon (guard owner) grants the replica its tier-2
        // capabilities; capability updates synchronize immediately. A
        // cross-tenant attach is refused right here — unwind the half-built
        // replica so the denial leaves no residue.
        let master_shim = self.inner.cluster.shim_on(master.0)?;
        if let Err(e) =
            master_shim.grant_cap(ctx, master.1, daemon, guard, Perm::READ | Perm::WRITE)
        {
            self.inner.cluster.shim_on(pu)?.detach_process(daemon);
            let _ = os.exit_process(host_pid);
            return Err(e.into());
        }
        {
            let mut st = self.inner.state.lock();
            let region = st
                .regions
                .get_mut()
                .get_mut(name)
                .ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            let size = region.spec.size_bytes() as usize;
            region.replicas.insert(pu, Replica::new(size, host_pid, block, daemon));
        }
        self.notify(name, pu, true);
        // Fresh replicas start at version 0; catch up to the master now
        // (still under the single-flight gate, so concurrent pulls dedup).
        self.pull_locked(ctx, pu, name)?;
        Ok(block)
    }

    /// The backing block of `name`'s replica on `pu`, if attached.
    pub fn block_of(&self, pu: PuId, name: &str) -> Option<BlockId> {
        let st = self.inner.state.lock();
        st.regions.get().get(name).and_then(|r| r.replicas.get(&pu)).map(|r| r.block)
    }

    /// PUs currently hosting a replica of `name`, sorted.
    pub fn hosts(&self, name: &str) -> Vec<PuId> {
        let st = self.inner.state.lock();
        st.regions.get().get(name).map_or_else(Vec::new, |r| r.replicas.keys().copied().collect())
    }

    /// The committed version at the master.
    pub fn version(&self, name: &str) -> Option<u64> {
        let st = self.inner.state.lock();
        st.regions.get().get(name).map(|r| r.master_version())
    }

    /// Test-only: flips byte `offset` of `pu`'s committed cache of `name`
    /// and leaves its version alone — divergent pages under a pinned
    /// version, for the coherence oracle to catch. Not part of the
    /// supported API.
    ///
    /// # Errors
    ///
    /// [`StateError::UnknownRegion`] / [`StateError::NotAttached`] /
    /// [`StateError::OutOfBounds`].
    #[doc(hidden)]
    pub fn flip_committed_byte_for_test(
        &self,
        pu: PuId,
        name: &str,
        offset: u64,
    ) -> Result<(), StateError> {
        let mut st = self.inner.state.lock();
        let region = st
            .regions
            .get_mut()
            .get_mut(name)
            .ok_or_else(|| StateError::UnknownRegion(name.into()))?;
        Self::check_bounds(offset, 1, region.spec.size_bytes())?;
        let replica =
            region.replicas.get_mut(&pu).ok_or_else(|| StateError::NotAttached(name.into(), pu))?;
        replica.committed.bytes_mut()[offset as usize] ^= 0xff;
        Ok(())
    }

    fn check_bounds(offset: u64, len: u64, size: u64) -> Result<(), StateError> {
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(StateError::OutOfBounds { offset, len, size });
        }
        Ok(())
    }

    /// Stages `data` at `offset` into `pu`'s COW working set. The published
    /// pages are untouched: readers of the committed version see no change
    /// until [`commit`](Self::commit). When `writer` names a sandbox
    /// process, each newly dirtied page allocates one private page to it —
    /// the COW break the density accounting sees.
    ///
    /// # Errors
    ///
    /// [`StateError::NotAttached`] / [`StateError::OutOfBounds`].
    pub fn write(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        name: &str,
        offset: u64,
        data: &[u8],
        writer: Option<OsPid>,
    ) -> Result<(), StateError> {
        ctx.sleep(self.os_costs(pu).syscall);
        let os = self.inner.cluster.machine().os(pu).cloned();
        // Staging changes nothing a snapshot reads: shared access suffices.
        let st = self.inner.state.lock();
        let region =
            st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
        let size = region.spec.size_bytes();
        let page_bytes = region.spec.page_bytes;
        Self::check_bounds(offset, data.len() as u64, size)?;
        let replica =
            region.replicas.get(&pu).ok_or_else(|| StateError::NotAttached(name.into(), pu))?;
        let staging = &mut *replica.staging.borrow_mut();
        let mut cow_broken = 0u64;
        let first_page = offset / page_bytes;
        let last_page = (offset + data.len() as u64).div_ceil(page_bytes).max(first_page + 1);
        for page in first_page..last_page {
            let page_start = page * page_bytes;
            // Seed the working copy from the visible content on first touch.
            let copy = staging.dirty.entry(page).or_insert_with(|| {
                cow_broken += 1;
                let lo = page_start as usize;
                let hi = (page_start + page_bytes) as usize;
                replica.committed.bytes()[lo..hi].to_vec()
            });
            let from = offset.max(page_start);
            let to = (offset + data.len() as u64).min(page_start + page_bytes);
            copy[(from - page_start) as usize..(to - page_start) as usize]
                .copy_from_slice(&data[(from - offset) as usize..(to - offset) as usize]);
        }
        if cow_broken > 0 {
            if let (Some(os), Some(writer)) = (os, writer) {
                // The writer's private COW copies: its RSS grows, the shared
                // block (and every other sharer's PSS) does not.
                if let Ok(b) = os.map_private(writer, cow_broken) {
                    staging.blocks.push((writer, b));
                }
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` as this PU sees them: the local COW
    /// working set overlaid on the cached committed version. No implicit
    /// pull — a stale replica reads its stale (but internally consistent)
    /// version until somebody pulls.
    ///
    /// # Errors
    ///
    /// [`StateError::NotAttached`] / [`StateError::OutOfBounds`].
    pub fn read(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, StateError> {
        ctx.sleep(self.os_costs(pu).syscall);
        let st = self.inner.state.lock();
        let region =
            st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
        Self::check_bounds(offset, len, region.spec.size_bytes())?;
        let replica =
            region.replicas.get(&pu).ok_or_else(|| StateError::NotAttached(name.into(), pu))?;
        let staging = replica.staging.borrow();
        let page_bytes = region.spec.page_bytes;
        let end = offset + len;
        let mut out = Vec::with_capacity(len as usize);
        let mut at = offset;
        while at < end {
            let page = at / page_bytes;
            let page_start = page * page_bytes;
            let to = end.min(page_start + page_bytes);
            out.extend_from_slice(match staging.dirty.get(&page) {
                Some(copy) => &copy[(at - page_start) as usize..(to - page_start) as usize],
                None => &replica.committed.bytes()[at as usize..to as usize],
            });
            at = to;
        }
        Ok(out)
    }

    /// Publishes `pu`'s working set as a new committed version at the
    /// master and returns the new version number. A master-local commit
    /// applies in place; a remote commit pushes the dirty pages over the
    /// tier-2 descriptor path (push-on-commit) and the master merges them
    /// **last-writer-wins per page** in commit order. Either way the
    /// committer's COW blocks are released; a *remote* committer's own cache
    /// stays on its old version (lazy write-back — pull to observe the
    /// merge).
    ///
    /// # Errors
    ///
    /// [`StateError::NotAttached`]; [`StateError::Remastered`] when the
    /// owner died mid-flight; [`StateError::Shim`] for tier-2 failures
    /// (dead master, partition, revoked capability).
    pub fn commit(&self, ctx: &mut ProcCtx, pu: PuId, name: &str) -> Result<u64, StateError> {
        let t0 = ctx.now();
        // Phase 1: snapshot the push under the lock.
        let (gen, uuid, master, master_daemon, my_daemon, dirty, page_bytes) = {
            let st = self.inner.state.lock();
            let region =
                st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            let replica =
                region.replicas.get(&pu).ok_or_else(|| StateError::NotAttached(name.into(), pu))?;
            let staging = replica.staging.borrow();
            if staging.dirty.is_empty() {
                return Ok(replica.version);
            }
            let master_daemon = region.replicas.get(&region.master).expect("master replica").daemon;
            (
                region.gen,
                region.uuid.clone(),
                region.master,
                master_daemon,
                replica.daemon,
                staging.dirty.clone(),
                region.spec.page_bytes,
            )
        };
        if pu != master {
            // Tier 2: the dirty pages cross the interconnect once. At or
            // above the calibrated threshold they park in the segment arena
            // and only a descriptor is staged; the master side resolves it.
            let mut payload = Vec::with_capacity(dirty.len() * (8 + page_bytes as usize));
            for (page, copy) in &dirty {
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(copy);
            }
            let desc = self.inner.cluster.park_region_payload(
                ctx,
                my_daemon,
                &uuid,
                master,
                Bytes::from(payload),
            )?;
            if let Some(desc) = desc {
                self.inner.cluster.resolve_region_payload(ctx, master_daemon, &uuid, &desc)?;
            }
        } else {
            // Tier 1: publishing in place costs one local FIFO-sized copy.
            let bytes: u64 = dirty.values().map(|c| c.len() as u64).sum();
            ctx.sleep(self.os_costs(pu).fifo_latency(bytes));
        }
        // Phase 2: merge — re-validated, since the transfer yielded.
        let version = {
            let mut st = self.inner.state.lock();
            let region = st
                .regions
                .get_mut()
                .get_mut(name)
                .ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            if region.gen != gen {
                return Err(StateError::Remastered(name.into()));
            }
            let page_bytes = region.spec.page_bytes;
            let master_pu = region.master;
            {
                let master_replica = region.replicas.get_mut(&master_pu).expect("master replica");
                for (page, copy) in &dirty {
                    let lo = (*page * page_bytes) as usize;
                    master_replica.committed.bytes_mut()[lo..lo + copy.len()].copy_from_slice(copy);
                }
                master_replica.version = region.floor + 1;
            }
            region.floor += 1;
            if let Some(replica) = region.replicas.get_mut(&pu) {
                let staging = replica.staging.get_mut();
                // Drop exactly what was pushed; pages re-dirtied while the
                // push was in flight stay in the working set.
                for (page, copy) in &dirty {
                    if staging.dirty.get(page) == Some(copy) {
                        staging.dirty.remove(page);
                    }
                }
                // A clean working set releases its COW blocks. The master
                // replica *is* the commit; a remote committer's cache keeps
                // its old version (lazy write-back).
                if staging.dirty.is_empty() {
                    let os = self.inner.cluster.machine().os(pu).cloned();
                    if let Some(os) = os {
                        for (writer, b) in staging.blocks.drain(..) {
                            let _ = os.unmap(writer, b);
                        }
                    }
                }
            }
            region.floor
        };
        telemetry::with(|r| {
            r.complete_span(
                pu.0,
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("state-commit {name}"),
                ctx.trace_ctx(),
            );
        });
        Ok(version)
    }

    /// Refreshes `pu`'s replica to the master's committed version
    /// (pull-on-miss). Single-flight per (PU, region): concurrent pullers
    /// queue on the gate and all but the first find the cache fresh. The
    /// local COW working set survives the refresh.
    ///
    /// Returns the version the replica holds afterwards.
    ///
    /// # Errors
    ///
    /// [`StateError::NotAttached`] / [`StateError::Remastered`] /
    /// [`StateError::Shim`].
    pub fn pull(&self, ctx: &mut ProcCtx, pu: PuId, name: &str) -> Result<u64, StateError> {
        let gate = self.gate(pu, name, ctx);
        let _permit = gate.acquire(ctx, 1);
        self.pull_locked(ctx, pu, name)
    }

    /// The pull body, assuming the caller holds the (pu, region) gate.
    fn pull_locked(&self, ctx: &mut ProcCtx, pu: PuId, name: &str) -> Result<u64, StateError> {
        let t0 = ctx.now();
        let (gen, uuid, master, master_daemon, my_daemon, payload, version) = {
            let st = self.inner.state.lock();
            let region =
                st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            let replica =
                region.replicas.get(&pu).ok_or_else(|| StateError::NotAttached(name.into(), pu))?;
            let master_replica = region.replicas.get(&region.master).expect("master replica");
            if replica.version >= master_replica.version {
                return Ok(replica.version); // fresh — single-flight dedup
            }
            (
                region.gen,
                region.uuid.clone(),
                region.master,
                master_replica.daemon,
                replica.daemon,
                master_replica.committed.clone(),
                master_replica.version,
            )
        };
        if pu != master {
            let desc = self.inner.cluster.park_region_payload(
                ctx,
                master_daemon,
                &uuid,
                pu,
                Bytes::from(payload.bytes().to_vec()),
            )?;
            if let Some(desc) = desc {
                self.inner.cluster.resolve_region_payload(ctx, my_daemon, &uuid, &desc)?;
            }
        }
        {
            let mut st = self.inner.state.lock();
            let region = st
                .regions
                .get_mut()
                .get_mut(name)
                .ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            if region.gen != gen {
                return Err(StateError::Remastered(name.into()));
            }
            if let Some(replica) = region.replicas.get_mut(&pu) {
                if version > replica.version {
                    // Install the consistent (bytes, version) pair sampled at
                    // phase 1 — newer commits that landed mid-transfer are
                    // the *next* pull's problem, not a torn read.
                    replica.committed = payload;
                    replica.version = version;
                }
            }
        }
        telemetry::with(|r| {
            r.complete_span(
                pu.0,
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("state-pull {name}"),
                ctx.trace_ctx(),
            );
        });
        Ok(version)
    }

    /// Compare-and-swap on an 8-byte little-endian counter at `offset`,
    /// linearized at the master (one xcall round trip from `pu`). A
    /// successful swap publishes a new committed version. Returns whether
    /// the swap happened.
    ///
    /// # Errors
    ///
    /// [`StateError::UnknownRegion`] / [`StateError::OutOfBounds`] /
    /// [`StateError::Remastered`] / [`StateError::Shim`] (a dead or
    /// partitioned master surfaces here after the xcall timeout).
    pub fn cas(
        &self,
        ctx: &mut ProcCtx,
        pu: PuId,
        name: &str,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<bool, StateError> {
        let (gen, master) = {
            let st = self.inner.state.lock();
            let region =
                st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            Self::check_bounds(offset, 8, region.spec.size_bytes())?;
            (region.gen, region.master)
        };
        // One small RPC to the master's shim; the fault plane shapes it.
        self.inner.cluster.probe_pu(ctx, pu, master)?;
        let mut st = self.inner.state.lock();
        let region = st
            .regions
            .get_mut()
            .get_mut(name)
            .ok_or_else(|| StateError::UnknownRegion(name.into()))?;
        if region.gen != gen {
            return Err(StateError::Remastered(name.into()));
        }
        let master_pu = region.master;
        let floor = region.floor;
        let master_replica = region.replicas.get_mut(&master_pu).expect("master replica");
        let lo = offset as usize;
        let current = u64::from_le_bytes(
            master_replica.committed.bytes()[lo..lo + 8].try_into().expect("8 bytes"),
        );
        if current != expected {
            return Ok(false);
        }
        master_replica.committed.bytes_mut()[lo..lo + 8].copy_from_slice(&new.to_le_bytes());
        master_replica.version = floor + 1;
        region.floor += 1;
        Ok(true)
    }

    /// Drops the whole region: unregisters the UUID (guard destroyed, parked
    /// slots swept, UUID-free batched on the lazy path) and releases every
    /// replica's pages and daemons.
    ///
    /// # Errors
    ///
    /// [`StateError::UnknownRegion`] / [`StateError::Shim`].
    pub fn drop_region(&self, ctx: &mut ProcCtx, name: &str) -> Result<(), StateError> {
        let (uuid, master_daemon) = {
            let st = self.inner.state.lock();
            let region =
                st.regions.get().get(name).ok_or_else(|| StateError::UnknownRegion(name.into()))?;
            (
                region.uuid.clone(),
                region.replicas.get(&region.master).expect("master replica").daemon,
            )
        };
        self.inner.cluster.unregister_region(ctx, master_daemon, &uuid)?;
        let region = {
            let mut st = self.inner.state.lock();
            st.regions.get_mut().remove(name)
        };
        if let Some(region) = region {
            for (pu, replica) in region.replicas {
                self.release_replica(pu, replica);
                self.notify(name, pu, false);
            }
        }
        Ok(())
    }

    fn release_replica(&self, pu: PuId, replica: Replica) {
        if let Some(os) = self.inner.cluster.machine().os(pu) {
            for (writer, b) in &replica.staging.into_inner().blocks {
                let _ = os.unmap(*writer, *b);
            }
            let _ = os.exit_process(replica.host_pid);
        }
        self.inner.cluster.shim_on(pu).map(|s| s.detach_process(replica.daemon)).ok();
    }

    /// Recovers the layer after `dead`'s crash. Call **after**
    /// [`ShimCluster::reclaim_pu`], which has already swept the dead
    /// master's region UUIDs, guard objects, capabilities and parked slots.
    /// Dead replicas are forgotten; each region the dead PU mastered is
    /// re-mastered onto the surviving replica with the freshest cache
    /// (ties to the lowest PU) under a fresh generation UUID, and surviving
    /// replicas get their capabilities re-granted. The new master re-commits
    /// its cache as a version above everything ever committed, so the
    /// version vector stays monotone even though unreplicated commits are
    /// lost. A region with no surviving replica is gone.
    ///
    /// Returns the re-mastered region names.
    pub fn handle_pu_death(&self, ctx: &mut ProcCtx, dead: PuId) -> Vec<String> {
        // Phase 1: prune dead replicas and pick the new masters.
        let mut dropped_hosts: Vec<(String, PuId)> = Vec::new();
        let mut remaster: Vec<(String, PuId)> = Vec::new();
        let mut lost: Vec<String> = Vec::new();
        {
            let mut st = self.inner.state.lock();
            let regions = st.regions.get_mut();
            let mut names: Vec<String> = regions.keys().cloned().collect();
            names.sort();
            for name in names {
                let region = regions.get_mut(&name).expect("listed above");
                if let Some(replica) = region.replicas.remove(&dead) {
                    // The dead OS object still balances its ledger.
                    self.release_replica(dead, replica);
                    dropped_hosts.push((name.clone(), dead));
                }
                if region.master != dead {
                    continue;
                }
                // The master is gone: freshest surviving cache wins.
                let winner = region
                    .replicas
                    .iter()
                    .max_by_key(|(pu, r)| (r.version, std::cmp::Reverse(pu.0)))
                    .map(|(pu, _)| *pu);
                match winner {
                    Some(pu) => {
                        region.gen += 1;
                        region.master = pu;
                        region.floor += 1;
                        let floor = region.floor;
                        let uuid = region_uuid(&name, region.gen);
                        region.uuid = uuid;
                        let replica = region.replicas.get_mut(&pu).expect("winner");
                        replica.version = floor;
                        remaster.push((name.clone(), pu));
                    }
                    None => {
                        lost.push(name.clone());
                    }
                }
            }
            for name in &lost {
                regions.remove(name);
            }
        }
        for (name, pu) in dropped_hosts {
            self.notify(&name, pu, false);
        }
        // Phase 2: re-register each re-mastered region cluster-wide and
        // re-grant the surviving replicas their capabilities.
        let mut remastered = Vec::new();
        for (name, new_master) in remaster {
            let (uuid, daemon, peers) = {
                let st = self.inner.state.lock();
                let Some(region) = st.regions.get().get(&name) else { continue };
                let daemon = region.replicas[&new_master].daemon;
                let peers: Vec<XpuPid> = region
                    .replicas
                    .iter()
                    .filter(|(pu, _)| **pu != new_master)
                    .map(|(_, r)| r.daemon)
                    .collect();
                (region.uuid.clone(), daemon, peers)
            };
            let guard = match self.inner.cluster.register_region(ctx, daemon, uuid) {
                Ok(obj) => obj,
                Err(_) => continue,
            };
            {
                let mut st = self.inner.state.lock();
                if let Some(region) = st.regions.get_mut().get_mut(&name) {
                    region.guard = guard;
                }
            }
            if let Ok(shim) = self.inner.cluster.shim_on(new_master) {
                for peer in peers {
                    let _ = shim.grant_cap(ctx, daemon, peer, guard, Perm::READ | Perm::WRITE);
                }
            }
            remastered.push(name);
        }
        remastered
    }

    /// A deterministic snapshot for the coherence oracle: every region with
    /// its committed version, floor, and per-replica (version, digest) of
    /// the *committed* cache (working sets excluded). Each replica's digest
    /// is memoized, so only caches changed since the previous snapshot are
    /// hashed.
    pub fn snapshot(&self) -> StateSnapshot {
        let st = self.inner.state.lock();
        let mut regions: Vec<RegionStateSnapshot> = st
            .regions
            .get()
            .iter()
            .map(|(name, r)| RegionStateSnapshot {
                name: name.clone(),
                uuid: r.uuid.clone(),
                gen: r.gen,
                master: r.master,
                version: r.master_version(),
                floor: r.floor,
                replicas: r
                    .replicas
                    .iter()
                    .map(|(pu, replica)| ReplicaSnapshot {
                        pu: *pu,
                        version: replica.version,
                        digest: replica.committed.digest(),
                    })
                    .collect(),
            })
            .collect();
        regions.sort_by(|a, b| a.name.cmp(&b.name));
        StateSnapshot { regions }
    }

    /// The mutation epoch of everything [`snapshot`](Self::snapshot) reads:
    /// region metadata, replica versions and committed caches. It moves on
    /// every change to them; the single-flight gates and the uncommitted
    /// writes [`write`](Self::write) stages change without moving it.
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().regions.epoch()
    }
}
