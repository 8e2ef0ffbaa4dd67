//! Per-PU *local OS* model.
//!
//! Heterogeneous computers are multi-OS systems (paper §2.1.1): the host CPU
//! and every DPU run their own Linux. This module models exactly the OS
//! surface Molecule needs — a process table with Unix-style `fork`/`spawn`
//! (including the multi-threaded-fork restriction that motivates the
//! *forkable language runtime*), named FIFOs, cgroups with the `cpuset`
//! lock behaviour ablated in Fig. 11a, and page-level memory accounting for
//! the RSS/PSS study (Fig. 11b/c).
//!
//! All operations charge virtual time through a [`ProcCtx`], with costs taken
//! from the [calibration table](crate::calib). Methods never hold the OS lock
//! across a virtual-time sleep, so simulated processes can interleave freely.

mod fifo;
mod memory;

pub use fifo::{FifoError, FifoReader, FifoWriter};
pub use memory::{BlockId, MemoryLedger, PageBlock};

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::calib::OsCosts;
use crate::engine::ProcCtx;
use crate::pu::{PuId, PuModel, PuSpec};
use crate::time::SimDuration;

/// A PID local to one OS. Only unique within its PU — the whole point of the
/// paper's `xpu_pid` (§3.2) is that these are *not* globally unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OsPid(pub u32);

impl fmt::Display for OsPid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Identifier of a cgroup within one OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CgroupId(pub u32);

/// How the kernel serializes `cpuset` cgroup attachment.
///
/// The paper patches `kernel/cgroup/cpuset.c` to replace semaphore locks
/// with mutexes ("Cpuset opt", Fig. 11a); the two variants carry different
/// attach costs in the calibration table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpusetLockMode {
    /// Stock kernel: semaphore-protected attach (slow).
    #[default]
    Semaphore,
    /// Patched kernel: mutex-protected attach (fast).
    Mutex,
}

/// Errors returned by local OS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The referenced process does not exist (or already exited).
    NoSuchProcess(OsPid),
    /// The referenced cgroup does not exist.
    NoSuchCgroup(u32),
    /// `fork` was attempted on a process with more than one live thread.
    ///
    /// Unix fork only propagates the forking thread; Molecule's forkable
    /// language runtime must merge threads first (§4.2).
    ForkMultiThreaded {
        /// The offending process.
        pid: OsPid,
        /// Its live thread count.
        threads: u32,
    },
    /// A FIFO with this name already exists.
    FifoExists(String),
    /// No FIFO with this name exists.
    NoSuchFifo(String),
    /// Not enough free instance memory to satisfy a reservation.
    OutOfMemory {
        /// MiB requested.
        requested_mib: u64,
        /// MiB still available.
        available_mib: u64,
    },
    /// `unmap` named a block the process has no mapping of.
    NotMapped {
        /// The process whose address space was searched.
        pid: OsPid,
        /// The block that was not found there.
        block: BlockId,
    },
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            OsError::NoSuchCgroup(id) => write!(f, "no such cgroup: {id}"),
            OsError::ForkMultiThreaded { pid, threads } => {
                write!(f, "cannot fork {pid}: {threads} live threads (merge threads first)")
            }
            OsError::FifoExists(name) => write!(f, "fifo already exists: {name}"),
            OsError::NoSuchFifo(name) => write!(f, "no such fifo: {name}"),
            OsError::OutOfMemory { requested_mib, available_mib } => write!(
                f,
                "out of instance memory: requested {requested_mib} MiB, {available_mib} MiB free"
            ),
            OsError::NotMapped { pid, block } => {
                write!(f, "{pid} has no mapping of block {block:?}")
            }
        }
    }
}

impl std::error::Error for OsError {}

/// State of one OS-level process.
#[derive(Debug, Clone)]
pub struct OsProcess {
    /// Local PID.
    pub pid: OsPid,
    /// Diagnostic name (program image).
    pub name: String,
    /// Live thread count; `fork` requires exactly 1.
    pub threads: u32,
    /// Thread contexts parked by the forkable runtime's merge step.
    pub parked_thread_contexts: u32,
    /// Memory blocks mapped by this process.
    pub memory: Vec<BlockId>,
    /// The cgroup the process belongs to, if any.
    pub cgroup: Option<CgroupId>,
}

#[derive(Debug, Clone)]
struct Cgroup {
    name: String,
    members: Vec<OsPid>,
}

pub(crate) struct OsState {
    next_pid: u32,
    next_cgroup: u32,
    procs: HashMap<OsPid, OsProcess>,
    cgroups: HashMap<CgroupId, Cgroup>,
    fifos: HashMap<String, fifo::FifoSlot>,
    memory: MemoryLedger,
    cpuset_mode: CpusetLockMode,
    reserved_mib: u64,
}

/// A handle to one PU's local OS. Cheap to clone; all clones observe the
/// same kernel state.
#[derive(Clone)]
pub struct LocalOs {
    inner: Arc<OsInner>,
}

struct OsInner {
    pu: PuId,
    model: PuModel,
    costs: OsCosts,
    usable_mib: u64,
    state: Mutex<OsState>,
}

impl fmt::Debug for LocalOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("LocalOs")
            .field("pu", &self.inner.pu)
            .field("model", &self.inner.model)
            .field("processes", &st.procs.len())
            .field("fifos", &st.fifos.len())
            .finish()
    }
}

impl LocalOs {
    /// Boots a local OS for `spec`, with `costs` from the calibration table
    /// and `usable_mib` of memory available for function instances.
    pub fn boot(spec: &PuSpec, costs: OsCosts, usable_mib: u64) -> LocalOs {
        LocalOs {
            inner: Arc::new(OsInner {
                pu: spec.id,
                model: spec.model,
                costs,
                usable_mib,
                state: Mutex::new(OsState {
                    next_pid: 1,
                    next_cgroup: 1,
                    procs: HashMap::new(),
                    cgroups: HashMap::new(),
                    fifos: HashMap::new(),
                    memory: MemoryLedger::new(),
                    cpuset_mode: CpusetLockMode::Semaphore,
                    reserved_mib: 0,
                }),
            }),
        }
    }

    /// The PU this OS runs on.
    pub fn pu(&self) -> PuId {
        self.inner.pu
    }

    /// The PU's device model (selects calibration constants).
    pub fn model(&self) -> PuModel {
        self.inner.model
    }

    /// Kernel primitive costs for this OS.
    pub fn costs(&self) -> OsCosts {
        self.inner.costs
    }

    /// Applies (or reverts) the paper's cpuset lock patch.
    pub fn set_cpuset_lock_mode(&self, mode: CpusetLockMode) {
        self.inner.state.lock().cpuset_mode = mode;
    }

    /// The currently configured cpuset lock mode.
    pub fn cpuset_lock_mode(&self) -> CpusetLockMode {
        self.inner.state.lock().cpuset_mode
    }

    /// Attach cost for the current cpuset lock mode, given container costs.
    pub fn cgroup_attach_cost(&self, costs: &crate::calib::ContainerCosts) -> SimDuration {
        match self.cpuset_lock_mode() {
            CpusetLockMode::Semaphore => costs.cgroup_attach_sem,
            CpusetLockMode::Mutex => costs.cgroup_attach_mutex,
        }
    }

    /// Spawns a new single-threaded process (exec of a fresh program),
    /// charging the spawn cost.
    pub fn spawn_process(&self, ctx: &mut ProcCtx, name: &str) -> OsPid {
        ctx.sleep(self.inner.costs.spawn_process);
        self.register_process(name, 1)
    }

    /// Registers a process without charging time (used for pre-booted
    /// daemons that exist before the measurement window).
    pub fn register_process(&self, name: &str, threads: u32) -> OsPid {
        let mut st = self.inner.state.lock();
        let pid = OsPid(st.next_pid);
        st.next_pid += 1;
        st.procs.insert(
            pid,
            OsProcess {
                pid,
                name: name.to_owned(),
                threads,
                parked_thread_contexts: 0,
                memory: Vec::new(),
                cgroup: None,
            },
        );
        pid
    }

    /// Sets a process's live thread count (language runtimes spawn workers).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn set_threads(&self, pid: OsPid, threads: u32) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        let proc = st.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        proc.threads = threads;
        Ok(())
    }

    /// The forkable runtime's *merge* step: parks all but one thread's
    /// context in memory so the process becomes forkable (§4.2).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn merge_threads(&self, ctx: &mut ProcCtx, pid: OsPid) -> Result<u32, OsError> {
        let (parked, cost) = {
            let mut st = self.inner.state.lock();
            let proc = st.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
            let parked = proc.threads.saturating_sub(1);
            proc.parked_thread_contexts += parked;
            proc.threads = 1;
            // Each parked context costs a few syscalls to capture.
            (parked, self.inner.costs.syscall * (parked as u64 * 3))
        };
        ctx.sleep(cost);
        Ok(parked)
    }

    /// The forkable runtime's *expand* step: restores parked thread contexts
    /// after a fork.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn expand_threads(&self, ctx: &mut ProcCtx, pid: OsPid) -> Result<u32, OsError> {
        let (restored, cost) = {
            let mut st = self.inner.state.lock();
            let proc = st.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
            let restored = proc.parked_thread_contexts;
            proc.threads += restored;
            proc.parked_thread_contexts = 0;
            (restored, self.inner.costs.syscall * (restored as u64 * 3))
        };
        ctx.sleep(cost);
        Ok(restored)
    }

    /// Unix `fork(2)`: clones the calling process, sharing its memory blocks
    /// copy-on-write. Only single-threaded processes can fork correctly —
    /// the restriction that motivates the forkable language runtime.
    ///
    /// # Errors
    ///
    /// [`OsError::ForkMultiThreaded`] if the parent has >1 live thread;
    /// [`OsError::NoSuchProcess`] if the parent is unknown.
    pub fn fork(&self, ctx: &mut ProcCtx, parent: OsPid) -> Result<OsPid, OsError> {
        {
            let st = self.inner.state.lock();
            let proc = st.procs.get(&parent).ok_or(OsError::NoSuchProcess(parent))?;
            if proc.threads != 1 {
                return Err(OsError::ForkMultiThreaded { pid: parent, threads: proc.threads });
            }
        }
        ctx.sleep(self.inner.costs.fork);
        self.fork_uncharged(parent)
    }

    /// [`fork`](Self::fork) without charging the kernel's fork cost — for
    /// callers (like the container runtime's cfork path) that charge a
    /// calibrated end-to-end cost of their own.
    ///
    /// # Errors
    ///
    /// Same as [`fork`](Self::fork).
    pub fn fork_uncharged(&self, parent: OsPid) -> Result<OsPid, OsError> {
        let mut st = self.inner.state.lock();
        let parent_proc = st.procs.get(&parent).ok_or(OsError::NoSuchProcess(parent))?;
        if parent_proc.threads != 1 {
            return Err(OsError::ForkMultiThreaded { pid: parent, threads: parent_proc.threads });
        }
        let name = format!("{}(forked)", parent_proc.name);
        let shared: Vec<BlockId> = parent_proc.memory.clone();
        let parked = parent_proc.parked_thread_contexts;
        let pid = OsPid(st.next_pid);
        st.next_pid += 1;
        for &b in &shared {
            st.memory.share(b);
        }
        st.procs.insert(
            pid,
            OsProcess {
                pid,
                name,
                threads: 1,
                parked_thread_contexts: parked,
                memory: shared,
                cgroup: None,
            },
        );
        Ok(pid)
    }

    /// Terminates a process and releases its memory.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn exit_process(&self, pid: OsPid) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        let proc = st.procs.remove(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        for b in proc.memory {
            st.memory.release(b);
        }
        if let Some(cg) = proc.cgroup {
            if let Some(group) = st.cgroups.get_mut(&cg) {
                group.members.retain(|p| *p != pid);
            }
        }
        Ok(())
    }

    /// Looks up a process snapshot.
    pub fn process(&self, pid: OsPid) -> Option<OsProcess> {
        self.inner.state.lock().procs.get(&pid).cloned()
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.inner.state.lock().procs.len()
    }

    /// Creates a cgroup.
    pub fn create_cgroup(&self, name: &str) -> CgroupId {
        let mut st = self.inner.state.lock();
        let id = CgroupId(st.next_cgroup);
        st.next_cgroup += 1;
        st.cgroups.insert(id, Cgroup { name: name.to_owned(), members: Vec::new() });
        id
    }

    /// Moves a process into a cgroup. The caller charges the attach cost
    /// (it depends on the container configuration, see
    /// [`cgroup_attach_cost`](Self::cgroup_attach_cost)).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] / [`OsError::NoSuchCgroup`] on dangling ids.
    pub fn attach_to_cgroup(&self, pid: OsPid, cgroup: CgroupId) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        if !st.cgroups.contains_key(&cgroup) {
            return Err(OsError::NoSuchCgroup(cgroup.0));
        }
        let old = {
            let proc = st.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
            proc.cgroup.replace(cgroup)
        };
        if let Some(old_id) = old {
            if let Some(g) = st.cgroups.get_mut(&old_id) {
                g.members.retain(|p| *p != pid);
            }
        }
        st.cgroups.get_mut(&cgroup).expect("checked above").members.push(pid);
        Ok(())
    }

    /// Name and member count of a cgroup, if it exists.
    pub fn cgroup_info(&self, cgroup: CgroupId) -> Option<(String, usize)> {
        let st = self.inner.state.lock();
        st.cgroups.get(&cgroup).map(|g| (g.name.clone(), g.members.len()))
    }

    /// Maps a fresh block of `pages` private pages into `pid`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn map_private(&self, pid: OsPid, pages: u64) -> Result<BlockId, OsError> {
        let mut st = self.inner.state.lock();
        if !st.procs.contains_key(&pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        let block = st.memory.alloc(pages);
        st.procs.get_mut(&pid).expect("checked above").memory.push(block);
        Ok(block)
    }

    /// Maps an existing block into `pid` as a shared mapping (refcount + 1).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown.
    pub fn map_shared(&self, pid: OsPid, block: BlockId) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        if !st.procs.contains_key(&pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        st.memory.share(block);
        st.procs.get_mut(&pid).expect("checked above").memory.push(block);
        Ok(())
    }

    /// Removes one mapping of `block` from `pid` (refcount − 1; the pages
    /// are freed when the last mapping goes). The inverse of
    /// [`map_shared`](Self::map_shared) / [`map_private`](Self::map_private).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if the PID is unknown,
    /// [`OsError::NotMapped`] if the process has no mapping of `block`.
    pub fn unmap(&self, pid: OsPid, block: BlockId) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        let proc = st.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        let idx = proc
            .memory
            .iter()
            .position(|b| *b == block)
            .ok_or(OsError::NotMapped { pid, block })?;
        proc.memory.remove(idx);
        st.memory.release(block);
        Ok(())
    }

    /// Live mapping count of a memory block (0 once freed).
    pub fn block_refs(&self, block: BlockId) -> u32 {
        self.inner.state.lock().memory.refs(block)
    }

    /// Resident set size of a process in bytes (`page_bytes` per mapped page).
    pub fn rss_bytes(&self, pid: OsPid, page_bytes: u64) -> Option<u64> {
        let st = self.inner.state.lock();
        let proc = st.procs.get(&pid)?;
        Some(proc.memory.iter().map(|b| st.memory.pages(*b)).sum::<u64>() * page_bytes)
    }

    /// Proportional set size of a process in bytes (each page divided by its
    /// mapping count).
    pub fn pss_bytes(&self, pid: OsPid, page_bytes: u64) -> Option<f64> {
        let st = self.inner.state.lock();
        let proc = st.procs.get(&pid)?;
        Some(
            proc.memory
                .iter()
                .map(|b| st.memory.pages(*b) as f64 / st.memory.refs(*b).max(1) as f64)
                .sum::<f64>()
                * page_bytes as f64,
        )
    }

    /// Reserves `mib` of instance memory (density accounting, Fig. 2a).
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] when the reservation does not fit.
    pub fn try_reserve_mib(&self, mib: u64) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        let available = self.inner.usable_mib - st.reserved_mib;
        if mib > available {
            return Err(OsError::OutOfMemory { requested_mib: mib, available_mib: available });
        }
        st.reserved_mib += mib;
        Ok(())
    }

    /// Releases a previous reservation.
    pub fn release_mib(&self, mib: u64) {
        let mut st = self.inner.state.lock();
        st.reserved_mib = st.reserved_mib.saturating_sub(mib);
    }

    /// MiB currently reserved for instances.
    pub fn reserved_mib(&self) -> u64 {
        self.inner.state.lock().reserved_mib
    }

    /// MiB usable for instances on this OS.
    pub fn usable_mib(&self) -> u64 {
        self.inner.usable_mib
    }

    /// Creates a named FIFO; returns its reader (single consumer).
    ///
    /// # Errors
    ///
    /// [`OsError::FifoExists`] if the name is taken.
    pub fn create_fifo(&self, ctx: &mut ProcCtx, name: &str) -> Result<FifoReader, OsError> {
        fifo::create(self, ctx, name)
    }

    /// Opens the writing end of an existing named FIFO.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFifo`] if no FIFO has this name.
    pub fn open_fifo(&self, name: &str) -> Result<FifoWriter, OsError> {
        fifo::open(self, name)
    }

    /// Removes a named FIFO (existing handles keep working until dropped).
    pub fn remove_fifo(&self, name: &str) -> Result<(), OsError> {
        let mut st = self.inner.state.lock();
        st.fifos.remove(name).map(|_| ()).ok_or_else(|| OsError::NoSuchFifo(name.to_owned()))
    }

    pub(crate) fn state(&self) -> &Mutex<OsState> {
        &self.inner.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::engine::Simulation;
    use crate::pu::PuSpec;

    fn test_os() -> LocalOs {
        let spec = PuSpec::xeon_host(PuId(0));
        let calib = Calibration::paper_server();
        LocalOs::boot(&spec, calib.cpu_os, 1024)
    }

    #[test]
    fn spawn_charges_time_and_registers() {
        let os = test_os();
        let mut sim = Simulation::new();
        let os2 = os.clone();
        let h = sim.spawn("init", move |ctx| {
            let pid = os2.spawn_process(ctx, "python");
            (pid, ctx.now())
        });
        sim.run().unwrap();
        let (pid, at) = h.take_result().unwrap();
        assert_eq!(at.as_nanos(), 2_500_000); // 2.5 ms spawn cost
        assert_eq!(os.process(pid).unwrap().name, "python");
        assert_eq!(os.process_count(), 1);
    }

    #[test]
    fn fork_refuses_multithreaded_processes() {
        let os = test_os();
        let mut sim = Simulation::new();
        let os2 = os.clone();
        let h = sim.spawn("init", move |ctx| {
            let pid = os2.register_process("node", 4);
            let err = os2.fork(ctx, pid).unwrap_err();
            // Forkable runtime: merge, fork, expand.
            os2.merge_threads(ctx, pid).unwrap();
            let child = os2.fork(ctx, pid).unwrap();
            let restored_parent = os2.expand_threads(ctx, pid).unwrap();
            let restored_child = os2.expand_threads(ctx, child).unwrap();
            (err, restored_parent, restored_child, child)
        });
        sim.run().unwrap();
        let (err, restored_parent, restored_child, child) = h.take_result().unwrap();
        assert_eq!(err, OsError::ForkMultiThreaded { pid: OsPid(1), threads: 4 });
        assert_eq!(restored_parent, 3);
        // The child inherits the parked contexts and expands to 4 threads too.
        assert_eq!(restored_child, 3);
        assert_eq!(os.process(child).unwrap().threads, 4);
    }

    #[test]
    fn fork_shares_memory_cow() {
        let os = test_os();
        let mut sim = Simulation::new();
        let os2 = os.clone();
        let h = sim.spawn("init", move |ctx| {
            let parent = os2.register_process("tmpl", 1);
            os2.map_private(parent, 100).unwrap();
            let child = os2.fork(ctx, parent).unwrap();
            (parent, child)
        });
        sim.run().unwrap();
        let (parent, child) = h.take_result().unwrap();
        let page = 4096;
        assert_eq!(os.rss_bytes(parent, page), Some(100 * page));
        assert_eq!(os.rss_bytes(child, page), Some(100 * page));
        // Shared: each side's PSS is half.
        assert_eq!(os.pss_bytes(child, page), Some(50.0 * page as f64));
    }

    #[test]
    fn exit_releases_memory_and_cgroup() {
        let os = test_os();
        let pid = os.register_process("a", 1);
        os.map_private(pid, 10).unwrap();
        let cg = os.create_cgroup("func");
        os.attach_to_cgroup(pid, cg).unwrap();
        assert_eq!(os.cgroup_info(cg), Some(("func".to_owned(), 1)));
        os.exit_process(pid).unwrap();
        assert_eq!(os.cgroup_info(cg), Some(("func".to_owned(), 0)));
        assert_eq!(os.process_count(), 0);
        assert_eq!(os.exit_process(pid), Err(OsError::NoSuchProcess(pid)));
    }

    #[test]
    fn reservation_accounting_enforces_capacity() {
        let os = test_os(); // 1024 MiB usable
        os.try_reserve_mib(1000).unwrap();
        assert_eq!(
            os.try_reserve_mib(100),
            Err(OsError::OutOfMemory { requested_mib: 100, available_mib: 24 })
        );
        os.release_mib(500);
        os.try_reserve_mib(100).unwrap();
        assert_eq!(os.reserved_mib(), 600);
    }

    #[test]
    fn cpuset_mode_selects_attach_cost() {
        let os = test_os();
        let calib = Calibration::desktop();
        assert_eq!(os.cgroup_attach_cost(&calib.container), calib.container.cgroup_attach_sem);
        os.set_cpuset_lock_mode(CpusetLockMode::Mutex);
        assert_eq!(os.cgroup_attach_cost(&calib.container), calib.container.cgroup_attach_mutex);
    }

    #[test]
    fn reattaching_moves_between_cgroups() {
        let os = test_os();
        let pid = os.register_process("a", 1);
        let g1 = os.create_cgroup("one");
        let g2 = os.create_cgroup("two");
        os.attach_to_cgroup(pid, g1).unwrap();
        os.attach_to_cgroup(pid, g2).unwrap();
        assert_eq!(os.cgroup_info(g1).unwrap().1, 0);
        assert_eq!(os.cgroup_info(g2).unwrap().1, 1);
        assert_eq!(os.attach_to_cgroup(OsPid(99), g2), Err(OsError::NoSuchProcess(OsPid(99))));
        assert_eq!(os.attach_to_cgroup(pid, CgroupId(99)), Err(OsError::NoSuchCgroup(99)));
    }
}
