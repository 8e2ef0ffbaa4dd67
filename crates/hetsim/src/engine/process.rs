//! Simulated processes: spawn, context and join handles.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};

use parking_lot::Mutex;
use telemetry::SpanContext;

use super::{EngineShared, ResumeReason, SimReceiver, SimSender, YieldKind};
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated process, unique within one [`Simulation`].
///
/// Encoded as `(generation << 32) | slab index`: the engine's process table
/// is a generational slab indexed directly by the low 32 bits, so looking a
/// process up is an array probe (no hashing) and a recycled slot never
/// honors a stale id.
///
/// [`Simulation`]: super::Simulation
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(u64);

impl ProcId {
    pub(crate) fn from_parts(index: u32, generation: u32) -> Self {
        ProcId((u64::from(generation) << 32) | u64::from(index))
    }

    /// Slab index of this process (low 32 bits).
    pub(crate) fn index(self) -> u32 {
        self.0 as u32
    }

    /// Slot generation this id was minted under (high 32 bits).
    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Sentinel panic payload used to unwind a simulated process on teardown.
struct Cancelled;

/// A process thread's one-slot wake-up mailbox: the waker stores the
/// [`ResumeReason`], then unparks the thread. A process is resumed at most
/// once per block, so the slot never holds two reasons.
#[derive(Default)]
pub(crate) struct Parker {
    /// 0 when empty, else a `ResumeReason` discriminant. `post` stores it
    /// with Release and `wait` takes it with Acquire, so everything the
    /// waker did happens before the woken thread runs.
    word: AtomicU8,
    /// Set by the spawner before any resume can be dispatched.
    thread: OnceLock<Thread>,
}

impl Parker {
    pub(crate) fn post(&self, reason: ResumeReason) {
        self.word.store(reason as u8, Ordering::Release);
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    fn wait(&self) -> ResumeReason {
        use ResumeReason::*;
        loop {
            match self.word.swap(0, Ordering::Acquire) {
                0 => thread::park(),
                word => return [Start, Woken, Timeout, Cancel][usize::from(word) - 1],
            }
        }
    }
}

/// Execution context handed to every simulated process.
///
/// All blocking operations (sleeping, channel receives, joins) go through
/// this context so the scheduler can interleave processes deterministically.
pub struct ProcCtx {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) proc: ProcId,
    parker: Arc<Parker>,
    name: String,
    /// Ambient telemetry span context; inherited by `spawn`ed children and
    /// updated by message receives that carry a piggybacked context.
    trace_ctx: Cell<Option<SpanContext>>,
    /// Telemetry lane (PU id) this process records on. Defaults to the
    /// engine lane until a shim or runtime pins the process to a PU.
    lane: Cell<u16>,
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("proc", &self.proc).field("name", &self.name).finish()
    }
}

impl ProcCtx {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.proc
    }

    /// This process's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// The ambient telemetry span context, if a trace is active.
    pub fn trace_ctx(&self) -> Option<SpanContext> {
        self.trace_ctx.get()
    }

    /// Sets (or clears) the ambient telemetry span context.
    pub fn set_trace_ctx(&self, ctx: Option<SpanContext>) {
        self.trace_ctx.set(ctx);
    }

    /// The telemetry lane this process records on.
    pub fn lane(&self) -> u16 {
        self.lane.get()
    }

    /// Pins this process's telemetry events to lane `lane` (a PU id).
    /// Telemetry only: it takes no engine lock and never affects dispatch.
    pub fn set_lane(&self, lane: u16) {
        self.lane.set(lane);
    }

    /// Suspends the process for `d` of virtual time.
    pub fn sleep(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.shared.bump_resume_after(self.proc, d, ResumeReason::Woken);
        let reason = self.yield_and_wait();
        debug_assert_eq!(reason, ResumeReason::Woken);
    }

    /// Yields to the scheduler without advancing time (other events at the
    /// current instant run first).
    pub fn yield_now(&mut self) {
        self.shared.bump_resume_after(self.proc, SimDuration::ZERO, ResumeReason::Woken);
        let _ = self.yield_and_wait();
    }

    /// Spawns a sibling process that starts at the current virtual time.
    ///
    /// The child inherits this process's telemetry lane and span context,
    /// so a trace follows the request across spawns without explicit
    /// plumbing.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ProcHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        let (trace_ctx, lane) = (self.trace_ctx.get(), self.lane.get());
        spawn_with(thread::Builder::new(), Arc::clone(&self.shared), name, trace_ctx, lane, f)
    }

    /// Creates an unbounded simulated channel.
    pub fn channel<T: Send + 'static>(&self) -> (SimSender<T>, SimReceiver<T>) {
        super::channel::channel(Arc::clone(&self.shared))
    }

    /// Creates a counting semaphore bound to this simulation.
    pub fn semaphore(&self, permits: u64) -> super::SimSemaphore {
        super::SimSemaphore::from_shared(Arc::clone(&self.shared), permits)
    }

    /// Blocks this process until the engine resumes it, dispatching the
    /// events in between on this thread while it holds the baton.
    ///
    /// The caller must already have registered a wake-up (timer, channel
    /// waiter, ...) under the current wait generation.
    pub(crate) fn yield_and_wait(&mut self) -> ResumeReason {
        let reason = match self.shared.yield_baton(self.proc, YieldKind::Blocked) {
            Some(reason) => reason,
            None => self.parker.wait(),
        };
        if reason == ResumeReason::Cancel {
            panic::panic_any(Cancelled);
        }
        reason
    }

    /// Bumps and returns this process's wait generation.
    pub(crate) fn bump_gen(&self) -> u64 {
        self.shared.state.lock().bump_gen(self.proc)
    }
}

/// Handle to a spawned simulated process.
///
/// The handle can be kept outside the simulation (to harvest the result after
/// [`Simulation::run`]) or moved into another process, which may
/// [`join`](ProcHandle::join) it.
///
/// [`Simulation::run`]: super::Simulation::run
pub struct ProcHandle<T> {
    id: ProcId,
    name: String,
    result: Arc<Mutex<Option<T>>>,
    done_rx: SimReceiver<()>,
}

impl<T> fmt::Debug for ProcHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcHandle").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl<T: Send + 'static> ProcHandle<T> {
    /// The process id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The process's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks the calling process until the spawned process finishes.
    pub fn join(&self, ctx: &mut ProcCtx) {
        // Either a completion token arrives, or the sender was dropped at
        // completion — both mean the process is done.
        let _ = self.done_rx.recv(ctx);
    }

    /// Takes the result if the process has finished; `None` otherwise (or if
    /// already taken).
    pub fn take_result(&self) -> Option<T> {
        self.result.lock().take()
    }

    /// True if the process has finished and its result is still available.
    pub fn is_finished(&self) -> bool {
        self.result.lock().is_some()
    }
}

/// Spawns a process on a thread from `builder` (which this names).
pub(crate) fn spawn_with<T, F>(
    builder: thread::Builder,
    shared: Arc<EngineShared>,
    name: &str,
    trace_ctx: Option<SpanContext>,
    lane: u16,
    f: F,
) -> ProcHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let parker = Arc::new(Parker::default());
    let id = shared.register_proc(name, Arc::clone(&parker));
    let result = Arc::new(Mutex::new(None));
    let (done_tx, done_rx) = super::channel::channel(Arc::clone(&shared));

    let thread_result = Arc::clone(&result);
    let mut ctx = ProcCtx {
        shared: Arc::clone(&shared),
        proc: id,
        parker: Arc::clone(&parker),
        name: name.to_owned(),
        trace_ctx: Cell::new(trace_ctx),
        lane: Cell::new(lane),
    };
    let body = move || {
        // Wait for the first activation.
        match ctx.parker.wait() {
            ResumeReason::Start => {}
            ResumeReason::Cancel => return,
            other => unreachable!("first resume must be Start, got {other:?}"),
        }
        let kind = match panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(value) => {
                *thread_result.lock() = Some(value);
                let _ = done_tx.send(());
                YieldKind::Finished
            }
            // Teardown: exit silently.
            Err(payload) if payload.is::<Cancelled>() => return,
            Err(payload) => YieldKind::Panicked(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned()),
            ),
        };
        drop(done_tx);
        let next = ctx.shared.yield_baton(id, kind);
        debug_assert!(next.is_none(), "a finished process was resumed");
    };
    match builder.name(format!("sim-{name}")).spawn(body) {
        Ok(thread) => {
            let _ = parker.thread.set(thread.thread().clone());
        }
        // The failed spawn dropped `body` and with it the process's
        // completion sender, so joining the handle returns at once.
        Err(err) => shared.spawn_failed(id, err.to_string()),
    }
    ProcHandle { id, name: name.to_owned(), result, done_rx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimError, Simulation};

    #[test]
    fn a_thread_that_fails_to_spawn_is_a_typed_error_and_joining_it_returns() {
        let mut sim = Simulation::new();
        // No OS maps a 1 EiB stack, so this spawn fails.
        let huge = thread::Builder::new().stack_size(1 << 60);
        let shared = Arc::clone(&sim.shared);
        let ghost = spawn_with(huge, shared, "ghost", None, telemetry::ENGINE_LANE, |_| 7u32);
        let joiner = sim.spawn("joiner", move |ctx| {
            ghost.join(ctx);
            (ghost.take_result(), ctx.now())
        });
        match sim.run() {
            Err(SimError::SpawnFailed { name, message }) => {
                assert_eq!(name, "ghost");
                assert!(!message.is_empty());
            }
            other => panic!("expected SpawnFailed, got {other:?}"),
        }
        // The failure is reported once; the next run finds the ghost gone.
        sim.run().unwrap();
        assert_eq!(joiner.take_result(), Some((None, SimTime::ZERO)));
    }
}
