//! Simulated processes: spawn, context and join handles.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;
use telemetry::SpanContext;

use super::fiber::{self, Stack};
use super::{EngineShared, ResumeReason, SimReceiver, SimSender, STACK_SIZE};
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

/// Execution context handed to every simulated process.
///
/// All blocking operations (sleeping, channel receives, joins) go through
/// this context so the scheduler can interleave processes deterministically.
pub struct ProcCtx {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) proc: ProcId,
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
        spawn_with(Arc::clone(&self.shared), name, trace_ctx, lane, STACK_SIZE, f)
    }

    /// Creates an unbounded simulated channel.
    pub fn channel<T: Send + 'static>(&self) -> (SimSender<T>, SimReceiver<T>) {
        super::channel::channel(Arc::clone(&self.shared))
    }

    /// Creates a counting semaphore bound to this simulation.
    pub fn semaphore(&self, permits: u64) -> super::SimSemaphore {
        super::SimSemaphore::from_shared(Arc::clone(&self.shared), permits)
    }

    /// Suspends this process's fiber until the engine resumes it.
    ///
    /// The caller must already have registered a wake-up (timer, channel
    /// waiter, ...) under the current wait generation.
    ///
    /// # Panics
    ///
    /// If called while the process unwinds: std counts panics per OS
    /// thread, so a fiber suspended mid-unwind would leak that count into
    /// every other process.
    pub(crate) fn yield_and_wait(&mut self) -> ResumeReason {
        assert!(!thread::panicking(), "simulated process '{}' blocked while unwinding", self.name);
        match fiber::suspend() {
            ResumeReason::Cancel => panic::resume_unwind(Box::new(Cancelled)),
            reason => reason,
        }
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

/// Spawns a process whose fiber gets `stack_size` usable stack bytes.
pub(crate) fn spawn_with<T, F>(
    shared: Arc<EngineShared>,
    name: &str,
    trace_ctx: Option<SpanContext>,
    lane: u16,
    stack_size: usize,
    f: F,
) -> ProcHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let id = shared.register_proc(name);
    let result = Arc::new(Mutex::new(None));
    let (done_tx, done_rx) = super::channel::channel(Arc::clone(&shared));

    let body_result = Arc::clone(&result);
    let mut ctx = ProcCtx {
        shared: Arc::clone(&shared),
        proc: id,
        name: name.to_owned(),
        trace_ctx: Cell::new(trace_ctx),
        lane: Cell::new(lane),
    };
    let body = move || {
        let panicked = match panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(value) => {
                *body_result.lock() = Some(value);
                let _ = done_tx.send(());
                None
            }
            // Teardown: exit silently.
            Err(payload) if payload.is::<Cancelled>() => return,
            Err(payload) => Some(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned()),
            ),
        };
        drop(done_tx);
        ctx.shared.retire(id, panicked);
    };
    match Stack::new(stack_size) {
        Ok(stack) => shared.set_start(id, stack, Box::new(body)),
        // Dropping `body` drops the process's completion sender, so joining
        // the handle returns at once.
        Err(err) => shared.spawn_failed(id, err.to_string()),
    }
    ProcHandle { id, name: name.to_owned(), result, done_rx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimError, Simulation};

    #[test]
    fn an_unmappable_stack_is_a_typed_error_and_joining_it_returns() {
        let mut sim = Simulation::new();
        // No OS maps a 1 EiB stack, so this spawn fails.
        let shared = Arc::clone(&sim.shared);
        let ghost = spawn_with(shared, "ghost", None, telemetry::ENGINE_LANE, 1 << 60, |_| 7u32);
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
