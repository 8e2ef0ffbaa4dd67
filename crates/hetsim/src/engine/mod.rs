//! Deterministic discrete-event simulation engine.
//!
//! Simulated processes (the Molecule daemons, executors, shims and function
//! instances) are written in straight-line style: each runs on a fiber of
//! its own — a user-space stack — and **exactly one** runs at a time,
//! SimPy-style. Because one process runs between engine steps and ties are
//! broken by a monotone sequence number, every run of the same program is
//! bit-for-bit identical.
//!
//! Virtual time only advances through the event queue; switching fibers
//! costs wall-clock time but zero virtual time.
//!
//! # Event core
//!
//! Pending events live in one binary heap keyed by `(time, seq)`. The pop
//! order of that heap *is* the dispatch sequence, and with it every
//! [`SchedulePolicy`] consultation, [`ChoicePoint`] log and
//! `SIMCHECK_REPLAY` blob. Events a policy defers are re-inserted under
//! their original keys.
//!
//! # Fiber dispatch
//!
//! [`Simulation::run`] is the only dispatcher. It pops the next event, runs
//! a scheduled closure inline, or switches into the resumed process's fiber
//! until that process blocks or finishes, then runs the step observer, if
//! one is installed. Fibers switch only on the thread that created the
//! simulation, so [`Simulation`] is not `Send`.
//!
//! # Examples
//!
//! ```
//! use hetsim::engine::Simulation;
//! use hetsim::time::SimDuration;
//!
//! let mut sim = Simulation::new();
//! let (tx, rx) = sim.channel::<u32>();
//! sim.spawn("producer", move |ctx| {
//!     ctx.sleep(SimDuration::from_micros(5));
//!     tx.send(42).unwrap();
//! });
//! let got = sim.spawn("consumer", move |ctx| rx.recv(ctx).unwrap());
//! sim.run().unwrap();
//! assert_eq!(got.take_result(), Some(42));
//! ```

mod channel;
#[allow(unsafe_code)]
mod fiber;
mod process;
mod queue;
mod schedule;
mod semaphore;

pub use channel::{RecvError, RecvTimeoutError, SendError, SimReceiver, SimSender, TryRecvError};
pub use process::{ProcCtx, ProcHandle, ProcId};
pub use schedule::{ChoicePoint, FifoSeqPolicy, SchedulePolicy};
pub use semaphore::{SemPermit, SimSemaphore};

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};
use fiber::{Fiber, Stack};
use queue::EventQueue;

/// Usable bytes of a process's stack: std's default thread stack.
const STACK_SIZE: usize = 2 << 20;

/// Why a blocked process is being resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResumeReason {
    /// First activation of the process.
    Start,
    /// A waited-for condition became true (message arrived, timer fired).
    Woken,
    /// A `recv_timeout` deadline elapsed before the condition became true.
    Timeout,
    /// The simulation is being torn down; the process should exit silently.
    Cancel,
}

pub(crate) enum EventAction {
    /// Resume process `proc` if it is still blocked with wait generation `gen`.
    Resume { proc: ProcId, gen: u64, reason: ResumeReason },
    /// Run a closure on the dispatcher's stack (no engine lock held).
    Call(Box<dyn FnOnce() + Send>),
}

/// A spawned process before its first resume: its stack and its body.
type Start = (Stack, Box<dyn FnOnce() + Send>);

/// A live process. Between engine steps every live process is suspended:
/// not yet started, or blocked in `yield_and_wait`.
pub(crate) struct ProcSlot {
    pub name: String,
    pub wait_gen: u64,
    /// `Some` until the first resume turns it into the process's fiber.
    start: Option<Start>,
}

/// Generational slab of process slots, indexed directly by [`ProcId`]
/// (`(generation << 32) | index`): O(1) probe with no hashing, iteration in
/// index order so deadlock reports and teardown are deterministic.
pub(crate) struct ProcSlab {
    entries: Vec<ProcEntry>,
    free: Vec<u32>,
}

struct ProcEntry {
    gen: u32,
    slot: Option<ProcSlot>,
}

impl ProcSlab {
    fn new() -> Self {
        ProcSlab { entries: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, slot: ProcSlot) -> ProcId {
        if let Some(idx) = self.free.pop() {
            let e = &mut self.entries[idx as usize];
            debug_assert!(e.slot.is_none());
            e.slot = Some(slot);
            ProcId::from_parts(idx, e.gen)
        } else {
            let idx = u32::try_from(self.entries.len()).expect("proc slab overflow");
            self.entries.push(ProcEntry { gen: 0, slot: Some(slot) });
            ProcId::from_parts(idx, 0)
        }
    }

    pub fn get_mut(&mut self, id: ProcId) -> Option<&mut ProcSlot> {
        let e = self.entries.get_mut(id.index() as usize)?;
        if e.gen != id.generation() {
            return None;
        }
        e.slot.as_mut()
    }

    fn remove(&mut self, id: ProcId) -> Option<ProcSlot> {
        let e = self.entries.get_mut(id.index() as usize)?;
        if e.gen != id.generation() || e.slot.is_none() {
            return None;
        }
        e.gen = e.gen.wrapping_add(1);
        self.free.push(id.index());
        e.slot.take()
    }

    /// Live slots in index order (deterministic).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ProcSlot> {
        self.entries.iter_mut().filter_map(|e| e.slot.as_mut())
    }
}

/// What the dispatcher does next, as prepared by [`EngineState::next`].
enum Step {
    /// The run is over (drained, deadlocked, out of budget, spawn failed).
    End(Result<RunReport, SimError>),
    Call(Box<dyn FnOnce() + Send>),
    /// Resume `proc`, first turning `start` into its fiber if it has one;
    /// `dispatch` is its engine-lane instant.
    Resume {
        proc: ProcId,
        reason: ResumeReason,
        start: Option<Start>,
        dispatch: Option<(SimTime, String)>,
    },
}

pub(crate) struct EngineState {
    events: EventQueue<EventAction>,
    pub procs: ProcSlab,
    pub live: usize,
    trace: Option<Vec<String>>,
    fired: u64,
    limit: u64,
    policy: Option<Box<dyn SchedulePolicy>>,
    choice_log: Vec<ChoicePoint>,
    spawn_error: Option<SimError>,
    /// Set by a process that panicked, for the dispatcher to return.
    panicked: Option<SimError>,
}

impl EngineState {
    pub(crate) fn schedule(&mut self, at: SimTime, action: EventAction) {
        self.events.push(at.as_nanos(), action);
    }

    pub(crate) fn bump_gen(&mut self, proc: ProcId) -> u64 {
        let slot = self.procs.get_mut(proc).expect("bump_gen on unknown proc");
        slot.wait_gen += 1;
        slot.wait_gen
    }

    /// Pops the next event and prepares it: event budget, `(time, seq)` pop,
    /// clock advance, policy batch and [`ChoicePoint`], `events_fired`,
    /// trace entry and the stale-resume check.
    fn next(&mut self, clock: &Clock) -> Step {
        if let Some(err) = self.spawn_error.take() {
            return Step::End(Err(err));
        }
        loop {
            if self.fired >= self.limit {
                return Step::End(Err(SimError::EventLimitExceeded { limit: self.limit }));
            }
            let Some((t_ns, seq, action)) = self.events.pop() else {
                if self.live == 0 {
                    let trace = self.trace.take().unwrap_or_default();
                    let report =
                        RunReport { end_time: clock.get(), events_fired: self.fired, trace };
                    return Step::End(Ok(report));
                }
                let blocked = self.procs.iter_mut().map(|p| p.name.clone()).collect();
                return Step::End(Err(SimError::Deadlock { blocked }));
            };
            let t = SimTime::from_nanos(t_ns);
            clock.advance(t);
            let action = match self.policy.as_mut() {
                Some(policy) => {
                    // Gather every event runnable at this instant. Pops come
                    // out in (time, seq) order, so the batch is already
                    // seq-sorted and index 0 is what the default tie-break
                    // would run.
                    let mut batch = vec![(t_ns, seq, action)];
                    while self.events.peek_time() == Some(t_ns) {
                        batch.extend(self.events.pop());
                    }
                    let arity = batch.len();
                    let chosen = if arity > 1 {
                        let c = policy.choose(t, arity).min(arity - 1);
                        self.choice_log.push(ChoicePoint { arity: arity as u32, chosen: c as u32 });
                        c
                    } else {
                        0
                    };
                    let (_, _, action) = batch.remove(chosen);
                    // Deferred events keep their original keys.
                    for (bt, bs, baction) in batch {
                        self.events.push_at(bt, bs, baction);
                    }
                    action
                }
                None => action,
            };
            self.fired += 1;
            let (proc, gen, reason) = match action {
                EventAction::Call(f) => return Step::Call(f),
                EventAction::Resume { proc, gen, reason } => (proc, gen, reason),
            };
            // Skip a stale wake-up (e.g. a raced timeout) or a finished process.
            let Some(slot) = self.procs.get_mut(proc).filter(|s| s.wait_gen == gen) else {
                continue;
            };
            if let Some(trace) = self.trace.as_mut() {
                trace.push(format!("{t} {}", slot.name));
            }
            let dispatch = telemetry::enabled().then(|| (t, slot.name.clone()));
            return Step::Resume { proc, reason, start: slot.start.take(), dispatch };
        }
    }
}

/// The virtual clock. Only the dispatcher advances it, inside
/// [`EngineState::next`]; every process reads it without taking the
/// engine lock. Processes run one at a time on the dispatcher's thread, so
/// a relaxed load always sees the latest store.
struct Clock(AtomicU64);

impl Clock {
    fn get(&self) -> SimTime {
        SimTime::from_nanos(self.0.load(Ordering::Relaxed))
    }

    fn advance(&self, to: SimTime) {
        debug_assert!(to >= self.get(), "event queue went backwards");
        self.0.store(to.as_nanos(), Ordering::Relaxed);
    }
}

pub(crate) struct EngineShared {
    pub state: Mutex<EngineState>,
    clock: Clock,
}

/// Emits the "wake proc#N" engine instant, outside any engine lock and only
/// when recording is enabled (`with` never builds the format! otherwise).
#[inline]
fn wake_instant(at: SimTime, proc: ProcId) {
    telemetry::with(|r| {
        r.instant(telemetry::ENGINE_LANE, at.as_nanos(), &format!("wake {proc}"), None);
    });
}

/// Records a resume's dispatch, outside the engine lock.
fn announce(dispatch: Option<(SimTime, String)>) {
    if let Some((at, name)) = dispatch {
        telemetry::with(|r| {
            r.instant(telemetry::ENGINE_LANE, at.as_nanos(), &format!("dispatch {name}"), None);
        });
    }
}

impl EngineShared {
    /// Current virtual time, read without the engine lock.
    pub fn now(&self) -> SimTime {
        self.clock.get()
    }

    /// Schedule a resume for `(proc, gen)` at `at`.
    pub(crate) fn schedule_resume(
        &self,
        at: SimTime,
        proc: ProcId,
        gen: u64,
        reason: ResumeReason,
    ) {
        let at = {
            let mut st = self.state.lock();
            let at = at.max(self.now());
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Schedule a resume for `(proc, gen)` at the current instant — the
    /// single-lock fast path for channel deliveries and semaphore wakes.
    pub(crate) fn schedule_resume_now(&self, proc: ProcId, gen: u64, reason: ResumeReason) {
        let at = {
            let mut st = self.state.lock();
            let at = self.now();
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Bumps `proc`'s wait generation and schedules its resume `d` from now
    /// under one lock — the sleep/yield fast path.
    pub(crate) fn bump_resume_after(&self, proc: ProcId, d: SimDuration, reason: ResumeReason) {
        let at = {
            let mut st = self.state.lock();
            let gen = st.bump_gen(proc);
            let at = self.now() + d;
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Schedule a closure to run on the dispatcher's stack at `at`.
    pub(crate) fn schedule_call(&self, at: SimTime, f: Box<dyn FnOnce() + Send>) {
        let at = at.max(self.now());
        self.state.lock().schedule(at, EventAction::Call(f));
    }

    /// Registers a process and schedules its start; [`set_start`] gives it
    /// the stack and body that start runs.
    ///
    /// [`set_start`]: Self::set_start
    fn register_proc(&self, name: &str) -> ProcId {
        let mut st = self.state.lock();
        let id = st.procs.insert(ProcSlot { name: name.to_owned(), wait_gen: 0, start: None });
        st.live += 1;
        st.schedule(
            self.now(),
            EventAction::Resume { proc: id, gen: 0, reason: ResumeReason::Start },
        );
        id
    }

    fn set_start(&self, proc: ProcId, stack: Stack, body: Box<dyn FnOnce() + Send>) {
        let mut st = self.state.lock();
        st.procs.get_mut(proc).expect("set_start on unknown proc").start = Some((stack, body));
    }

    /// Unregisters a process whose stack could not be mapped and records
    /// [`SimError::SpawnFailed`] for [`Simulation::run`] to return.
    pub(crate) fn spawn_failed(&self, proc: ProcId, message: String) {
        let mut st = self.state.lock();
        if let Some(slot) = st.procs.remove(proc) {
            st.live -= 1;
            st.spawn_error.get_or_insert(SimError::SpawnFailed { name: slot.name, message });
        }
    }

    /// Unregisters process `me`, which finished, or panicked with
    /// `panicked`.
    pub(crate) fn retire(&self, me: ProcId, panicked: Option<String>) {
        let mut st = self.state.lock();
        let slot = st.procs.remove(me);
        st.live -= 1;
        let Some(message) = panicked else { return };
        let name = slot.map_or_else(|| "<unknown>".to_owned(), |slot| slot.name);
        st.panicked = Some(SimError::ProcessPanicked { name: name.clone(), message });
        drop(st);
        // Surface the last recorded events alongside the crash so failures
        // are debuggable post-mortem.
        if let Some(dump) = telemetry::flight_dump() {
            eprintln!("process '{name}' panicked; {dump}");
        }
    }
}

/// Errors produced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Names of the processes that can never make progress.
        blocked: Vec<String>,
    },
    /// A simulated process panicked.
    ProcessPanicked {
        /// Name of the panicked process.
        name: String,
        /// Best-effort panic message.
        message: String,
    },
    /// The configured event budget was exhausted (runaway simulation guard).
    EventLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// The OS refused to map a simulated process's stack; the process was
    /// unregistered, so joining it returns at once.
    SpawnFailed {
        /// Name of the process that never started.
        name: String,
        /// The OS error.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked with blocked processes: {blocked:?}")
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "simulation exceeded the event budget of {limit}")
            }
            SimError::SpawnFailed { name, message } => {
                write!(f, "could not start simulated process '{name}': {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the event queue drained.
    pub end_time: SimTime,
    /// Total number of events fired.
    pub events_fired: u64,
    /// Resume trace (only populated if tracing was enabled).
    pub trace: Vec<String>,
}

/// A deterministic discrete-event simulation.
///
/// See the [module documentation](self) for an overview and example.
pub struct Simulation {
    shared: Arc<EngineShared>,
    step_observer: Option<Box<dyn FnMut()>>,
    /// Fibers of started processes, indexed by [`ProcId`] slab index.
    fibers: Vec<Option<Fiber>>,
    /// Fibers switch only on the thread that created them.
    _not_send: PhantomData<*const ()>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at `t = 0`.
    pub fn new() -> Self {
        Simulation {
            shared: Arc::new(EngineShared {
                state: Mutex::new(EngineState {
                    events: EventQueue::new(),
                    procs: ProcSlab::new(),
                    live: 0,
                    trace: None,
                    fired: 0,
                    limit: u64::MAX,
                    policy: None,
                    choice_log: Vec::new(),
                    spawn_error: None,
                    panicked: None,
                }),
                clock: Clock(AtomicU64::new(0)),
            }),
            step_observer: None,
            fibers: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// Caps the number of events a [`run`](Self::run) may fire (runaway guard).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.shared.state.lock().limit = limit;
    }

    /// Installs a [`SchedulePolicy`] that breaks same-instant ties.
    ///
    /// Every consulted tie is recorded as a [`ChoicePoint`]; harvest the log
    /// with [`take_choice_log`](Self::take_choice_log) after (or instead of)
    /// a successful run — the log survives an erroring run too.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.shared.state.lock().policy = Some(policy);
    }

    /// Takes the tie-break decisions recorded so far, leaving the log empty.
    pub fn take_choice_log(&mut self) -> Vec<ChoicePoint> {
        std::mem::take(&mut self.shared.state.lock().choice_log)
    }

    /// Installs a closure invoked after every fired event, with no engine
    /// lock held and no simulated process running — the safe window for
    /// invariant oracles to snapshot shared state. It runs on the thread
    /// that called [`run`](Self::run).
    pub fn set_step_observer(&mut self, obs: Box<dyn FnMut()>) {
        self.step_observer = Some(obs);
    }

    /// Records the name of every resumed process; the log is returned in the
    /// [`RunReport`] and is useful for determinism assertions.
    pub fn enable_trace(&mut self) {
        self.shared.state.lock().trace = Some(Vec::new());
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Creates an unbounded simulated channel.
    pub fn channel<T: Send + 'static>(&self) -> (SimSender<T>, SimReceiver<T>) {
        channel::channel(Arc::clone(&self.shared))
    }

    /// Spawns a simulated process; it first runs when the simulation does.
    ///
    /// The returned handle exposes the process result after it finishes (see
    /// [`ProcHandle::take_result`]) and can be joined from other processes.
    /// If the OS cannot map the process's stack, the next
    /// [`run`](Self::run) returns [`SimError::SpawnFailed`].
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ProcHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        process::spawn_with(shared, name, None, telemetry::ENGINE_LANE, STACK_SIZE, f)
    }

    /// Runs the simulation until the event queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if processes remain blocked with no
    /// pending events, [`SimError::ProcessPanicked`] if a process panics,
    /// [`SimError::EventLimitExceeded`] if the event budget is exhausted and
    /// [`SimError::SpawnFailed`] if a process stack could not be mapped.
    ///
    /// # Panics
    ///
    /// A panic inside a scheduled closure unwinds out of `run` with its
    /// original payload.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        loop {
            let step = self.shared.state.lock().next(&self.shared.clock);
            match step {
                Step::End(result) => return result,
                Step::Call(f) => f(),
                Step::Resume { proc, reason, start, dispatch } => {
                    announce(dispatch);
                    let index = proc.index() as usize;
                    if let Some((stack, body)) = start {
                        if index >= self.fibers.len() {
                            self.fibers.resize_with(index + 1, || None);
                        }
                        debug_assert!(self.fibers[index].is_none(), "slab index still has a fiber");
                        self.fibers[index] = Some(Fiber::new(stack, body));
                    }
                    let fiber = self.fibers[index].as_mut().expect("a started process has a fiber");
                    if fiber.resume(reason) {
                        self.fibers[index] = None;
                        // The step observer is skipped: the run ends to report
                        // the panic.
                        if let Some(err) = self.shared.state.lock().panicked.take() {
                            return Err(err);
                        }
                    }
                }
            }
            if let Some(obs) = self.step_observer.as_mut() {
                obs();
            }
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Resume every started process with a cancellation, so it unwinds
        // and its fiber finishes, and drop every unstarted process's body,
        // until neither is left: an unwinding process may spawn. A process
        // that swallows the cancellation and blocks again keeps its stack
        // (see `Fiber`'s drop).
        loop {
            let unstarted: Vec<Start> =
                self.shared.state.lock().procs.iter_mut().filter_map(|p| p.start.take()).collect();
            let started: Vec<Fiber> = self.fibers.drain(..).flatten().collect();
            if unstarted.is_empty() && started.is_empty() {
                return;
            }
            drop(unstarted);
            for mut fiber in started {
                fiber.resume(ResumeReason::Cancel);
            }
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("Simulation")
            .field("now", &self.shared.now())
            .field("live_procs", &st.live)
            .field("pending_events", &st.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};

    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events_fired, 0);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Simulation::new();
        let h = sim.spawn("sleeper", |ctx| {
            ctx.sleep(SimDuration::from_millis(3));
            ctx.now()
        });
        let report = sim.run().unwrap();
        assert_eq!(h.take_result(), Some(SimTime::from_nanos(3_000_000)));
        assert_eq!(report.end_time, SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let order = |seed_name: &str| {
            let mut sim = Simulation::new();
            sim.enable_trace();
            for i in 0..4 {
                let name = format!("{seed_name}{i}");
                sim.spawn(&name, move |ctx| {
                    ctx.sleep(SimDuration::from_micros(10 - i));
                });
            }
            sim.run().unwrap().trace
        };
        assert_eq!(order("p"), order("p"));
    }

    #[test]
    fn channel_roundtrip() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<String>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(7));
            tx.send("hello".to_owned()).unwrap();
        });
        let h = sim.spawn("consumer", move |ctx| {
            let msg = rx.recv(ctx).unwrap();
            (msg, ctx.now())
        });
        sim.run().unwrap();
        let (msg, at) = h.take_result().unwrap();
        assert_eq!(msg, "hello");
        assert_eq!(at, SimTime::from_nanos(7_000));
    }

    #[test]
    fn delayed_send_arrives_later() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |_ctx| {
            tx.send_delayed(SimDuration::from_micros(50), 9).unwrap();
        });
        let h = sim.spawn("consumer", move |ctx| {
            rx.recv(ctx).unwrap();
            ctx.now()
        });
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(SimTime::from_nanos(50_000)));
    }

    #[test]
    fn recv_timeout_fires() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        let h = sim.spawn("consumer", move |ctx| {
            let r = rx.recv_timeout(ctx, SimDuration::from_micros(10));
            (r, ctx.now())
        });
        // Keep the sender alive past the deadline so the timeout (not a
        // disconnect) is what fires.
        sim.spawn("idle-holder", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            drop(tx);
        });
        sim.run().unwrap();
        let (r, at) = h.take_result().unwrap();
        assert_eq!(r, Err(RecvTimeoutError::Timeout));
        assert_eq!(at, SimTime::from_nanos(10_000));
    }

    #[test]
    fn recv_timeout_receives_if_in_time() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(3));
            tx.send(1).unwrap();
        });
        let h =
            sim.spawn("consumer", move |ctx| rx.recv_timeout(ctx, SimDuration::from_micros(10)));
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(Ok(1)));
    }

    #[test]
    fn disconnected_sender_errors_receiver() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(2));
            drop(tx);
        });
        let h = sim.spawn("consumer", move |ctx| rx.recv(ctx));
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(Err(RecvError::Disconnected)));
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Simulation::new();
        let (_tx, rx) = sim.channel::<u8>();
        sim.spawn("stuck", move |ctx| {
            let _ = rx.recv(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec!["stuck".to_owned()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_process_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_ctx| panic!("boom {}", 42));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom 42"), "message was {message:?}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Simulation::new();
        let h = sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |ctx| {
                ctx.sleep(SimDuration::from_micros(30));
                7u32
            });
            child.join(ctx);
            (child.take_result().unwrap(), ctx.now())
        });
        sim.run().unwrap();
        let (v, t) = h.take_result().unwrap();
        assert_eq!(v, 7);
        assert_eq!(t, SimTime::from_nanos(30_000));
    }

    #[test]
    fn event_limit_guards_runaway_loops() {
        let mut sim = Simulation::new();
        sim.set_event_limit(100);
        sim.spawn("spinner", |ctx| loop {
            ctx.sleep(SimDuration::from_nanos(1));
        });
        assert_eq!(sim.run(), Err(SimError::EventLimitExceeded { limit: 100 }));
    }

    #[test]
    fn try_recv_never_blocks() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        let h = sim.spawn("consumer", move |ctx| {
            let empty = rx.try_recv();
            ctx.sleep(SimDuration::from_micros(1));
            tx.send(5).unwrap();
            let full = rx.try_recv();
            (empty, full)
        });
        sim.run().unwrap();
        let (empty, full) = h.take_result().unwrap();
        assert_eq!(empty, Err(TryRecvError::Empty));
        assert_eq!(full, Ok(5));
    }

    #[test]
    fn many_messages_preserve_fifo_order() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>();
        sim.spawn("producer", move |ctx| {
            for i in 0..100 {
                ctx.sleep(SimDuration::from_nanos(10));
                tx.send(i).unwrap();
            }
        });
        let h = sim.spawn("consumer", move |ctx| {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv(ctx) {
                got.push(v);
            }
            got
        });
        sim.run().unwrap();
        assert_eq!(h.take_result().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_policy_defers_same_instant_events_under_their_original_keys() {
        // Eight processes start together at t=0 and sleep to one shared
        // instant. Each pick puts the rest of its batch back in the heap, so
        // the run only matches the policy-free one if every deferred event
        // comes back at its original instant and in its original order.
        let run = |policy: bool| {
            let mut sim = Simulation::new();
            sim.enable_trace();
            if policy {
                sim.set_schedule_policy(Box::new(FifoSeqPolicy));
            }
            for i in 0..8 {
                sim.spawn(&format!("p{i}"), |ctx| ctx.sleep(SimDuration::from_micros(10)));
            }
            let report = sim.run().unwrap();
            let log: Vec<(u32, u32)> =
                sim.take_choice_log().iter().map(|c| (c.arity, c.chosen)).collect();
            (report, log)
        };
        let (plain, no_choices) = run(false);
        let (fifo, log) = run(true);
        assert_eq!(fifo, plain, "FifoSeqPolicy changed the resume trace");
        assert!(no_choices.is_empty());
        // One tie round for the eight starts at t=0, one for the eight wakes
        // at 10 µs.
        let round: Vec<(u32, u32)> = (2..=8).rev().map(|arity| (arity, 0)).collect();
        assert_eq!(log, [round.clone(), round].concat());
    }

    #[test]
    fn processes_get_thread_sized_stacks_and_unmap_them_when_done() {
        /// Recurses until the stack is 1 MiB deeper than `top`.
        fn dive(top: usize) -> usize {
            let buf = std::hint::black_box([0u8; 512]);
            let depth = top - buf.as_ptr() as usize;
            if depth >= 1 << 20 {
                return depth;
            }
            std::hint::black_box(dive(top)) + usize::from(buf[0])
        }
        let mut sim = Simulation::new();
        // A process has as much stack as a std thread's default 2 MiB.
        let deep = sim.spawn("deep", |_ctx| {
            let top = std::hint::black_box(0u8);
            dive(std::ptr::from_ref(&top) as usize)
        });
        sim.spawn("spawner", |ctx| {
            for _ in 0..100 {
                let children: Vec<_> = (0..100)
                    .map(|i| ctx.spawn("child", move |ctx| ctx.sleep(SimDuration::from_nanos(i))))
                    .collect();
                for child in &children {
                    child.join(ctx);
                }
            }
        });
        sim.run().unwrap();
        assert!(deep.take_result().unwrap() >= 1 << 20);
        assert_eq!(fiber::mapped_stacks(), 0, "10k finished processes left stacks mapped");

        // Blocked and never-started processes give theirs back on drop.
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<()>();
        sim.spawn("blocked", move |ctx| rx.recv(ctx));
        sim.run().unwrap_err();
        sim.spawn("unstarted", move |_ctx| drop(tx));
        assert_eq!(fiber::mapped_stacks(), 2);
        drop(sim);
        assert_eq!(fiber::mapped_stacks(), 0);
    }

    #[test]
    fn a_panicking_call_unwinds_out_of_run_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(u32);
        for policy in [false, true] {
            let mut sim = Simulation::new();
            if policy {
                sim.set_schedule_policy(Box::new(FifoSeqPolicy));
            }
            // The closure fires while the sleeper's fiber is suspended.
            sim.spawn("sleeper", |ctx| ctx.sleep(SimDuration::from_micros(5)));
            sim.shared.schedule_call(
                SimTime::from_nanos(2_000),
                Box::new(|| std::panic::panic_any(Boom(7))),
            );
            let caught = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            let payload = caught.expect_err("the closure's panic must unwind out of run");
            assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(7)), "policy: {policy}");
            assert_eq!(sim.now(), SimTime::from_nanos(2_000));
        }
    }
}
