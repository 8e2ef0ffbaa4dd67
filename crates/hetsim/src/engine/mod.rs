//! Deterministic discrete-event simulation engine.
//!
//! Simulated processes (the Molecule daemons, executors, shims and function
//! instances) are written in straight-line style: each is an OS thread that
//! the scheduler resumes **one at a time**, SimPy-style. Because exactly one
//! process runs between scheduler steps and ties are broken by a monotone
//! sequence number, every run of the same program is bit-for-bit identical.
//!
//! Virtual time only advances through the event queue; real thread switches
//! cost wall-clock time but zero virtual time.
//!
//! # Event core
//!
//! Pending events live in one binary heap keyed by `(time, seq)`. The pop
//! order of that heap *is* the dispatch sequence, and with it every
//! [`SchedulePolicy`] consultation, [`ChoicePoint`] log and
//! `SIMCHECK_REPLAY` blob. Events a policy defers are re-inserted under
//! their original keys.
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
mod process;
mod queue;
mod schedule;
mod semaphore;

pub use channel::{RecvError, RecvTimeoutError, SendError, SimReceiver, SimSender, TryRecvError};
pub use process::{ProcCtx, ProcHandle, ProcId};
pub use schedule::{ChoicePoint, FifoSeqPolicy, SchedulePolicy};
pub use semaphore::{SemPermit, SimSemaphore};

use std::fmt;
use std::sync::Arc;

use crossbeam::channel as xchan;
use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};
use queue::EventQueue;

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

#[derive(Debug)]
pub(crate) enum YieldKind {
    Blocked,
    Finished,
    Panicked(String),
}

pub(crate) struct YieldMsg {
    pub proc: ProcId,
    pub kind: YieldKind,
}

pub(crate) enum EventAction {
    /// Resume process `proc` if it is still blocked with wait generation `gen`.
    Resume { proc: ProcId, gen: u64, reason: ResumeReason },
    /// Run a closure on the scheduler thread (no engine lock held).
    Call(Box<dyn FnOnce() + Send>),
}

impl fmt::Debug for EventAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventAction::Resume { proc, gen, reason } => f
                .debug_struct("Resume")
                .field("proc", proc)
                .field("gen", gen)
                .field("reason", reason)
                .finish(),
            EventAction::Call(_) => f.write_str("Call(..)"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Blocked,
    Running,
}

pub(crate) struct ProcSlot {
    pub name: String,
    pub resume_tx: xchan::Sender<ResumeReason>,
    pub wait_gen: u64,
    pub state: ProcState,
}

/// Generational slab of process slots, indexed directly by [`ProcId`]
/// (`(generation << 32) | index`): O(1) probe with no hashing, iteration in
/// index order so deadlock reports and teardown are deterministic.
pub(crate) struct ProcSlab {
    entries: Vec<ProcEntry>,
    free: Vec<u32>,
    len: usize,
}

struct ProcEntry {
    gen: u32,
    slot: Option<ProcSlot>,
}

impl ProcSlab {
    fn new() -> Self {
        ProcSlab { entries: Vec::new(), free: Vec::new(), len: 0 }
    }

    fn insert(&mut self, slot: ProcSlot) -> ProcId {
        self.len += 1;
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
        self.len -= 1;
        e.slot.take()
    }

    /// Live slots in index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &ProcSlot> {
        self.entries.iter().filter_map(|e| e.slot.as_ref())
    }
}

pub(crate) struct EngineState {
    pub now: SimTime,
    events: EventQueue<EventAction>,
    pub procs: ProcSlab,
    pub live: usize,
    trace: Option<Vec<String>>,
}

impl EngineState {
    pub(crate) fn schedule(&mut self, at: SimTime, action: EventAction) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.events.push(at.as_nanos(), action);
    }

    pub(crate) fn bump_gen(&mut self, proc: ProcId) -> u64 {
        let slot = self.procs.get_mut(proc).expect("bump_gen on unknown proc");
        slot.wait_gen += 1;
        slot.wait_gen
    }
}

pub(crate) struct EngineShared {
    pub state: Mutex<EngineState>,
    pub yield_tx: xchan::Sender<YieldMsg>,
    yield_rx: xchan::Receiver<YieldMsg>,
}

/// Emits the "wake proc#N" engine instant, outside any engine lock and only
/// when the engine telemetry lane is enabled (the format! is never built
/// otherwise).
#[inline]
fn wake_instant(at: SimTime, proc: ProcId) {
    if telemetry::engine_instants() {
        telemetry::with(|r| {
            r.instant(telemetry::ENGINE_LANE, at.as_nanos(), &format!("wake {proc}"), None);
        });
    }
}

impl EngineShared {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.lock().now
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
            let at = at.max(st.now);
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
            let at = st.now;
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
            let at = st.now + d;
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Schedule a closure to run on the scheduler thread at `at`.
    pub(crate) fn schedule_call(&self, at: SimTime, f: Box<dyn FnOnce() + Send>) {
        let mut st = self.state.lock();
        let at = at.max(st.now);
        st.schedule(at, EventAction::Call(f));
    }

    fn register_proc(&self, name: &str, resume_tx: xchan::Sender<ResumeReason>) -> ProcId {
        let mut st = self.state.lock();
        let id = st.procs.insert(ProcSlot {
            name: name.to_owned(),
            resume_tx,
            wait_gen: 0,
            state: ProcState::Blocked,
        });
        st.live += 1;
        let now = st.now;
        st.schedule(now, EventAction::Resume { proc: id, gen: 0, reason: ResumeReason::Start });
        id
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
    event_limit: u64,
    events_fired: u64,
    policy: Option<Box<dyn SchedulePolicy>>,
    choice_log: Vec<ChoicePoint>,
    step_observer: Option<Box<dyn FnMut()>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at `t = 0`.
    pub fn new() -> Self {
        let (yield_tx, yield_rx) = xchan::unbounded();
        Simulation {
            shared: Arc::new(EngineShared {
                state: Mutex::new(EngineState {
                    now: SimTime::ZERO,
                    events: EventQueue::new(),
                    procs: ProcSlab::new(),
                    live: 0,
                    trace: None,
                }),
                yield_tx,
                yield_rx,
            }),
            event_limit: u64::MAX,
            events_fired: 0,
            policy: None,
            choice_log: Vec::new(),
            step_observer: None,
        }
    }

    /// Caps the number of events a [`run`](Self::run) may fire (runaway guard).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Installs a [`SchedulePolicy`] that breaks same-instant ties.
    ///
    /// Every consulted tie is recorded as a [`ChoicePoint`]; harvest the log
    /// with [`take_choice_log`](Self::take_choice_log) after (or instead of)
    /// a successful run — the log survives an erroring run too.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.policy = Some(policy);
    }

    /// Takes the tie-break decisions recorded so far, leaving the log empty.
    pub fn take_choice_log(&mut self) -> Vec<ChoicePoint> {
        std::mem::take(&mut self.choice_log)
    }

    /// Installs a closure invoked after every fired event, with no engine
    /// lock held and no simulated process running — the safe window for
    /// invariant oracles to snapshot shared state.
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
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ProcHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        process::spawn(Arc::clone(&self.shared), name, f)
    }

    /// Runs the simulation until the event queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if processes remain blocked with no
    /// pending events, [`SimError::ProcessPanicked`] if a process panics, and
    /// [`SimError::EventLimitExceeded`] if the event budget is exhausted.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        loop {
            if self.events_fired >= self.event_limit {
                return Err(SimError::EventLimitExceeded { limit: self.event_limit });
            }
            let (now, action) = {
                let mut st = self.shared.state.lock();
                match st.events.pop() {
                    Some((t_ns, seq, action)) => {
                        let t = SimTime::from_nanos(t_ns);
                        debug_assert!(t >= st.now, "event queue went backwards");
                        st.now = t;
                        let action = match self.policy.as_mut() {
                            Some(policy) => {
                                // Gather every event runnable at this instant.
                                // Pops come out in (time, seq) order, so the
                                // batch is already seq-sorted and index 0 is
                                // what the default tie-break would run.
                                let mut batch = vec![(t_ns, seq, action)];
                                while st.events.peek_time() == Some(t_ns) {
                                    batch.push(st.events.pop().expect("peeked event vanished"));
                                }
                                let arity = batch.len();
                                let chosen = if arity > 1 {
                                    let c = policy.choose(t, arity).min(arity - 1);
                                    self.choice_log.push(ChoicePoint {
                                        arity: arity as u32,
                                        chosen: c as u32,
                                    });
                                    c
                                } else {
                                    0
                                };
                                let (_, _, action) = batch.remove(chosen);
                                // Deferred events keep their original keys.
                                for (bt, bs, baction) in batch {
                                    st.events.push_at(bt, bs, baction);
                                }
                                action
                            }
                            None => action,
                        };
                        (t, action)
                    }
                    None => {
                        if st.live == 0 {
                            let trace = st.trace.take().unwrap_or_default();
                            return Ok(RunReport {
                                end_time: st.now,
                                events_fired: self.events_fired,
                                trace,
                            });
                        }
                        let blocked = st
                            .procs
                            .iter()
                            .filter(|p| p.state == ProcState::Blocked)
                            .map(|p| p.name.clone())
                            .collect();
                        return Err(SimError::Deadlock { blocked });
                    }
                }
            };
            self.events_fired += 1;
            match action {
                EventAction::Call(f) => f(),
                EventAction::Resume { proc, gen, reason } => {
                    let trace_on;
                    let tele_on = telemetry::engine_instants();
                    let prepared = {
                        let mut st = self.shared.state.lock();
                        trace_on = st.trace.is_some();
                        let prepared = match st.procs.get_mut(proc) {
                            Some(slot)
                                if slot.state == ProcState::Blocked && slot.wait_gen == gen =>
                            {
                                slot.state = ProcState::Running;
                                let name = (trace_on || tele_on).then(|| slot.name.clone());
                                Some((slot.resume_tx.clone(), name))
                            }
                            // Stale wake-up (e.g. raced timeout) or finished.
                            _ => None,
                        };
                        if trace_on {
                            if let Some((_, Some(name))) = &prepared {
                                let entry = format!("{now} {name}");
                                st.trace.as_mut().expect("trace enabled").push(entry);
                            }
                        }
                        prepared
                    };
                    let Some((resume_tx, name)) = prepared else { continue };
                    // Telemetry runs outside the state lock, and the
                    // "dispatch" string is only built when the engine lane
                    // is actually recording.
                    if tele_on {
                        let name = name.as_deref().unwrap_or("");
                        telemetry::with(|r| {
                            r.instant(
                                telemetry::ENGINE_LANE,
                                now.as_nanos(),
                                &format!("dispatch {name}"),
                                None,
                            );
                        });
                    }
                    telemetry::counter_add("engine.dispatches", 1);
                    resume_tx.send(reason).expect("simulated process vanished while blocked");
                    let y = self
                        .shared
                        .yield_rx
                        .recv()
                        .expect("yield channel closed while a process was running");
                    debug_assert_eq!(y.proc, proc, "unexpected process yielded");
                    let mut st = self.shared.state.lock();
                    match y.kind {
                        YieldKind::Blocked => {
                            if let Some(slot) = st.procs.get_mut(proc) {
                                slot.state = ProcState::Blocked;
                            }
                        }
                        YieldKind::Finished => {
                            st.procs.remove(proc);
                            st.live -= 1;
                        }
                        YieldKind::Panicked(message) => {
                            // (step observer intentionally skipped: the run is
                            // about to abort and report the panic instead.)
                            let name = st
                                .procs
                                .remove(proc)
                                .map(|s| s.name)
                                .unwrap_or_else(|| "<unknown>".to_owned());
                            st.live -= 1;
                            drop(st);
                            // Surface the last recorded events alongside the
                            // crash so failures are debuggable post-mortem.
                            if let Some(dump) = telemetry::flight_dump() {
                                eprintln!("process '{name}' panicked; {dump}");
                            }
                            return Err(SimError::ProcessPanicked { name, message });
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
        // Wake every still-blocked process with a cancellation so its thread
        // exits instead of leaking, parked forever on its resume channel.
        let st = self.shared.state.lock();
        for slot in st.procs.iter() {
            if slot.state == ProcState::Blocked {
                let _ = slot.resume_tx.send(ResumeReason::Cancel);
            }
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("live_procs", &st.live)
            .field("pending_events", &st.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
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
}
