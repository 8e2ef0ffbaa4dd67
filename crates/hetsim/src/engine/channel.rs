//! Simulated message channels.
//!
//! Sends are instantaneous (or explicitly delayed via
//! [`SimSender::send_delayed`]); receives block the simulated process until a
//! message is available. Channels are multi-producer single-consumer, which
//! matches every use in the Molecule stack (FIFOs, XPUcall queues, executor
//! command queues).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use super::{EngineShared, ProcCtx, ProcId, ResumeReason};
use crate::time::SimDuration;

/// Error returned by [`SimSender::send`] when the receiver was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiver of the simulated channel was dropped")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`SimReceiver::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// All senders were dropped and the queue is empty.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("all senders of the simulated channel were dropped")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`SimReceiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The virtual-time deadline elapsed first.
    Timeout,
    /// All senders were dropped and the queue is empty.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("simulated receive timed out"),
            RecvTimeoutError::Disconnected => {
                f.write_str("all senders of the simulated channel were dropped")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Error returned by [`SimReceiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// All senders were dropped and the queue is empty.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("simulated channel is empty"),
            TryRecvError::Disconnected => {
                f.write_str("all senders of the simulated channel were dropped")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

struct ChanInner<T> {
    queue: VecDeque<T>,
    waiters: VecDeque<(ProcId, u64)>,
    senders: usize,
    receiver_alive: bool,
}

type Chan<T> = Arc<Mutex<ChanInner<T>>>;

pub(crate) fn channel<T: Send + 'static>(
    shared: Arc<EngineShared>,
) -> (SimSender<T>, SimReceiver<T>) {
    let chan: Chan<T> = Arc::new(Mutex::new(ChanInner {
        queue: VecDeque::new(),
        waiters: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
    }));
    (
        SimSender { chan: Arc::clone(&chan), shared: Arc::clone(&shared) },
        SimReceiver { chan, shared },
    )
}

/// Pushes a message and wakes the front waiter (if any). Shared by direct and
/// delayed sends.
fn deliver<T: Send>(chan: &Chan<T>, shared: &EngineShared, msg: T) -> Result<(), SendError<T>> {
    let waiter = {
        let mut inner = chan.lock();
        if !inner.receiver_alive {
            return Err(SendError(msg));
        }
        inner.queue.push_back(msg);
        inner.waiters.pop_front()
    };
    if let Some((proc, gen)) = waiter {
        shared.schedule_resume_now(proc, gen, ResumeReason::Woken);
    }
    Ok(())
}

/// Drops one sender reference, waking all waiters if it was the last.
fn release_sender<T: Send>(chan: &Chan<T>, shared: &EngineShared) {
    let waiters: Vec<(ProcId, u64)> = {
        let mut inner = chan.lock();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.waiters.drain(..).collect()
        } else {
            Vec::new()
        }
    };
    for (proc, gen) in waiters {
        shared.schedule_resume_now(proc, gen, ResumeReason::Woken);
    }
}

/// Sending half of a simulated channel. Cloneable (multi-producer).
pub struct SimSender<T> {
    chan: Chan<T>,
    shared: Arc<EngineShared>,
}

impl<T> fmt::Debug for SimSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SimSender")
    }
}

impl<T: Send + 'static> SimSender<T> {
    /// Sends a message, delivered at the current virtual instant.
    ///
    /// # Errors
    ///
    /// Returns the message back if the receiver was dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        deliver(&self.chan, &self.shared, msg)
    }

    /// Sends a message that arrives `delay` of virtual time from now.
    ///
    /// The channel stays alive while the message is in flight, so a delayed
    /// message is always delivered before receivers observe a disconnect.
    ///
    /// # Errors
    ///
    /// Returns the message back if the receiver was already dropped.
    pub fn send_delayed(&self, delay: SimDuration, msg: T) -> Result<(), SendError<T>> {
        {
            let mut inner = self.chan.lock();
            if !inner.receiver_alive {
                return Err(SendError(msg));
            }
            inner.senders += 1; // in-flight message counts as a live sender
        }
        let chan = Arc::clone(&self.chan);
        let shared = Arc::clone(&self.shared);
        let at = self.shared.now() + delay;
        self.shared.schedule_call(
            at,
            Box::new(move || {
                let _ = deliver(&chan, &shared, msg);
                release_sender(&chan, &shared);
            }),
        );
        Ok(())
    }
}

impl<T> Clone for SimSender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().senders += 1;
        SimSender { chan: Arc::clone(&self.chan), shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for SimSender<T> {
    fn drop(&mut self) {
        // Safety valve: `release_sender` only schedules events; it never
        // blocks, so dropping inside a simulated process is fine.
        let waiters: Vec<(ProcId, u64)> = {
            let mut inner = self.chan.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                inner.waiters.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        for (proc, gen) in waiters {
            self.shared.schedule_resume_now(proc, gen, ResumeReason::Woken);
        }
    }
}

/// Receiving half of a simulated channel (single consumer).
pub struct SimReceiver<T> {
    chan: Chan<T>,
    shared: Arc<EngineShared>,
}

impl<T> fmt::Debug for SimReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SimReceiver")
    }
}

impl<T: Send + 'static> SimReceiver<T> {
    /// Blocks the calling process until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Disconnected`] once all senders are dropped and
    /// the queue is empty.
    pub fn recv(&self, ctx: &mut ProcCtx) -> Result<T, RecvError> {
        loop {
            {
                let mut inner = self.chan.lock();
                if let Some(msg) = inner.queue.pop_front() {
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvError::Disconnected);
                }
                let gen = ctx.bump_gen();
                inner.waiters.push_back((ctx.id(), gen));
            }
            let _ = ctx.yield_and_wait();
        }
    }

    /// Blocks until a message arrives or `timeout` of virtual time elapses.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if the deadline fires first, or
    /// [`RecvTimeoutError::Disconnected`] if all senders are dropped.
    pub fn recv_timeout(
        &self,
        ctx: &mut ProcCtx,
        timeout: SimDuration,
    ) -> Result<T, RecvTimeoutError> {
        let deadline = ctx.now() + timeout;
        loop {
            let gen = {
                let mut inner = self.chan.lock();
                if let Some(msg) = inner.queue.pop_front() {
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let gen = ctx.bump_gen();
                inner.waiters.push_back((ctx.id(), gen));
                gen
            };
            self.shared.schedule_resume(deadline, ctx.id(), gen, ResumeReason::Timeout);
            match ctx.yield_and_wait() {
                ResumeReason::Timeout => {
                    let mut inner = self.chan.lock();
                    inner.waiters.retain(|(p, _)| *p != ctx.id());
                    return Err(RecvTimeoutError::Timeout);
                }
                _ => continue,
            }
        }
    }

    /// Pops a queued message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued;
    /// [`TryRecvError::Disconnected`] once all senders are dropped.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.chan.lock();
        if let Some(msg) = inner.queue.pop_front() {
            Ok(msg)
        } else if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of currently queued messages.
    pub fn len(&self) -> usize {
        self.chan.lock().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SimReceiver<T> {
    fn drop(&mut self) {
        self.chan.lock().receiver_alive = false;
    }
}
