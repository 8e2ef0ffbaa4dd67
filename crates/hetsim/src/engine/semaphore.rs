//! Counting semaphores over virtual time.
//!
//! Used to model contended resources — PU cores, DMA engines, FPGA
//! reconfiguration ports — where concurrent simulated processes must queue.
//! Waiters are served strictly FIFO, preserving determinism.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use super::{EngineShared, ProcCtx, ProcId, ResumeReason};

struct SemInner {
    permits: u64,
    waiters: VecDeque<(ProcId, u64, u64)>, // (proc, gen, requested)
}

/// A FIFO counting semaphore for simulated processes.
///
/// # Examples
///
/// ```
/// use hetsim::engine::{Simulation, SimSemaphore};
/// use hetsim::time::SimDuration;
///
/// let mut sim = Simulation::new();
/// let sem = SimSemaphore::new(&sim, 1); // one core
/// for i in 0..3 {
///     let sem = sem.clone();
///     sim.spawn(&format!("job{i}"), move |ctx| {
///         let _permit = sem.acquire(ctx, 1);
///         ctx.sleep(SimDuration::from_millis(10));
///     });
/// }
/// let report = sim.run().unwrap();
/// // Three 10ms jobs serialized on one core: 30ms total.
/// assert_eq!(report.end_time.as_nanos(), 30_000_000);
/// ```
#[derive(Clone)]
pub struct SimSemaphore {
    shared: Arc<EngineShared>,
    inner: Arc<Mutex<SemInner>>,
}

impl fmt::Debug for SimSemaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SimSemaphore")
            .field("permits", &inner.permits)
            .field("waiters", &inner.waiters.len())
            .finish()
    }
}

/// A held permit; released on drop (or explicitly).
pub struct SemPermit {
    sem: SimSemaphore,
    count: u64,
}

impl fmt::Debug for SemPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemPermit").field("count", &self.count).finish()
    }
}

impl SimSemaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(sim: &super::Simulation, permits: u64) -> SimSemaphore {
        SimSemaphore::from_shared(Arc::clone(&sim.shared), permits)
    }

    pub(crate) fn from_shared(shared: Arc<EngineShared>, permits: u64) -> SimSemaphore {
        SimSemaphore {
            shared,
            inner: Arc::new(Mutex::new(SemInner { permits, waiters: VecDeque::new() })),
        }
    }

    /// Acquires `count` permits, blocking the simulated process (FIFO) until
    /// they are available. The permits return when the guard drops.
    pub fn acquire(&self, ctx: &mut ProcCtx, count: u64) -> SemPermit {
        loop {
            {
                let mut inner = self.inner.lock();
                // Strict FIFO: only take permits if no one is queued ahead.
                let first_in_line = inner.waiters.front().is_none_or(|(p, _, _)| *p == ctx.id());
                if first_in_line && inner.permits >= count {
                    if let Some((p, _, _)) = inner.waiters.front() {
                        if *p == ctx.id() {
                            inner.waiters.pop_front();
                        }
                    }
                    inner.permits -= count;
                    // Cascade: if the next waiter also fits in what's left,
                    // wake it (a single release only wakes the queue head).
                    let next = inner
                        .waiters
                        .front()
                        .filter(|(_, _, want)| *want <= inner.permits)
                        .map(|(p, g, _)| (*p, *g));
                    drop(inner);
                    if let Some((proc, gen)) = next {
                        self.shared.schedule_resume_now(proc, gen, ResumeReason::Woken);
                    }
                    return SemPermit { sem: self.clone(), count };
                }
                // Queue (once) and wait for a release to wake us.
                let gen = ctx.bump_gen();
                match inner.waiters.iter_mut().find(|(p, _, _)| *p == ctx.id()) {
                    Some(entry) => {
                        entry.1 = gen;
                        entry.2 = count;
                    }
                    None => inner.waiters.push_back((ctx.id(), gen, count)),
                }
            }
            let _ = ctx.yield_and_wait();
        }
    }

    fn release(&self, count: u64) {
        let wake = {
            let mut inner = self.inner.lock();
            inner.permits += count;
            inner
                .waiters
                .front()
                .filter(|(_, _, want)| *want <= inner.permits)
                .map(|(p, g, _)| (*p, *g))
        };
        if let Some((proc, gen)) = wake {
            self.shared.schedule_resume_now(proc, gen, ResumeReason::Woken);
        }
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        self.sem.release(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::super::Simulation;
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn permits_serialize_critical_sections() {
        let mut sim = Simulation::new();
        let sem = SimSemaphore::new(&sim, 2); // two "cores"
        let mut handles = Vec::new();
        for i in 0..4 {
            let sem = sem.clone();
            handles.push(sim.spawn(&format!("job{i}"), move |ctx| {
                let _p = sem.acquire(ctx, 1);
                ctx.sleep(SimDuration::from_millis(10));
                ctx.now()
            }));
        }
        let report = sim.run().unwrap();
        // 4 jobs on 2 cores: two waves of 10ms.
        assert_eq!(report.end_time, SimTime::from_nanos(20_000_000));
        let mut ends: Vec<_> = handles.iter().map(|h| h.take_result().unwrap()).collect();
        ends.sort();
        assert_eq!(ends[0], SimTime::from_nanos(10_000_000));
        assert_eq!(ends[3], SimTime::from_nanos(20_000_000));
    }

    #[test]
    fn fifo_ordering_prevents_starvation() {
        // A big request queued first must not be starved by small ones.
        let mut sim = Simulation::new();
        let sem = SimSemaphore::new(&sim, 2);
        let sem_big = sem.clone();
        let big = sim.spawn("big", move |ctx| {
            ctx.sleep(SimDuration::from_micros(1)); // arrive after the first small
            let _p = sem_big.acquire(ctx, 2);
            ctx.now()
        });
        for i in 0..3 {
            let sem = sem.clone();
            sim.spawn(&format!("small{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_micros(i as u64 * 2));
                let _p = sem.acquire(ctx, 1);
                ctx.sleep(SimDuration::from_millis(5));
            });
        }
        sim.run().unwrap();
        // big arrived at 1us while small0 held a permit; it must run before
        // small1/small2 get new permits: it completes right after small0's
        // 5ms section, not after all three.
        let at = big.take_result().unwrap();
        assert!(at <= SimTime::from_nanos(5_010_000), "big waited too long: {at}");
    }

    #[test]
    fn dropping_the_permit_wakes_the_next_waiter() {
        let mut sim = Simulation::new();
        let sem = SimSemaphore::new(&sim, 1);
        let sem_a = sem.clone();
        sim.spawn("holder", move |ctx| {
            let p = sem_a.acquire(ctx, 1);
            ctx.sleep(SimDuration::from_millis(3));
            drop(p);
            ctx.sleep(SimDuration::from_millis(100)); // keep living
        });
        let sem_b = sem.clone();
        let waiter = sim.spawn("waiter", move |ctx| {
            ctx.sleep(SimDuration::from_micros(1));
            let _p = sem_b.acquire(ctx, 1);
            ctx.now()
        });
        sim.run().unwrap();
        assert_eq!(waiter.take_result().unwrap(), SimTime::from_nanos(3_000_000));
    }
}
