//! Teardown and re-run of the discrete-event engine: after any way a run
//! can end, dropping the simulation unwinds every parked process thread,
//! and a simulation that ended can run again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hetsim::engine::{FifoSeqPolicy, SimError, Simulation};
use hetsim::time::{SimDuration, SimTime};

const PROCS: usize = 6;

/// Counts its own drop: a process holding one has unwound once it counts.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn new_sim(policy: bool) -> Simulation {
    let mut sim = Simulation::new();
    if policy {
        sim.set_schedule_policy(Box::new(FifoSeqPolicy));
    }
    sim
}

/// Waits up to 10 s of real time for `count` to reach `n`.
fn reaches(count: &AtomicUsize, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count.load(Ordering::SeqCst) != n {
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn dropping_after_a_deadlock_unwinds_every_parked_process() {
    for policy in [false, true] {
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut sim = new_sim(policy);
        let mut senders = Vec::new();
        for i in 0..PROCS {
            let (tx, rx) = sim.channel::<()>();
            senders.push(tx);
            let guard = Guard(Arc::clone(&dropped));
            sim.spawn(&format!("stuck{i}"), move |ctx| {
                let _guard = guard;
                ctx.sleep(SimDuration::from_micros(i as u64));
                let _ = rx.recv(ctx);
            });
        }
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked.len(), PROCS),
            other => panic!("expected a deadlock, got {other:?}"),
        }
        drop(sim);
        assert!(reaches(&dropped, PROCS), "policy {policy}: {dropped:?} of {PROCS} unwound");
        drop(senders);
    }
}

#[test]
fn dropping_after_the_event_limit_unwinds_every_parked_process() {
    for policy in [false, true] {
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut sim = new_sim(policy);
        sim.set_event_limit(50);
        for i in 0..PROCS {
            let guard = Guard(Arc::clone(&dropped));
            sim.spawn(&format!("spinner{i}"), move |ctx| {
                let _guard = guard;
                loop {
                    ctx.sleep(SimDuration::from_nanos(1));
                }
            });
        }
        assert_eq!(sim.run(), Err(SimError::EventLimitExceeded { limit: 50 }));
        drop(sim);
        assert!(reaches(&dropped, PROCS), "policy {policy}: {dropped:?} of {PROCS} unwound");
    }
}

#[test]
fn dropping_after_a_process_panic_unwinds_every_parked_process() {
    for policy in [false, true] {
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut sim = new_sim(policy);
        let (tx, rx) = sim.channel::<()>();
        for i in 0..PROCS - 1 {
            let guard = Guard(Arc::clone(&dropped));
            let tx = tx.clone();
            sim.spawn(&format!("sleeper{i}"), move |ctx| {
                let _guard = guard;
                let _tx = tx;
                ctx.sleep(SimDuration::from_millis(1));
            });
        }
        let guard = Guard(Arc::clone(&dropped));
        sim.spawn("bad", move |ctx| {
            let _guard = guard;
            let _ = rx.recv_timeout(ctx, SimDuration::from_micros(3));
            panic!("boom");
        });
        drop(tx);
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!((name.as_str(), message.as_str()), ("bad", "boom"));
            }
            other => panic!("expected a process panic, got {other:?}"),
        }
        drop(sim);
        assert!(reaches(&dropped, PROCS), "policy {policy}: {dropped:?} of {PROCS} unwound");
    }
}

#[test]
fn a_simulation_runs_again_after_spawning_more_processes() {
    for policy in [false, true] {
        let mut sim = new_sim(policy);
        let first = sim.spawn("first", |ctx| {
            ctx.sleep(SimDuration::from_micros(10));
            ctx.now()
        });
        let one = sim.run().unwrap();
        assert_eq!(first.take_result(), Some(SimTime::from_nanos(10_000)));

        // The second run also resumes a process parked since the first.
        let (tx, rx) = sim.channel::<u32>();
        let waiter = sim.spawn("waiter", move |ctx| (rx.recv(ctx).unwrap(), ctx.now()));
        assert_eq!(sim.run(), Err(SimError::Deadlock { blocked: vec!["waiter".to_owned()] }));
        let sender = sim.spawn("sender", move |ctx| {
            ctx.sleep(SimDuration::from_micros(5));
            tx.send(9).unwrap();
        });
        let three = sim.run().unwrap();
        assert!(sender.is_finished());
        assert_eq!(waiter.take_result(), Some((9, SimTime::from_nanos(15_000))));
        assert_eq!(three.end_time, SimTime::from_nanos(15_000));
        // `events_fired` counts across runs: `first` starts and wakes,
        // `waiter` starts, `sender` starts and wakes, and `waiter` wakes.
        assert_eq!((one.events_fired, three.events_fired), (2, 6), "policy {policy}");
    }
}
