//! Property tests of the discrete-event engine itself: determinism, causal
//! ordering, and virtual-time consistency under arbitrary schedules.

use hetsim::engine::{FifoSeqPolicy, RunReport, SimError, SimSemaphore, Simulation};
use hetsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// One step of a generated process program. Durations are whole
/// microseconds, so programs are dense in same-instant ties.
#[derive(Debug, Clone)]
enum Op {
    Sleep(u64),
    Yield,
    /// Send to process `to`'s inbox, `delay` µs late (0: immediately).
    Send {
        to: usize,
        delay: u64,
    },
    Recv,
    RecvTimeout(u64),
    /// Hold one of two semaphore permits for `hold` µs.
    Acquire {
        hold: u64,
    },
    /// Spawn a child that sleeps this long, and join it.
    SpawnJoin(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4).prop_map(Op::Sleep),
        Just(Op::Yield),
        (0usize..8, 0u64..3).prop_map(|(to, delay)| Op::Send { to, delay }),
        Just(Op::Recv),
        (1u64..4).prop_map(Op::RecvTimeout),
        (0u64..3).prop_map(|hold| Op::Acquire { hold }),
        (0u64..3).prop_map(Op::SpawnJoin),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Dispatch {
    Baton,
    Policy,
    Observer,
}

type ProgramRun = (Result<RunReport, SimError>, Vec<Option<Vec<String>>>);

/// Runs a program, one process per op list, and returns the run's result
/// and what each process observed.
fn run_program(program: &[Vec<Op>], dispatch: Dispatch) -> ProgramRun {
    let us = SimDuration::from_micros;
    let mut sim = Simulation::new();
    sim.enable_trace();
    sim.set_event_limit(100_000);
    match dispatch {
        Dispatch::Baton => {}
        Dispatch::Policy => sim.set_schedule_policy(Box::new(FifoSeqPolicy)),
        Dispatch::Observer => sim.set_step_observer(Box::new(|| {})),
    }
    let sem = SimSemaphore::new(&sim, 2);
    let (inboxes, receivers): (Vec<_>, Vec<_>) =
        program.iter().map(|_| sim.channel::<usize>()).unzip();
    let handles: Vec<_> = program
        .iter()
        .cloned()
        .zip(receivers)
        .enumerate()
        .map(|(i, (ops, rx))| {
            let (inboxes, sem) = (inboxes.clone(), sem.clone());
            sim.spawn(&format!("p{i}"), move |ctx| {
                let mut log = Vec::new();
                for (k, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Sleep(d) => ctx.sleep(us(d)),
                        Op::Yield => ctx.yield_now(),
                        Op::Send { to, delay } => {
                            let tx = &inboxes[to % inboxes.len()];
                            let sent =
                                if delay == 0 { tx.send(k) } else { tx.send_delayed(us(delay), k) };
                            log.push(format!("send {:?}", sent.is_ok()));
                        }
                        Op::Recv => log.push(format!("recv {:?}", rx.recv(ctx))),
                        Op::RecvTimeout(t) => {
                            log.push(format!("recv_timeout {:?}", rx.recv_timeout(ctx, us(t))));
                        }
                        Op::Acquire { hold } => {
                            let _permit = sem.acquire(ctx, 1);
                            ctx.sleep(us(hold));
                        }
                        Op::SpawnJoin(d) => {
                            let child = ctx.spawn(&format!("p{i}.{k}"), move |c| {
                                c.sleep(us(d));
                                c.now()
                            });
                            child.join(ctx);
                            log.push(format!("joined {:?}", child.take_result()));
                        }
                    }
                    log.push(format!("@{}", ctx.now()));
                }
                log
            })
        })
        .collect();
    drop(inboxes);
    let result = sim.run();
    (result, handles.iter().map(|h| h.take_result()).collect())
}

proptest! {
    /// Baton dispatch, driver-stepped dispatch under `FifoSeqPolicy` and
    /// driver-stepped dispatch under a step observer fire the same events
    /// in the same order: same trace, end time, event count, error and
    /// per-process observations.
    #[test]
    fn dispatch_modes_are_equivalent(
        program in proptest::collection::vec(proptest::collection::vec(op(), 0..8), 2..9),
    ) {
        let baton = run_program(&program, Dispatch::Baton);
        prop_assert_eq!(&run_program(&program, Dispatch::Policy), &baton);
        prop_assert_eq!(&run_program(&program, Dispatch::Observer), &baton);
    }

    /// Messages sent at increasing virtual times arrive in that order, for
    /// arbitrary sets of delayed sends from one producer.
    #[test]
    fn delayed_sends_arrive_in_timestamp_order(delays in proptest::collection::vec(0u64..10_000, 1..20)) {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u64>();
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        let expected = sorted.clone();
        sim.spawn("producer", move |_ctx| {
            for &d in &delays {
                tx.send_delayed(SimDuration::from_nanos(d), d).unwrap();
            }
        });
        let h = sim.spawn("consumer", move |ctx| {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv(ctx) {
                let now = ctx.now().as_nanos();
                prop_assert!(now >= v, "message for t={v} arrived at t={now}");
                got.push(v);
            }
            Ok(got)
        });
        sim.run().unwrap();
        let got = h.take_result().unwrap()?;
        // Ties are delivered in send order, which matches the sorted order
        // only up to equal elements; compare multisets and monotonicity.
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        prop_assert_eq!(got_sorted, expected);
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1], "out-of-order delivery: {:?}", got);
        }
    }

    /// The simulation's end time equals the maximum completion time of any
    /// process, regardless of spawn order.
    #[test]
    fn end_time_is_the_longest_process(durations in proptest::collection::vec(1u64..100_000, 1..10)) {
        let mut sim = Simulation::new();
        let max = *durations.iter().max().unwrap();
        for (i, d) in durations.into_iter().enumerate() {
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_nanos(d));
            });
        }
        let report = sim.run().unwrap();
        prop_assert_eq!(report.end_time, SimTime::from_nanos(max));
    }

    /// Nested spawns observe their parent's clock: a child spawned after a
    /// parent slept `d` starts no earlier than `d`.
    #[test]
    fn children_inherit_virtual_time(parent_delay in 1u64..50_000, child_delay in 1u64..50_000) {
        let mut sim = Simulation::new();
        let h = sim.spawn("parent", move |ctx| {
            ctx.sleep(SimDuration::from_nanos(parent_delay));
            let spawn_time = ctx.now();
            let child = ctx.spawn("child", move |cctx| {
                let start = cctx.now();
                cctx.sleep(SimDuration::from_nanos(child_delay));
                (start, cctx.now())
            });
            child.join(ctx);
            (spawn_time, child.take_result().unwrap())
        });
        sim.run().unwrap();
        let (spawn_time, (child_start, child_end)) = h.take_result().unwrap();
        prop_assert_eq!(child_start, spawn_time);
        prop_assert_eq!(child_end, child_start + SimDuration::from_nanos(child_delay));
    }

    /// Event budgets are respected exactly: a spinner with limit N never
    /// fires more than N events.
    #[test]
    fn event_limit_is_hard(limit in 1u64..200) {
        let mut sim = Simulation::new();
        sim.set_event_limit(limit);
        sim.spawn("spinner", |ctx| loop {
            ctx.sleep(SimDuration::from_nanos(1));
        });
        let err = sim.run().unwrap_err();
        prop_assert_eq!(err, hetsim::engine::SimError::EventLimitExceeded { limit });
    }

    /// recv_timeout never returns later than its deadline and never earlier
    /// than the message (whichever applies).
    #[test]
    fn recv_timeout_is_tight(timeout in 1u64..10_000, send_after in 1u64..20_000) {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_nanos(send_after));
            let _ = tx.send(1);
        });
        let h = sim.spawn("consumer", move |ctx| {
            let r = rx.recv_timeout(ctx, SimDuration::from_nanos(timeout));
            (r.is_ok(), ctx.now().as_nanos())
        });
        sim.run().unwrap();
        let (got_message, finished_at) = h.take_result().unwrap();
        if send_after <= timeout {
            prop_assert!(got_message);
            prop_assert_eq!(finished_at, send_after);
        } else {
            prop_assert!(!got_message);
            prop_assert_eq!(finished_at, timeout);
        }
    }
}
