//! `explore`: host cost of schedule exploration with the state oracle.
//!
//! [`explore`] runs a copy of the `rack_coherence` suite's cross-node
//! commit/pull race under the default 256 schedules, with the state oracle
//! checking cluster and state invariants after every event. This is the
//! heaviest host-time path of the test gate; virtual time is not the point.
//! The seed picks the pause between rounds and seeds the shuffled
//! schedules; the work per schedule stays the same.
//!
//! The untraced run installs [`StateOracle`] itself. The traced run
//! installs [`TimedOracle`], which does the same work but times the
//! snapshots and the checks separately.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_simcheck::explore::{explore, Check, ExploreOptions};
use molecule_simcheck::{check_snapshot, check_state, OracleConfig, StateHistory, StateOracle};
use molecule_state::{RegionSpec, StateError, StateLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpu_shim::{ShimCluster, ShimConfig, ShimStats};

use crate::{frac, ms, percentile, Outcome, Params, Probe, Row};

const PIPELINES: usize = 2;
const ROUNDS: u8 = 3;

/// 8 standard pages = 32 KiB, past the 16 KiB descriptor threshold: every
/// pull and remote commit parks its payload and ships a descriptor.
const PAGES: u64 = 8;
const SIZE: usize = (PAGES * 4096) as usize;

/// Host time the traced oracle spent per part.
#[derive(Debug, Default)]
struct OracleTiming {
    steps: u64,
    snapshot: Duration,
    check: Duration,
}

/// [`StateOracle`]'s per-step work — snapshot the shim cluster and the
/// state layer, then run [`check_snapshot`] and [`check_state`] — with the
/// two halves timed apart.
struct TimedOracle {
    cluster: ShimCluster,
    layer: StateLayer,
    violation: Rc<RefCell<Option<String>>>,
    history: Rc<RefCell<StateHistory>>,
}

impl TimedOracle {
    fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        layer: &StateLayer,
        timing: Rc<RefCell<OracleTiming>>,
    ) -> TimedOracle {
        let violation = Rc::new(RefCell::new(None));
        let history = Rc::new(RefCell::new(StateHistory::new()));
        let (c, l) = (cluster.clone(), layer.clone());
        let (sink, hist) = (Rc::clone(&violation), Rc::clone(&history));
        sim.set_step_observer(Box::new(move || {
            if sink.borrow().is_some() {
                return;
            }
            let t0 = Instant::now();
            let (snap, state) = (c.snapshot(), l.snapshot());
            let t1 = Instant::now();
            let outcome = check_snapshot(&snap, &OracleConfig::default())
                .and_then(|()| check_state(&state, &mut hist.borrow_mut()));
            let t2 = Instant::now();
            let mut t = timing.borrow_mut();
            t.steps += 1;
            t.snapshot += t1 - t0;
            t.check += t2 - t1;
            if let Err(v) = outcome {
                *sink.borrow_mut() = Some(v);
            }
        }));
        TimedOracle { cluster: cluster.clone(), layer: layer.clone(), violation, history }
    }

    /// [`StateOracle::verdict`] with an empty arena required.
    fn verdict(&self) -> Result<(), String> {
        if let Some(v) = self.violation.borrow().as_ref() {
            return Err(format!("[step] {v}"));
        }
        let snap = self.cluster.snapshot();
        check_snapshot(&snap, &OracleConfig::default()).map_err(|v| format!("[quiescence] {v}"))?;
        check_state(&self.layer.snapshot(), &mut self.history.borrow_mut())
            .map_err(|v| format!("[quiescence] {v}"))?;
        if snap.outstanding_segments != 0 {
            return Err(format!(
                "[quiescence] arena holds {} unresolved slot(s)",
                snap.outstanding_segments
            ));
        }
        Ok(())
    }
}

/// Remotes start concurrently with the master's `create_region` on the far
/// node; losing that race just means "not yet".
fn attach_retrying(
    ctx: &mut ProcCtx,
    layer: &StateLayer,
    pu: PuId,
    region: &str,
) -> Result<(), String> {
    for _ in 0..100 {
        match layer.attach(ctx, pu, region) {
            Ok(_) => return Ok(()),
            Err(StateError::UnknownRegion(_)) => ctx.sleep(SimDuration::from_micros(10)),
            Err(e) => return Err(format!("attach {region} on {pu}: {e}")),
        }
    }
    Err(format!("attach {region} on {pu}: region never appeared"))
}

/// Every committed version is a whole-region write of one stamp byte, so a
/// mixed read is a torn version that leaked across the fabric.
fn check_uniform(who: &str, bytes: &[u8]) -> Result<(), String> {
    if bytes.len() != SIZE {
        return Err(format!("{who}: short read ({} of {SIZE} bytes)", bytes.len()));
    }
    if bytes.iter().any(|&b| b != bytes[0]) {
        return Err(format!("{who}: torn committed version"));
    }
    Ok(())
}

/// Node 0's host commits whole-region versions while node 1's DPU pulls
/// and reads and node 1's host pushes its own commits; the master drops the
/// region once both remotes are done. Returns the check and the cluster the
/// trial runs on.
fn race(
    sim: &mut Simulation,
    gap: SimDuration,
    timing: Option<Rc<RefCell<OracleTiming>>>,
) -> (Check, ShimCluster) {
    let cluster = ShimCluster::deploy(Machine::rack(2, 1), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let verdict: Box<dyn Fn() -> Result<(), String>> = match timing {
        Some(t) => {
            let oracle = TimedOracle::install(sim, &cluster, &layer, t);
            Box::new(move || oracle.verdict())
        }
        None => {
            let oracle = StateOracle::install(sim, &cluster, &layer, OracleConfig::default());
            Box::new(move || oracle.verdict(true))
        }
    };
    let mut workers = Vec::new();
    for pipeline in 0..PIPELINES {
        let name = format!("fabric-{pipeline}");
        let (done_tx, done_rx) = sim.channel::<()>();

        let (l, region) = (layer.clone(), name.clone());
        workers.push(sim.spawn(&format!("master-{pipeline}"), move |ctx| {
            l.create_region(ctx, PuId(0), RegionSpec::new(&region, PAGES))
                .map_err(|e| format!("create {region}: {e}"))?;
            for round in 1..=ROUNDS {
                l.write(ctx, PuId(0), &region, 0, &[round; SIZE], None)
                    .map_err(|e| format!("master write {region}: {e}"))?;
                l.commit(ctx, PuId(0), &region).map_err(|e| format!("commit {region}: {e}"))?;
                ctx.sleep(gap);
            }
            for _ in 0..2 {
                done_rx.recv(ctx).map_err(|e| format!("master {region}: lost remote: {e}"))?;
            }
            l.drop_region(ctx, &region).map_err(|e| format!("drop {region}: {e}"))
        }));

        let (l, region, tx) = (layer.clone(), name.clone(), done_tx.clone());
        workers.push(sim.spawn(&format!("far-puller-{pipeline}"), move |ctx| {
            let run = |ctx: &mut ProcCtx| -> Result<(), String> {
                attach_retrying(ctx, &l, PuId(3), &region)?;
                for _ in 0..ROUNDS {
                    l.pull(ctx, PuId(3), &region).map_err(|e| format!("pull: {e}"))?;
                    let bytes = l
                        .read(ctx, PuId(3), &region, 0, SIZE as u64)
                        .map_err(|e| format!("read: {e}"))?;
                    check_uniform(&format!("far-puller-{region}"), &bytes)?;
                    ctx.sleep(gap);
                }
                Ok(())
            };
            let outcome = run(ctx);
            tx.send(()).ok();
            outcome
        }));

        let (l, region, tx) = (layer.clone(), name, done_tx);
        workers.push(sim.spawn(&format!("far-pusher-{pipeline}"), move |ctx| {
            let run = |ctx: &mut ProcCtx| -> Result<(), String> {
                attach_retrying(ctx, &l, PuId(2), &region)?;
                for round in 1..=ROUNDS {
                    l.write(ctx, PuId(2), &region, 0, &[0x80 + round; SIZE], None)
                        .map_err(|e| format!("remote write: {e}"))?;
                    l.commit(ctx, PuId(2), &region).map_err(|e| format!("remote commit: {e}"))?;
                    l.pull(ctx, PuId(2), &region).map_err(|e| format!("pull: {e}"))?;
                    let bytes = l
                        .read(ctx, PuId(2), &region, 0, SIZE as u64)
                        .map_err(|e| format!("read: {e}"))?;
                    check_uniform(&format!("far-pusher-{region}"), &bytes)?;
                    ctx.sleep(gap);
                }
                Ok(())
            };
            let outcome = run(ctx);
            tx.send(()).ok();
            outcome
        }));
    }

    let check: Check = Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for h in workers {
            h.take_result().ok_or("worker lost")??;
        }
        verdict()
    });
    (check, cluster)
}

/// Runs one exploration.
pub fn run(seed: u64, params: &Params, probe: &Probe) -> Outcome {
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0));
    let gap = SimDuration::from_micros(rng.gen_range(18..=22u64));
    let opts = ExploreOptions {
        trials: params.explore_trials,
        seed: crate::mix(seed, 1),
        ..ExploreOptions::default()
    };
    let timing = probe.trace.then(|| Rc::new(RefCell::new(OracleTiming::default())));
    // (events fired, virtual end time, shim counters) of every trial that
    // ran to the end.
    let trials: Rc<RefCell<Vec<(u64, SimTime, ShimStats)>>> = Rc::default();
    let t0 = Instant::now();
    let report = explore(&opts, |sim| {
        probe.arrived();
        let (check, cluster) = race(sim, gap, timing.clone());
        let trials = Rc::clone(&trials);
        Box::new(move |result| {
            if let Ok(r) = result {
                trials.borrow_mut().push((r.events_fired, r.end_time, cluster.stats()));
            }
            check(result)
        })
    });
    let host = t0.elapsed();

    let mut out = Outcome::default();
    let trials = trials.borrow();
    out.events = trials.iter().map(|t| t.0).sum();
    let violations = u64::from(report.violation.is_some());
    let run = report.trials_run as u64;
    out.rows.push(Row {
        name: "trials".into(),
        issued: run,
        completed: run - violations,
        shed: 0,
        rejected: 0,
        failed: violations,
        lost: 0,
    });
    if let Some(v) = &report.violation {
        out.errors.push(format!("explore violation: {} (SIMCHECK_REPLAY={})", v.message, v.replay));
    }
    let mut ends: Vec<SimDuration> =
        trials.iter().map(|t| t.1.saturating_duration_since(SimTime::ZERO)).collect();
    ends.sort();
    out.set("lat_p50_ms", ms(percentile(&ends, 0.50)));
    out.set("lat_p99_ms", ms(percentile(&ends, 0.99)));
    out.set("ok_frac", frac(run - violations, run));
    out.set("explore.schedules", report.distinct_schedules as f64);
    crate::set_shim(&mut out, |f| trials.iter().map(|t| f(&t.2)).sum());
    if let Some(t) = timing {
        let t = t.borrow();
        let steps = t.steps.max(1) as f64;
        out.set("oracle.steps", t.steps as f64);
        out.set("oracle.snapshot_host_us", t.snapshot.as_nanos() as f64 / 1e3 / steps);
        out.set("oracle.check_host_us", t.check.as_nanos() as f64 / 1e3 / steps);
        let oracle = (t.snapshot + t.check).as_secs_f64();
        out.set("oracle.host_frac", oracle / host.as_secs_f64().max(f64::MIN_POSITIVE));
    }
    out
}
