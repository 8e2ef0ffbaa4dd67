//! Shared-state coherence under schedule exploration: masters commit new
//! versions while remote replicas pull, read and push their own commits,
//! and — in the faulty suite — the mastering DPU is killed mid-stream and
//! the region re-mastered onto a survivor. Whatever the interleaving, the
//! [`StateOracle`] demands per-region version vectors stay monotone, no
//! two PUs ever expose divergent bytes for the same committed version, and
//! region capabilities and arena slots never leak across reclaim.
//!
//! Two identical region pipelines run side by side — same ops, same
//! charged costs — so they stay tied step for step, giving the explorer a
//! multi-way choice point at every instant. Regions are 8 pages (32 KiB),
//! well past the 16 KiB zero-copy threshold: every pull and remote commit
//! parks its payload in the segment arena and ships a descriptor, so slot
//! accounting is exercised on every transfer.

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_simcheck::explore::{explore, explore_faulty, Check, ExploreOptions};
use molecule_simcheck::{OracleConfig, StateOracle};
use molecule_state::{RegionSpec, StateError, StateLayer};
use xpu_shim::{ShimCluster, ShimConfig};

mod common;
use common::Watch;

/// 8 standard pages = 32 KiB — descriptor-eligible on every transfer.
const PAGES: u64 = 8;
const SIZE: usize = (PAGES * 4096) as usize;
const PIPELINES: usize = 2;
const ROUNDS: u8 = 3;

/// Errors that are legal transients while the master is dead, the region
/// is being re-mastered, or the scenario has already dropped it. Anything
/// else (out-of-bounds, OS-level corruption) is a real violation.
fn tolerable(err: &StateError) -> bool {
    matches!(
        err,
        StateError::Remastered(_)
            | StateError::Shim(_)
            | StateError::UnknownRegion(_)
            | StateError::NotAttached(_, _)
    )
}

/// Attaches with a bounded retry: remotes start concurrently with the
/// master's `create_region`, so losing that race ([`UnknownRegion`]) just
/// means "not yet".
///
/// [`UnknownRegion`]: StateError::UnknownRegion
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

/// Every committed version in these scenarios is a whole-region write of a
/// single stamp byte, so any read of a committed version must be uniform —
/// a mixed read is a torn or half-merged version.
fn check_uniform(who: &str, bytes: &[u8]) -> Result<(), String> {
    if bytes.len() != SIZE {
        return Err(format!("{who}: short read ({} of {SIZE} bytes)", bytes.len()));
    }
    let stamp = bytes[0];
    if bytes.iter().any(|&b| b != stamp) {
        return Err(format!("{who}: torn committed version (stamp {stamp:#x} not uniform)"));
    }
    Ok(())
}

/// Races, per region: the host master committing whole-region versions, a
/// DPU replica pulling and reading, and a second DPU replica pushing its
/// own remote commits. The master drops the region once both remotes are
/// done, so quiescence can demand an empty arena. Beside each region, a
/// racer compare-and-swaps a counter word in a region of its own on the
/// same layer, so every `cas` publishes a version under the oracle while
/// the commits and pulls race.
fn commit_pull_race_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let machine = Machine::paper_cpu_dpu_server();
    let cluster = ShimCluster::deploy(machine, ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let oracle = watch.state(sim, &cluster, &layer, OracleConfig::default());

    let mut workers = Vec::new();
    for pipeline in 0..PIPELINES {
        let name = format!("grid-{pipeline}");
        let (done_tx, done_rx) = sim.channel::<()>();

        let l = layer.clone();
        let region = name.clone();
        workers.push(sim.spawn(&format!("master-{pipeline}"), move |ctx| {
            l.create_region(ctx, PuId(0), RegionSpec::new(&region, PAGES))
                .map_err(|e| format!("create {region}: {e}"))?;
            for round in 1..=ROUNDS {
                l.write(ctx, PuId(0), &region, 0, &[round; SIZE], None)
                    .map_err(|e| format!("master write {region}: {e}"))?;
                l.commit(ctx, PuId(0), &region)
                    .map_err(|e| format!("master commit {region}: {e}"))?;
                ctx.sleep(SimDuration::from_micros(20));
            }
            for _ in 0..2 {
                done_rx.recv(ctx).map_err(|e| format!("master {region}: lost remote: {e}"))?;
            }
            l.drop_region(ctx, &region).map_err(|e| format!("drop {region}: {e}"))?;
            Ok::<(), String>(())
        }));

        let l = layer.clone();
        let region = name.clone();
        let tx = done_tx.clone();
        workers.push(sim.spawn(&format!("puller-{pipeline}"), move |ctx| {
            let run = |ctx: &mut ProcCtx| -> Result<(), String> {
                attach_retrying(ctx, &l, PuId(1), &region)?;
                for _ in 0..ROUNDS {
                    l.pull(ctx, PuId(1), &region).map_err(|e| format!("pull: {e}"))?;
                    let bytes = l
                        .read(ctx, PuId(1), &region, 0, SIZE as u64)
                        .map_err(|e| format!("read: {e}"))?;
                    check_uniform(&format!("puller-{region}"), &bytes)?;
                    ctx.sleep(SimDuration::from_micros(20));
                }
                Ok(())
            };
            let outcome = run(ctx);
            tx.send(()).ok();
            outcome
        }));

        let l = layer.clone();
        let region = name.clone();
        let tx = done_tx;
        workers.push(sim.spawn(&format!("pusher-{pipeline}"), move |ctx| {
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
                    check_uniform(&format!("pusher-{region}"), &bytes)?;
                    ctx.sleep(SimDuration::from_micros(20));
                }
                Ok(())
            };
            let outcome = run(ctx);
            tx.send(()).ok();
            outcome
        }));

        let l = layer.clone();
        let counter = format!("counter-{pipeline}");
        workers.push(sim.spawn(&format!("racer-{pipeline}"), move |ctx| {
            let err = |e: StateError| format!("racer {counter}: {e}");
            l.create_region(ctx, PuId(1), RegionSpec::new(&counter, 1)).map_err(err)?;
            l.attach(ctx, PuId(2), &counter).map_err(err)?;
            for n in 0..u64::from(ROUNDS) {
                // The only writer of its counter: every swap must land, and
                // a pull must then read the value it swapped in.
                if !l.cas(ctx, PuId(2), &counter, 0, n, n + 1).map_err(err)? {
                    return Err(format!("racer {counter}: lone cas {n} -> {} failed", n + 1));
                }
                l.pull(ctx, PuId(2), &counter).map_err(err)?;
                let word = l.read(ctx, PuId(2), &counter, 0, 8).map_err(err)?;
                let seen = u64::from_le_bytes(word[..8].try_into().expect("8 bytes"));
                if seen != n + 1 {
                    return Err(format!("racer {counter}: read {seen} after cas to {}", n + 1));
                }
                ctx.sleep(SimDuration::from_micros(20));
            }
            l.drop_region(ctx, &counter).map_err(err)
        }));
    }

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for h in workers {
            h.take_result().ok_or("worker lost")??;
        }
        // Every region dropped, every FIFO drained: demand an empty arena.
        oracle.verdict(true)
    })
}

#[test]
fn commit_pull_races_stay_coherent() {
    let report =
        explore(&ExploreOptions::default(), |sim| commit_pull_race_scenario(sim, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "want >= 200 distinct schedules, got {}",
        report.distinct_schedules
    );
}

/// The faulty suite: the DPU mastering both regions is killed mid-stream.
/// A supervisor reclaims the dead PU's control-plane state and re-masters
/// its regions onto the freshest survivor; racing writers and pullers ride
/// through the crash on legal transients. The oracle demands the version
/// vector survives re-mastering monotonically and nothing leaks.
fn owner_kill_scenario(sim: &mut Simulation, plan: &FaultPlan, watch: Watch) -> Check {
    let machine = Machine::paper_cpu_dpu_server();
    let cluster = ShimCluster::deploy(machine.clone(), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let oracle = watch.state(sim, &cluster, &layer, OracleConfig::default());
    molecule_chaos::spawn_injector(sim, &machine, plan);

    let mut workers = Vec::new();
    for pipeline in 0..PIPELINES {
        let name = format!("wal-{pipeline}");

        let l = layer.clone();
        let cl = cluster.clone();
        let region = name.clone();
        workers.push(sim.spawn(&format!("supervisor-{pipeline}"), move |ctx| {
            // Master on the doomed DPU; survivors attach from the workers.
            l.create_region(ctx, PuId(1), RegionSpec::new(&region, PAGES))
                .map_err(|e| format!("create {region}: {e}"))?;
            // Past the kill (300us): sweep the dead PU exactly once, then
            // re-master its regions. Supervisor 0 runs the sweep; the other
            // would double-reclaim, which reclaim_pu must tolerate anyway.
            ctx.sleep(SimDuration::from_micros(500));
            cl.reclaim_pu(ctx, PuId(1));
            l.handle_pu_death(ctx, PuId(1));
            // Let the stragglers run out, then tear the region down.
            ctx.sleep(SimDuration::from_millis(4));
            match l.drop_region(ctx, &region) {
                Ok(()) => Ok(()),
                Err(ref e) if tolerable(e) => Ok(()), // lost with its last replica
                Err(e) => Err(format!("drop {region}: {e}")),
            }
        }));

        let l = layer.clone();
        let region = name.clone();
        workers.push(sim.spawn(&format!("writer-{pipeline}"), move |ctx| {
            let mut attached = false;
            for round in 1..=6u8 {
                let result = if attached {
                    l.write(ctx, PuId(0), &region, 0, &[round; SIZE], None)
                        .and_then(|()| l.commit(ctx, PuId(0), &region))
                        .map(|_| ())
                } else {
                    l.attach(ctx, PuId(0), &region).map(|_| attached = true)
                };
                match result {
                    Ok(()) => {}
                    Err(ref e) if tolerable(e) => {}
                    Err(e) => return Err(format!("writer {region}: {e}")),
                }
                ctx.sleep(SimDuration::from_micros(120));
            }
            Ok::<(), String>(())
        }));

        let l = layer.clone();
        let region = name.clone();
        workers.push(sim.spawn(&format!("reader-{pipeline}"), move |ctx| {
            let mut attached = false;
            for _ in 0..6 {
                let result = if attached {
                    l.pull(ctx, PuId(2), &region)
                        .and_then(|_| l.read(ctx, PuId(2), &region, 0, SIZE as u64))
                } else {
                    l.attach(ctx, PuId(2), &region).map(|_| {
                        attached = true;
                        Vec::new()
                    })
                };
                match result {
                    Ok(bytes) if !bytes.is_empty() => {
                        check_uniform(&format!("reader-{region}"), &bytes)?;
                    }
                    Ok(_) => {}
                    Err(ref e) if tolerable(e) => {}
                    Err(e) => return Err(format!("reader {region}: {e}")),
                }
                ctx.sleep(SimDuration::from_micros(120));
            }
            Ok::<(), String>(())
        }));
    }

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for h in workers {
            h.take_result().ok_or("worker lost")??;
        }
        // Regions are dropped (or died with the DPU and were reclaimed);
        // either way no slot may survive.
        oracle.verdict(true)
    })
}

/// The mastering DPU dies at 300 us, mid-stream.
fn kill_plan() -> FaultPlan {
    FaultPlan::new(0x5eed_dead)
        .with(SimTime::ZERO + SimDuration::from_micros(300), FaultAction::KillPu(PuId(1)))
}

#[test]
fn owner_kill_reclaim_remaster_stays_coherent() {
    let report = explore_faulty(&ExploreOptions::default(), kill_plan(), |sim, plan| {
        owner_kill_scenario(sim, plan, Watch::Gated)
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "want >= 200 distinct schedules, got {}",
        report.distinct_schedules
    );
}

/// Epoch gating skips only steps that changed nothing the oracle reads,
/// and agrees with a full check on every verdict.
#[test]
fn epoch_gating_skips_only_unchanged_steps() {
    common::assert_gating_sound(commit_pull_race_scenario);
    let plan = kill_plan();
    common::assert_gating_sound(|sim, watch| owner_kill_scenario(sim, &plan, watch));
}

/// The state layer memoizes each replica's digest, and that must weaken
/// nothing: flipping one byte of a replica's committed cache, with no
/// version bump, is caught on the very next step as divergent pages for
/// the committed version the oracle has already pinned.
#[test]
fn flipped_committed_byte_is_reported_as_divergent_pages() {
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let mut sim = Simulation::new();
    let oracle = StateOracle::install(&mut sim, &cluster, &layer, OracleConfig::default());
    let l = layer.clone();
    let h = sim.spawn("corrupter", move |ctx| -> Result<(), StateError> {
        l.create_region(ctx, PuId(0), RegionSpec::new("grid", PAGES))?;
        l.attach(ctx, PuId(1), "grid")?;
        l.write(ctx, PuId(0), "grid", 0, &[7; SIZE], None)?;
        l.commit(ctx, PuId(0), "grid")?;
        l.pull(ctx, PuId(1), "grid")?;
        // Both replicas now hold version 1, whose digest the oracle pinned.
        ctx.sleep(SimDuration::from_micros(20));
        l.flip_committed_byte_for_test(PuId(1), "grid", 4096)?;
        ctx.sleep(SimDuration::from_micros(20));
        Ok(())
    });
    sim.run().unwrap();
    h.take_result().unwrap().unwrap();
    let err = oracle.verdict(false).unwrap_err();
    assert!(
        err.starts_with("[step]") && err.contains("divergent pages for committed version 1"),
        "{err}"
    );
}
