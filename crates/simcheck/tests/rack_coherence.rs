//! Rack-scale coherence under schedule exploration: the shared-state tier
//! stretched across the RDMA fabric of a two-node rack. Masters commit on
//! one node while replicas on the *other* node pull, read and push their
//! own commits, so every transfer rides a `Route::Fabric` leg — and, in
//! the faulty suite, an entire node is killed mid-stream by the chaos
//! plane's `kill-node` verb and its PUs swept one by one, the way the rack
//! front's dead-node sweep does. Whatever the interleaving, the
//! [`StateOracle`](molecule_simcheck::StateOracle) demands capability ownership stays a partition, FIFO
//! UUIDs reclaim exactly once, per-region version vectors stay monotone,
//! no two PUs expose divergent bytes for the same committed version, and
//! no arena slot survives quiescence.
//!
//! Two identical cross-node pipelines run side by side — same ops, same
//! charged costs — so they stay tied step for step, giving the explorer a
//! multi-way choice point at every instant. Regions are 8 pages (32 KiB),
//! past the 16 KiB zero-copy threshold: every pull and remote commit parks
//! its payload in the writer node's segment arena and ships a descriptor
//! across the fabric, so cross-node slot accounting is exercised on every
//! transfer.

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::pu::{NodeId, PuId};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_simcheck::explore::{explore, explore_faulty, Check, ExploreOptions};
use molecule_simcheck::OracleConfig;
use molecule_state::{RegionSpec, StateError, StateLayer};
use xpu_shim::{ShimCluster, ShimConfig};

mod common;
use common::Watch;

/// 8 standard pages = 32 KiB — descriptor-eligible on every transfer.
const PAGES: u64 = 8;
const SIZE: usize = (PAGES * 4096) as usize;
const PIPELINES: usize = 2;
const ROUNDS: u8 = 3;

/// Errors that are legal transients while the mastering node is dead, the
/// region is being re-mastered, or the scenario has already dropped it.
/// Anything else (out-of-bounds, OS-level corruption) is a real violation.
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
/// master's `create_region` on the far node, so losing that race
/// ([`UnknownRegion`]) just means "not yet".
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

/// Every committed version is a whole-region write of one stamp byte, so
/// any read of a committed version must be uniform — a mixed read is a
/// torn or half-merged version that leaked across the fabric.
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

/// Races, per region: the node-0 host committing whole-region versions
/// while node 1's DPU pulls and reads and node 1's host pushes its own
/// remote commits — every leg a fabric crossing. The master drops the
/// region once both remotes are done, so quiescence can demand an empty
/// arena on *both* nodes.
fn cross_node_race_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let machine = Machine::rack(2, 1);
    let cluster = ShimCluster::deploy(machine, ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let oracle = watch.state(sim, &cluster, &layer, OracleConfig::default());

    let mut workers = Vec::new();
    for pipeline in 0..PIPELINES {
        let name = format!("fabric-{pipeline}");
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
        workers.push(sim.spawn(&format!("far-puller-{pipeline}"), move |ctx| {
            let run = |ctx: &mut ProcCtx| -> Result<(), String> {
                attach_retrying(ctx, &l, PuId(3), &region)?;
                for _ in 0..ROUNDS {
                    l.pull(ctx, PuId(3), &region).map_err(|e| format!("pull: {e}"))?;
                    let bytes = l
                        .read(ctx, PuId(3), &region, 0, SIZE as u64)
                        .map_err(|e| format!("read: {e}"))?;
                    check_uniform(&format!("far-puller-{region}"), &bytes)?;
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
                    ctx.sleep(SimDuration::from_micros(20));
                }
                Ok(())
            };
            let outcome = run(ctx);
            tx.send(()).ok();
            outcome
        }));
    }

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for h in workers {
            h.take_result().ok_or("worker lost")??;
        }
        // Every region dropped, every descriptor resolved: demand empty
        // arenas on both nodes.
        oracle.verdict(true)
    })
}

#[test]
fn cross_node_commit_pull_races_stay_coherent() {
    let report =
        explore(&ExploreOptions::default(), |sim| cross_node_race_scenario(sim, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "want >= 200 distinct schedules, got {}",
        report.distinct_schedules
    );
}

/// The faulty suite: node 1 — mastering both regions — is killed whole by
/// the chaos plane's `kill-node` verb mid-stream. A supervisor sweeps the
/// dead node's PUs one by one (reclaim + re-master), the way the rack
/// front's dead-node sweep does; racing node-0 writers and readers ride
/// through the crash on legal transients. The oracle demands the version
/// vector survives re-mastering monotonically and nothing leaks.
fn node_kill_scenario(sim: &mut Simulation, plan: &FaultPlan, watch: Watch) -> Check {
    let machine = Machine::rack(2, 1);
    let cluster = ShimCluster::deploy(machine.clone(), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let oracle = watch.state(sim, &cluster, &layer, OracleConfig::default());
    molecule_chaos::spawn_injector(sim, &machine, plan);

    let mut workers = Vec::new();
    for pipeline in 0..PIPELINES {
        let name = format!("rackwal-{pipeline}");

        let l = layer.clone();
        let cl = cluster.clone();
        let m = machine.clone();
        let region = name.clone();
        workers.push(sim.spawn(&format!("supervisor-{pipeline}"), move |ctx| {
            // Master on the doomed node's DPU; survivors attach from node 0.
            l.create_region(ctx, PuId(3), RegionSpec::new(&region, PAGES))
                .map_err(|e| format!("create {region}: {e}"))?;
            // Past the node kill (300us): sweep every PU of the dead node,
            // then re-master its regions onto the freshest survivor.
            ctx.sleep(SimDuration::from_micros(500));
            for pu in m.node_pus(NodeId(1)) {
                cl.reclaim_pu(ctx, pu);
                l.handle_pu_death(ctx, pu);
            }
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
                    l.pull(ctx, PuId(1), &region)
                        .and_then(|_| l.read(ctx, PuId(1), &region, 0, SIZE as u64))
                } else {
                    l.attach(ctx, PuId(1), &region).map(|_| {
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
        // Regions were dropped (or died with node 1 and were reclaimed);
        // either way no capability or arena slot may survive.
        oracle.verdict(true)
    })
}

/// Node 1 dies whole at 300 us, mid-stream.
fn kill_plan() -> FaultPlan {
    FaultPlan::new(0x7ac4_5eed)
        .with(SimTime::ZERO + SimDuration::from_micros(300), FaultAction::KillNode(NodeId(1)))
}

#[test]
fn node_kill_sweep_remaster_stays_coherent() {
    let report = explore_faulty(&ExploreOptions::default(), kill_plan(), |sim, plan| {
        node_kill_scenario(sim, plan, Watch::Gated)
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
    common::assert_gating_sound(cross_node_race_scenario);
    let plan = kill_plan();
    common::assert_gating_sound(|sim, watch| node_kill_scenario(sim, &plan, watch));
}
