//! Schedule exploration of the tenant capability domains: per-tenant
//! pipelines spawn children and stream messages while adversaries from a
//! different tenant hammer cross-tenant grants and connects — which must
//! fail on every interleaving. The per-step oracle additionally demands
//! that no capability, FIFO or region ever crosses a tenant boundary,
//! with and without a PU-kill/reclaim fault plan racing the pipelines.

use bytes::Bytes;
use hetsim::engine::Simulation;
use hetsim::pu::PuId;
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_simcheck::explore::{explore_faulty, Check, ExploreOptions};
use molecule_simcheck::OracleConfig;
use xpu_shim::{Perm, ShimCluster, ShimConfig, ShimError, TenantId};

mod common;
use common::Watch;

const TENANTS: u32 = 3;
const MESSAGES: u8 = 4;

/// Per tenant: a host pipeline (FIFO + spawned DPU writer child) and an
/// adversary attached under the *next* tenant's domain that keeps trying
/// to break in. Identical pipelines stay in lockstep, handing the explorer
/// a multi-way tie at every instant.
fn tenant_scenario(sim: &mut Simulation, plan: &FaultPlan, watch: Watch) -> Check {
    let machine = Machine::paper_cpu_dpu_server();
    let cluster = ShimCluster::deploy(machine.clone(), ShimConfig::default());
    let oracle = watch.cluster(sim, &cluster, OracleConfig::default());
    molecule_chaos::spawn_injector(sim, &machine, plan);
    let faulty = !plan.events().is_empty();

    let mut workers = Vec::new();
    for t in 1..=TENANTS {
        let tenant = TenantId(t);
        let cl = cluster.clone();
        workers.push(sim.spawn(&format!("pipeline-t{t}"), move |ctx| {
            let cpu = cl.shim_on(PuId(0)).unwrap();
            let me = cpu.attach_process_as(tenant);
            let fifo = cpu
                .xfifo_init(ctx, me, format!("t{t}-stream"))
                .map_err(|e| format!("t{t} init: {e}"))?;
            let uuid = fifo.uuid().clone();
            let capv = [(fifo.obj(), Perm::WRITE)];
            let child_cl = cl.clone();
            // The child may land on a PU the fault plan kills mid-stream:
            // clean shim errors are legal, a cross-tenant leak is not (the
            // oracle decides, after every engine step).
            let spawned = cpu.xspawn(ctx, me, PuId(1), "writer", &capv, move |cctx, pid| {
                if let Ok(dpu) = child_cl.shim_on(PuId(1)) {
                    if let Ok(w) = dpu.xfifo_connect(cctx, pid, &uuid) {
                        for seq in 0..MESSAGES {
                            if w.write(cctx, Bytes::from(vec![seq; 32])).is_err() {
                                break;
                            }
                            cctx.sleep(SimDuration::from_micros(3));
                        }
                    }
                }
            });
            let _ = spawned;
            let mut got = 0u8;
            while let Ok(msg) = fifo.read_timeout(ctx, SimDuration::from_millis(2)) {
                if msg.iter().any(|&b| b != msg[0]) {
                    return Err(format!("t{t}: corrupt delivery"));
                }
                got += 1;
                if got == MESSAGES {
                    break;
                }
            }
            Ok(())
        }));

        // The adversary lives in the *next* tenant's domain and must never
        // get a handle on this tenant's FIFO — not by being granted one,
        // not by granting itself one, not by connecting.
        let cl = cluster.clone();
        let intruder = TenantId(t % TENANTS + 1);
        workers.push(sim.spawn(&format!("adversary-t{t}"), move |ctx| {
            let cpu = cl.shim_on(PuId(0)).unwrap();
            let victim = cpu.attach_process_as(tenant);
            let mallory = cpu.attach_process_as(intruder);
            let fifo = cpu
                .xfifo_init(ctx, victim, format!("t{t}-secret"))
                .map_err(|e| format!("t{t} secret init: {e}"))?;
            for round in 0..4 {
                // Even the owner cannot hand a capability across tenants —
                // the denial is typed, not a generic permission error.
                match cpu.grant_cap(ctx, victim, mallory, fifo.obj(), Perm::READ) {
                    Err(ShimError::TenantDenied { .. }) => {}
                    Ok(()) => return Err(format!("t{t} round {round}: cross-tenant grant stuck")),
                    Err(e) => {
                        return Err(format!("t{t} round {round}: want TenantDenied, got {e}"))
                    }
                }
                // Connecting without a capability must bounce too.
                if cpu.xfifo_connect(ctx, mallory, fifo.uuid()).is_ok() {
                    return Err(format!("t{t} round {round}: capless cross-tenant connect"));
                }
                ctx.sleep(SimDuration::from_micros(2));
            }
            let _ = fifo.close(ctx);
            Ok(())
        }));
    }

    // Under a kill plan, sweep the dead PU's control-plane state exactly
    // once the crash has landed — the reclaim must stay tenant-scoped.
    if faulty {
        let cl = cluster.clone();
        sim.spawn("supervisor", move |ctx| {
            ctx.sleep(SimDuration::from_micros(500));
            cl.reclaim_pu(ctx, PuId(1));
        });
    }

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for worker in workers {
            worker.take_result().expect("worker finished")?;
        }
        oracle.verdict(false)
    })
}

#[test]
fn tenant_domains_hold_across_schedules() {
    let opts = ExploreOptions { trials: 256, seed: 47, ..ExploreOptions::default() };
    let report = explore_faulty(&opts, FaultPlan::new(47), |sim, plan| {
        tenant_scenario(sim, plan, Watch::Gated)
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}

#[test]
fn tenant_domains_hold_across_kill_and_reclaim() {
    let opts = ExploreOptions { trials: 256, seed: 53, ..ExploreOptions::default() };
    let report =
        explore_faulty(&opts, kill_plan(), |sim, plan| tenant_scenario(sim, plan, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}

/// The DPU dies at 300 us, mid-pipeline.
fn kill_plan() -> FaultPlan {
    FaultPlan::new(53)
        .with(SimTime::ZERO + SimDuration::from_micros(300), FaultAction::KillPu(PuId(1)))
}

/// Epoch gating skips only steps that changed nothing the oracle reads,
/// and agrees with a full check on every verdict.
#[test]
fn epoch_gating_skips_only_unchanged_steps() {
    let plan = kill_plan();
    common::assert_gating_sound(|sim, watch| tenant_scenario(sim, &plan, watch));
}
