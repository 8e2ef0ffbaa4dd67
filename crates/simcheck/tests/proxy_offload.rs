//! DPU I/O offload under schedule exploration: host clients stream I/O
//! bodies through the [`ProxyPool`]'s DPU-resident proxies while the
//! explorer permutes every interleaving — and, in the faulty suite, kills
//! one of the two DPUs mid-stream. Whatever the schedule, the exactly-once
//! ledger must balance: every issued request is completed xor reclaimed,
//! never both (`double_faults == 0`), never neither (`issued ==
//! completed + reclaimed`), and the client-observed outcomes must agree
//! with the ledger count for count.

use bytes::Bytes;
use hetsim::engine::Simulation;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_core::proxy::{ProxyError, ProxyPool, ProxyPoolConfig, ProxyStats};
use molecule_simcheck::explore::{explore, explore_faulty, Check, ExploreOptions};
use molecule_simcheck::OracleConfig;
use xpu_shim::{ShimCluster, ShimConfig};

mod common;
use common::{Oracle, Watch};

const CLIENTS: u8 = 3;
const OFFLOADS_PER_CLIENT: usize = 10;

/// What one run's driver hands the check closure.
struct Outcome {
    stats: ProxyStats,
    oks: u64,
    /// Errors that *issued* a request first (write failure or reply
    /// timeout) — `NoProxy` never issues and is counted separately.
    issued_errs: u64,
    no_proxy: u64,
    live_proxies: usize,
}

/// The ledger/client agreement every schedule must uphold, kills or not.
fn check_exactly_once(out: &Outcome) -> Result<(), String> {
    let s = out.stats;
    if s.double_faults != 0 {
        return Err(format!("{} requests both completed and reclaimed", s.double_faults));
    }
    if s.issued != s.completed + s.reclaimed {
        return Err(format!(
            "ledger leak: issued {} != completed {} + reclaimed {}",
            s.issued, s.completed, s.reclaimed
        ));
    }
    if s.completed != out.oks {
        return Err(format!("{} completions for {} client Oks", s.completed, out.oks));
    }
    if s.reclaimed != out.issued_errs {
        return Err(format!("{} reclaims for {} client errors", s.reclaimed, out.issued_errs));
    }
    if s.issued != out.oks + out.issued_errs {
        return Err(format!(
            "issued {} != client outcomes {}",
            s.issued,
            out.oks + out.issued_errs
        ));
    }
    Ok(())
}

/// Shared scenario body: a driver deploys the pool, fans out `CLIENTS`
/// host-side client processes each issuing a paced stream of mixed
/// inline/descriptor offloads, joins them, then (optionally) sweeps the
/// killed DPU and always shuts the proxies down so the run quiesces.
fn run_offload_fleet(
    sim: &mut Simulation,
    machine: Machine,
    reclaim_dead: Option<PuId>,
    watch: Watch,
) -> (hetsim::engine::ProcHandle<Outcome>, Oracle) {
    let cluster = ShimCluster::deploy(machine, ShimConfig::default());
    let oracle = watch.cluster(sim, &cluster, OracleConfig::default());

    let cl = cluster.clone();
    let driver = sim.spawn("offload-driver", move |ctx| {
        let host = cl.machine().host_cpu();
        let config = ProxyPoolConfig {
            proxies_per_dpu: 2,
            window: 2,
            device_service: SimDuration::from_micros(3),
            reply_timeout: SimDuration::from_millis(2),
        };
        let pool = ProxyPool::deploy(ctx, &cl, config).expect("deploy pool");
        assert_eq!(pool.proxy_count(), 2 * cl.machine().pus_of_kind(PuKind::Dpu).len());

        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let pool = pool.clone();
            handles.push(ctx.spawn(&format!("io-client-{c}"), move |cctx| {
                let mut client = pool.client(cctx, host).expect("client setup");
                let (mut oks, mut issued_errs, mut no_proxy) = (0u64, 0u64, 0u64);
                for i in 0..OFFLOADS_PER_CLIENT {
                    // Mix inline and descriptor-eligible bodies, paced so
                    // the stream straddles the faulty suite's kill point.
                    let size = if i % 2 == 0 { 512 } else { 64 * 1024 };
                    match pool.offload(cctx, &mut client, Bytes::from(vec![c; size])) {
                        Ok(reply) => {
                            assert_eq!(reply.bytes_done, size as u64);
                            oks += 1;
                        }
                        Err(ProxyError::NoProxy) => no_proxy += 1,
                        Err(ProxyError::Timeout) | Err(ProxyError::Shim(_)) => issued_errs += 1,
                    }
                    cctx.sleep(SimDuration::from_micros(40));
                }
                (oks, issued_errs, no_proxy)
            }));
        }
        let (mut oks, mut issued_errs, mut no_proxy) = (0u64, 0u64, 0u64);
        for h in &handles {
            h.join(ctx);
            let (o, e, n) = h.take_result().expect("client finished");
            oks += o;
            issued_errs += e;
            no_proxy += n;
        }
        // In the faulty suite the control plane sweeps the dead DPU: that
        // closes its FIFOs, which is what unblocks its proxy processes.
        if let Some(dead) = reclaim_dead {
            cl.reclaim_pu(ctx, dead);
        }
        pool.shutdown(ctx);
        Outcome {
            stats: pool.stats(),
            oks,
            issued_errs,
            no_proxy,
            live_proxies: pool.live_proxies(),
        }
    });
    (driver, oracle)
}

/// Fault-free: every offload must succeed, nothing may be reclaimed.
fn offload_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let (driver, oracle) = run_offload_fleet(sim, Machine::paper_cpu_dpu_server(), None, watch);
    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        let out = driver.take_result().expect("driver finished");
        check_exactly_once(&out)?;
        let total = u64::from(CLIENTS) * OFFLOADS_PER_CLIENT as u64;
        if out.oks != total || out.issued_errs != 0 || out.no_proxy != 0 {
            return Err(format!(
                "fault-free losses: {} ok / {} err / {} no-proxy of {total}",
                out.oks, out.issued_errs, out.no_proxy
            ));
        }
        oracle.verdict(true)
    })
}

/// DPU-kill: one of the two DPUs dies mid-stream. Requests routed there
/// fail over; each failed request is reclaimed exactly once and the
/// survivor DPU's proxies keep serving.
fn dpu_kill_scenario(sim: &mut Simulation, plan: &FaultPlan, watch: Watch) -> Check {
    // The plan kills PuId(1); the shared body sweeps it after the clients
    // drain so the run quiesces.
    let machine = Machine::paper_cpu_dpu_server();
    molecule_chaos::spawn_injector(sim, &machine, plan);
    let (driver, oracle) = run_offload_fleet(sim, machine, Some(PuId(1)), watch);
    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        let out = driver.take_result().expect("driver finished");
        check_exactly_once(&out)?;
        if out.no_proxy != 0 {
            return Err(format!("{} NoProxy errors with a live survivor DPU", out.no_proxy));
        }
        if out.live_proxies == 0 {
            return Err("every proxy left rotation after a single-DPU kill".into());
        }
        oracle.verdict(true)
    })
}

#[test]
fn offload_ledger_balances_on_every_schedule() {
    let opts = ExploreOptions { trials: 256, seed: 0x0ff1_0ad0, ..ExploreOptions::default() };
    let report = explore(&opts, |sim| offload_scenario(sim, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}

#[test]
fn dpu_kill_reclaims_exactly_once_on_every_schedule() {
    let opts = ExploreOptions { trials: 256, seed: 0x00de_add9, ..ExploreOptions::default() };
    let report =
        explore_faulty(&opts, kill_plan(), |sim, plan| dpu_kill_scenario(sim, plan, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}

/// Pool deployment alone charges ~72 ms of virtual time (xspawn boots four
/// proxies), and the three client streams then run from ~72.5 ms to
/// ~73.7 ms — so the kill lands at 73 ms, mid-stream on every schedule.
fn kill_plan() -> FaultPlan {
    FaultPlan::new(0x00de_add9)
        .with(SimTime::ZERO + SimDuration::from_micros(73_000), FaultAction::KillPu(PuId(1)))
}

/// Epoch gating skips only steps that changed nothing the oracle reads,
/// and agrees with a full check on every verdict.
#[test]
fn epoch_gating_skips_only_unchanged_steps() {
    common::assert_gating_sound(offload_scenario);
    let plan = kill_plan();
    common::assert_gating_sound(|sim, watch| dpu_kill_scenario(sim, &plan, watch));
}
