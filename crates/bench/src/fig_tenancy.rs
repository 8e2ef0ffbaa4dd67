//! Multi-tenant antagonist benchmark (beyond the paper's figures): one
//! tenant floods the paper's CPU+DPU server at ten times its fair share
//! while three victim tenants run a latency-classed interactive function
//! at a modest steady rate.
//!
//! Three paired runs, same arrival seeds throughout:
//!
//! * **unloaded** — victims only, tenancy on: the victims' baseline p99;
//! * **tenancy** — victims + antagonist under weighted-fair queueing and
//!   the antagonist's admission rate limit: the victims' p99 and loss must
//!   hold (p99 within [`P99_HEADROOM`]× of unloaded, loss zero), and the
//!   antagonist is confined to its weight share of delivered service;
//! * **no-tenancy** — the identical offered load with every request
//!   submitted as the system tenant on an unlimited registry: the
//!   baseline-collapse column, showing what the flood does to the victims
//!   without isolation.
//!
//! `BENCH_tenancy.json` carries one row per victim/antagonist with the
//! cross-run ratios precomputed, so the CI gates are single-column checks.

use std::collections::BTreeMap;
use std::sync::Arc;

use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_sched::{
    JobOutcome, RateLimit, SchedConfig, SchedGateway, SubmitOpts, TenantId, TenantLedger,
    TenantRegistry, TenantSpec,
};
use vsandbox::spec::FuncId;
use workloads::generator::{drive_open_loop, open_loop_arrivals};
use workloads::tenant_mix;

/// The antagonist tenant.
pub const ANTAGONIST: u32 = 1;

/// The victim tenants.
pub const VICTIMS: [u32; 3] = [2, 3, 4];

/// Each victim's steady offered load, requests per virtual second.
pub const VICTIM_RPS: f64 = 20.0;

/// What the paper's CPU+DPU server can drain of the antagonist's bulk
/// function: 8 CPU tokens at ~12 ms a job plus DPU backfill, roughly
/// 800 requests per second.
pub const SERVER_BULK_CAPACITY_RPS: f64 = 800.0;

/// The antagonist's flood: ten times the machine's bulk drain capacity,
/// so the no-tenancy baseline is driven far past saturation.
pub const FLOOD_RPS: f64 = 10.0 * SERVER_BULK_CAPACITY_RPS;

/// The antagonist's admission rate limit under tenancy: its fair share
/// plus 25% headroom — far below the flood, low enough that the admitted
/// mix stays inside the machine's capacity (which is what the limit is
/// for: an admitted backlog would inflate every tenant's wait estimates).
pub const ANTAGONIST_LIMIT_RPS: f64 = 1.25 * VICTIM_RPS;

/// Open-loop duration per run, simulated seconds.
pub const RUN_SECONDS: f64 = 4.0;

/// Arrival seed base; tenant `t` draws from `SEED + t`, so the victims'
/// arrival streams are identical across the three runs.
pub const SEED: u64 = 23;

/// Victim p99 must stay within this factor of the unloaded baseline.
pub const P99_HEADROOM: f64 = 1.2;

/// Which of the three runs a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Victims only, tenancy on.
    Unloaded,
    /// Victims + antagonist, tenancy on.
    Tenancy,
    /// Victims + antagonist, everything submitted as the system tenant.
    NoTenancy,
}

/// One tenant's accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct TenantPoint {
    /// Requests offered to `submit`.
    pub issued: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Admitted requests dropped by shedding.
    pub shed: u64,
    /// Requests refused at admission (incl. rate-limited).
    pub rejected: u64,
    /// The rate-limited subset of `rejected`.
    pub rate_denied: u64,
    /// Median completion latency.
    pub p50: SimDuration,
    /// 99th-percentile completion latency.
    pub p99: SimDuration,
}

impl TenantPoint {
    /// Offered requests that neither completed nor were refused by the
    /// tenant's own rate limit: the victim-facing loss metric.
    pub fn loss(&self) -> u64 {
        (self.issued - self.completed).saturating_sub(self.rate_denied)
    }
}

/// Runs one scenario and returns per-tenant accounting keyed by raw tenant
/// id. In [`Scenario::NoTenancy`] every request is submitted as the system
/// tenant; the result is still keyed by the *originating* tenant so the
/// victims' collapse is visible per tenant.
pub fn run_scenario(scenario: Scenario) -> BTreeMap<u32, TenantPoint> {
    let tenants = Arc::new(TenantRegistry::new());
    if scenario != Scenario::NoTenancy {
        for &t in &VICTIMS {
            tenants.set(TenantId(t), TenantSpec { weight: 1, rate_limit: None });
        }
        tenants.set(
            TenantId(ANTAGONIST),
            TenantSpec {
                weight: 1,
                rate_limit: Some(RateLimit { rps: ANTAGONIST_LIMIT_RPS, burst: 5.0 }),
            },
        );
    }
    // Enough service tokens that the victims' latency is exec-dominated:
    // interference then shows up as *queueing the fair-queue must absorb*,
    // not as an artefact of a single-token pipeline, and the antagonist's
    // in-service cap (weight share of tokens) is what confines it.
    let config = SchedConfig { tenants, cpu_tokens: 8, dpu_tokens: 4, ..SchedConfig::default() };

    // The merged arrival schedule: every (instant, tenant) across the
    // run's tenants, time-sorted. Victim streams are seeded per tenant, so
    // they are identical in all three scenarios.
    let mut arrivals: Vec<(hetsim::time::SimTime, u32)> = Vec::new();
    for &t in &VICTIMS {
        let n = (VICTIM_RPS * RUN_SECONDS).round() as usize;
        for at in open_loop_arrivals(VICTIM_RPS, n, SEED + u64::from(t)) {
            arrivals.push((at, t));
        }
    }
    if scenario != Scenario::Unloaded {
        let n = (FLOOD_RPS * RUN_SECONDS).round() as usize;
        for at in open_loop_arrivals(FLOOD_RPS, n, SEED + u64::from(ANTAGONIST)) {
            arrivals.push((at, ANTAGONIST));
        }
    }
    arrivals.sort();

    let (outcome_by_tenant, ledgers) = crate::run_sim("fig-tenancy", move |ctx| {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        let mut funcs: BTreeMap<u32, FuncId> = BTreeMap::new();
        for &t in &VICTIMS {
            let def = tenant_mix::victim_fn(t);
            funcs.insert(t, def.id.clone());
            molecule.register_function(def);
        }
        let def = tenant_mix::antagonist_fn(ANTAGONIST);
        funcs.insert(ANTAGONIST, def.id.clone());
        molecule.register_function(def);

        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, config);
        gw.api().molecule().bootstrap(ctx).unwrap();
        gw.api().prepare_all_templates(ctx).unwrap();
        gw.start(ctx);

        let mut rxs: Vec<(u32, _)> = Vec::new();
        let mut issued: BTreeMap<u32, u64> = BTreeMap::new();
        let times: Vec<hetsim::time::SimTime> = arrivals.iter().map(|(at, _)| *at).collect();
        drive_open_loop(ctx, &times, |ctx, i| {
            let t = arrivals[i].1;
            let tenant =
                if scenario == Scenario::NoTenancy { TenantId::SYSTEM } else { TenantId(t) };
            let opts = SubmitOpts { tenant };
            *issued.entry(t).or_default() += 1;
            if let Ok(rx) = gw.submit(ctx, &funcs[&t], 2048, opts) {
                rxs.push((t, rx));
            }
        });
        let outcomes: Vec<(u32, JobOutcome)> =
            rxs.into_iter().map(|(t, rx)| (t, rx.recv(ctx).unwrap())).collect();
        let ledgers = gw.tenant_stats();
        gw.shutdown();
        (outcomes, (issued, ledgers))
    });
    let (issued, ledgers) = ledgers;

    let mut points: BTreeMap<u32, TenantPoint> = BTreeMap::new();
    let mut latencies: BTreeMap<u32, Vec<SimDuration>> = BTreeMap::new();
    for (t, outcome) in &outcome_by_tenant {
        let point = points.entry(*t).or_default();
        match outcome {
            JobOutcome::Completed { latency, .. } => {
                point.completed += 1;
                latencies.entry(*t).or_default().push(*latency);
            }
            JobOutcome::Shed { .. } => point.shed += 1,
            JobOutcome::Failed(_) => {}
        }
    }
    for (&t, &n) in &issued {
        points.entry(t).or_default().issued = n;
    }
    // In tenant-aware runs the gateway's own ledger carries the rejection
    // split; fold it in (submit errors produce no outcome receiver above).
    if scenario != Scenario::NoTenancy {
        for (tenant, ledger) in &ledgers {
            let point = points.entry(tenant.raw()).or_default();
            point.rejected = ledger.rejected;
            point.rate_denied = ledger.rate_denied;
        }
    } else {
        // Everything rode the system ledger; attribute rejections by count.
        let system: TenantLedger = ledgers.get(&TenantId::SYSTEM).cloned().unwrap_or_default();
        let _ = system;
        for (t, point) in &mut points {
            let _ = t;
            point.rejected = point.issued - point.completed - point.shed;
        }
    }
    for (t, mut lats) in latencies {
        lats.sort();
        let point = points.entry(t).or_default();
        point.p50 = crate::percentile(&lats, 0.50);
        point.p99 = crate::percentile(&lats, 0.99);
    }
    points
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

/// Runs all three scenarios and exports `BENCH_tenancy.json`: one row per
/// tenant with the cross-run ratios precomputed.
pub fn print() {
    let unloaded = run_scenario(Scenario::Unloaded);
    let tenancy = run_scenario(Scenario::Tenancy);
    let baseline = run_scenario(Scenario::NoTenancy);

    let total_completed: u64 = tenancy.values().map(|p| p.completed).sum();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (&t, point) in &tenancy {
        let role = if t == ANTAGONIST { "antagonist" } else { "victim" };
        let base = unloaded.get(&t).cloned().unwrap_or_default();
        let collapsed = baseline.get(&t).cloned().unwrap_or_default();
        let p99_ratio =
            if t == ANTAGONIST || ms(base.p99) == 0.0 { 0.0 } else { ms(point.p99) / ms(base.p99) };
        let collapse_ratio = if t == ANTAGONIST || ms(base.p99) == 0.0 {
            0.0
        } else {
            ms(collapsed.p99) / ms(base.p99)
        };
        let share = if total_completed == 0 {
            0.0
        } else {
            point.completed as f64 / total_completed as f64
        };
        rows.push(vec![
            format!("t{t}"),
            role.to_owned(),
            format!("{:.0}", if t == ANTAGONIST { FLOOD_RPS } else { VICTIM_RPS }),
            point.issued.to_string(),
            point.completed.to_string(),
            point.loss().to_string(),
            point.rate_denied.to_string(),
            format!("{:.2}", ms(base.p99)),
            format!("{:.2}", ms(point.p99)),
            format!("{p99_ratio:.3}"),
            format!("{:.2}", ms(collapsed.p99)),
            format!("{collapse_ratio:.3}"),
            format!("{share:.3}"),
        ]);
    }
    crate::export_table(
        "tenancy",
        "Antagonist flood: victim p99/loss under WFQ + rate limits vs no-tenancy collapse",
        &[
            "tenant",
            "role",
            "offered (rps)",
            "issued",
            "completed",
            "loss",
            "rate-denied",
            "p99 unloaded (ms)",
            "p99 tenancy (ms)",
            "p99 ratio",
            "p99 no-tenancy (ms)",
            "collapse ratio",
            "share",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_hold_under_flood_and_antagonist_is_confined() {
        let unloaded = run_scenario(Scenario::Unloaded);
        let tenancy = run_scenario(Scenario::Tenancy);

        let total: u64 = tenancy.values().map(|p| p.completed).sum();
        for &t in &VICTIMS {
            let base = &unloaded[&t];
            let under = &tenancy[&t];
            assert_eq!(under.loss(), 0, "victim t{t} lost requests under the flood: {under:?}");
            assert!(
                ms(under.p99) <= P99_HEADROOM * ms(base.p99),
                "victim t{t} p99 blew past {P99_HEADROOM}x: {:.2}ms vs {:.2}ms unloaded",
                ms(under.p99),
                ms(base.p99)
            );
        }
        let antagonist = &tenancy[&ANTAGONIST];
        let share = antagonist.completed as f64 / total as f64;
        let weight_share = 1.0 / (1.0 + VICTIMS.len() as f64);
        assert!(
            share <= weight_share + 0.10,
            "antagonist took {share:.3} of delivered service (weight share {weight_share:.3})"
        );
        assert!(
            antagonist.rate_denied > 0,
            "a 10x flood against a rate limit must trip it: {antagonist:?}"
        );
    }
}
