//! `serve`: warm-pool hits and rack forwarding under open-loop load.
//!
//! A 4-node rack (`Machine::rack(4, 1)` behind a [`RackFront`] with the
//! default `SchedConfig`) serves 64 functions cycling through seven
//! FunctionBench profiles, picked uniformly per request with 1 KiB inputs.
//! Each rung of the Poisson ladder is a fresh rack. Three of four keys are
//! owned by a remote node, so most requests pay a fabric probe before the
//! owning node's gateway admits them; the rungs above capacity drive the
//! same sched layer through its reject path (the default `SchedConfig` sets
//! no deadline, so nothing is shed).
//!
//! Latency is timed from each request's *due* time, so a stall in the
//! driver counts against the requests behind it; `gen.late_max_ms` reports
//! how late the generator itself ran.

use hetsim::engine::{ProcCtx, SimReceiver, TryRecvError};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::GatewayStats;
use molecule_rack::{RackConfig, RackFront, RackStats};
use molecule_sched::{JobOutcome, SchedStats, SubmitError, SubmitOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsandbox::spec::FuncId;
use workloads::generator::{drive_open_loop, open_loop_arrivals};
use xpu_shim::ShimStats;

use crate::{frac, ms, percentile, us, Outcome, Params, Probe, Row};

/// The rung latency metrics come from, in requests per virtual second.
pub const LATENCY_RUNG: f64 = 160.0;

/// Latency objective: a rung is sustained when everything completed with
/// p99 within it, and `serve.slo_frac` counts requests that met it.
pub const SLO: SimDuration = SimDuration::from_millis(300);

const NODES: usize = 4;
const FUNCS: usize = 64;
const INPUT_BYTES: u64 = 1024;
/// Replies are drained every this many arrivals, so the driver holds only
/// the receivers of requests still in flight.
const DRAIN_EVERY: usize = 64;

/// One outstanding request.
struct Pending {
    rx: SimReceiver<JobOutcome>,
    due: SimTime,
    submitted: SimTime,
}

/// Outcome tallies shared with `churn`, which drives a gateway the same way.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) issued: u64,
    pub(crate) completed: u64,
    pub(crate) shed: u64,
    pub(crate) rejected: u64,
    pub(crate) failed: u64,
    pub(crate) lost: u64,
    /// Completed requests' latency from their due time.
    pub(crate) from_due: Vec<SimDuration>,
    /// Gateway-reported latency of warm and cold completions.
    pub(crate) warm: Vec<SimDuration>,
    pub(crate) cold: Vec<SimDuration>,
    pub(crate) errors: Vec<String>,
    pending: Vec<Pending>,
}

impl Tally {
    /// Books a submit's immediate result.
    pub(crate) fn submitted(
        &mut self,
        result: Result<SimReceiver<JobOutcome>, SubmitError>,
        due: SimTime,
        now: SimTime,
    ) {
        self.issued += 1;
        match result {
            Ok(rx) => self.pending.push(Pending { rx, due, submitted: now }),
            Err(SubmitError::Overloaded(_)) => self.rejected += 1,
            Err(SubmitError::Runtime(e)) => {
                self.failed += 1;
                if self.errors.is_empty() {
                    self.errors.push(format!("submit failed: {e}"));
                }
            }
        }
    }

    fn resolve(&mut self, p: &Pending, outcome: JobOutcome) {
        match outcome {
            JobOutcome::Completed { latency, cold, .. } => {
                self.completed += 1;
                self.from_due.push(p.submitted - p.due + latency);
                if cold { &mut self.cold } else { &mut self.warm }.push(latency);
            }
            JobOutcome::Shed { .. } => self.shed += 1,
            JobOutcome::Failed(_) => self.failed += 1,
        }
    }

    /// Resolves every reply that has already arrived.
    pub(crate) fn drain(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|p| match p.rx.try_recv() {
            Ok(outcome) => {
                self.resolve(p, outcome);
                false
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => {
                self.lost += 1;
                false
            }
        });
        self.pending = pending;
    }

    /// Blocks until every outstanding reply has arrived.
    pub(crate) fn finish(&mut self, ctx: &mut ProcCtx) {
        for p in std::mem::take(&mut self.pending) {
            match p.rx.recv(ctx) {
                Ok(outcome) => self.resolve(&p, outcome),
                Err(_) => self.lost += 1,
            }
        }
        self.from_due.sort();
        self.warm.sort();
        self.cold.sort();
    }

    /// Checks the driver's own tally against the gateway's counters, so the
    /// tally can stand in for them.
    pub(crate) fn audit(&mut self, s: &SchedStats) {
        let ours = (self.issued, self.completed, self.shed, self.rejected, self.failed);
        let theirs = (s.submitted, s.completed, s.shed, s.rejected, s.failed);
        if ours != theirs {
            self.errors.push(format!(
                "driver tally (issued, completed, shed, rejected, failed) {ours:?} \
                 disagrees with the gateway's {theirs:?}"
            ));
        }
    }

    pub(crate) fn row(&self, name: String) -> Row {
        Row {
            name,
            issued: self.issued,
            completed: self.completed,
            shed: self.shed,
            rejected: self.rejected,
            failed: self.failed,
            lost: self.lost,
        }
    }

    pub(crate) fn within(&self, slo: SimDuration) -> u64 {
        self.from_due.iter().take_while(|&&d| d <= slo).count() as u64
    }
}

/// One rung's results.
struct Rung {
    tally: Tally,
    /// Virtual time spent inside `RackFront::submit` for remote keys.
    forward: Vec<SimDuration>,
    late_max: SimDuration,
    local_submit_ns: u128,
    local_submits: u64,
    gateway: GatewayStats,
    rack: RackStats,
    shim: ShimStats,
    pss_kib_per_instance: f64,
}

/// Fleet PSS over every general-purpose PU, in whole bytes: each runtime
/// sums its sandboxes in hash-map order, so the float's last bits differ
/// from run to run while the rounded value does not.
pub(crate) fn fleet_pss_bytes(molecule: &Molecule) -> f64 {
    let machine = molecule.machine();
    machine
        .pus()
        .iter()
        .filter_map(|p| molecule.runc(p.id))
        .map(|r| r.fleet_pss_bytes().round())
        .sum()
}

fn run_rung(rate: f64, seconds: f64, seed: u64, probe: Probe) -> (Rung, u64) {
    let n = (rate * seconds).round() as usize;
    let arrivals = open_loop_arrivals(rate, n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..FUNCS)).collect();
    let (rung, report) = crate::run_sim("serve-driver", move |ctx| {
        let molecule = Molecule::launch(Machine::rack(NODES, 1), MoleculeConfig::default());
        let funcs: Vec<FuncId> = crate::fleet(FUNCS, "serve")
            .into_iter()
            .map(|def| {
                let id = def.id.clone();
                molecule.register_function(def);
                id
            })
            .collect();
        let config = RackConfig::default();
        let front_node = config.front_node;
        let front = RackFront::deploy(molecule.clone(), config);
        front.bootstrap(ctx).expect("rack bootstrap");
        front.start(ctx);
        let mut tally = Tally::default();
        let mut forward = Vec::new();
        let mut late_max = SimDuration::ZERO;
        let (mut local_submit_ns, mut local_submits) = (0u128, 0u64);
        probe.arrived();
        let base = ctx.now();
        drive_open_loop(ctx, &arrivals, |ctx, i| {
            let due = base + arrivals[i].saturating_duration_since(SimTime::ZERO);
            late_max = late_max.max(ctx.now().saturating_duration_since(due));
            let func = &funcs[picks[i]];
            let local = front.owner_of(func) == Some(front_node);
            let before = ctx.now();
            let timer = probe.start();
            let result = front.submit(ctx, func, INPUT_BYTES, SubmitOpts::default());
            if local {
                if let Some(t) = timer {
                    local_submit_ns += t.elapsed().as_nanos();
                    local_submits += 1;
                }
            } else {
                forward.push(ctx.now() - before);
            }
            tally.submitted(result, due, ctx.now());
            if i % DRAIN_EVERY == 0 {
                tally.drain();
            }
        });
        tally.finish(ctx);
        let mut sched = SchedStats::default();
        let mut gateway = GatewayStats::default();
        for gw in front.gateways() {
            let (s, g) = (gw.stats(), gw.api().stats());
            sched.submitted += s.submitted;
            sched.completed += s.completed;
            sched.shed += s.shed;
            sched.rejected += s.rejected;
            sched.failed += s.failed;
            gateway.warm_hits += g.warm_hits;
            gateway.cold_starts += g.cold_starts;
            gateway.reaped += g.reaped;
        }
        tally.audit(&sched);
        let instances = molecule.instance_count().max(1) as f64;
        let pss_kib_per_instance = fleet_pss_bytes(&molecule) / 1024.0 / instances;
        let rack = front.stats();
        let shim = molecule.cluster().stats();
        front.shutdown();
        forward.sort();
        Rung {
            tally,
            forward,
            late_max,
            local_submit_ns,
            local_submits,
            gateway,
            rack,
            shim,
            pss_kib_per_instance,
        }
    });
    (rung, report.events_fired)
}

/// Runs the whole ladder.
pub fn run(seed: u64, params: &Params, probe: &Probe) -> Outcome {
    let mut out = Outcome::default();
    let mut rungs = Vec::new();
    for (k, &rate) in params.serve_rates.iter().enumerate() {
        let (rung, events) =
            run_rung(rate, params.serve_seconds, crate::mix(seed, k as u64), probe.clone());
        out.events += events;
        out.rows.push(rung.tally.row(format!("{rate:.0}rps")));
        out.errors.extend(rung.tally.errors.iter().cloned());
        rungs.push((rate, rung));
    }
    let Some((_, lat)) = rungs.iter().find(|(rate, _)| *rate == LATENCY_RUNG) else {
        out.errors.push(format!("the ladder has no {LATENCY_RUNG} rps rung"));
        return out;
    };
    let t = &lat.tally;
    out.set("lat_p50_ms", ms(percentile(&t.from_due, 0.50)));
    out.set("lat_p99_ms", ms(percentile(&t.from_due, 0.99)));
    out.set("sched.warm_p99_ms", ms(percentile(&t.warm, 0.99)));
    out.set("sched.cold_p99_ms", ms(percentile(&t.cold, 0.99)));
    out.set("sandbox.cold_p50_ms", ms(percentile(&t.cold, 0.50)));
    out.set("sandbox.pss_kib_per_instance", lat.pss_kib_per_instance);
    out.set("rack.forward_us_p50", us(percentile(&lat.forward, 0.50)));

    let sum = |f: &dyn Fn(&Rung) -> u64| rungs.iter().map(|(_, r)| f(r)).sum::<u64>();
    let issued = sum(&|r| r.tally.issued);
    out.set("ok_frac", frac(sum(&|r| r.tally.completed), issued));
    out.set("serve.slo_frac", frac(sum(&|r| r.tally.within(SLO)), issued));
    let sustained = rungs
        .iter()
        .filter(|(_, r)| {
            r.tally.completed == r.tally.issued && percentile(&r.tally.from_due, 0.99) <= SLO
        })
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max);
    out.set("serve.sustained_rps", sustained);
    out.set("sched.reject_frac", frac(sum(&|r| r.tally.rejected), issued));
    out.set("sched.shed_frac", frac(sum(&|r| r.tally.shed), issued));
    let cold = sum(&|r| r.gateway.cold_starts);
    out.set("gateway.cold_frac", frac(cold, cold + sum(&|r| r.gateway.warm_hits)));
    out.set("gateway.reaped", sum(&|r| r.gateway.reaped) as f64);
    out.set("rack.forwarded_frac", frac(sum(&|r| r.rack.forwarded), sum(&|r| r.rack.routed)));
    crate::set_shim(&mut out, |f| sum(&|r| f(&r.shim)));
    let late = rungs.iter().map(|(_, r)| r.late_max).max().unwrap_or_default();
    out.set("gen.late_max_ms", ms(late));
    if probe.trace {
        let ns = rungs.iter().map(|(_, r)| r.local_submit_ns).sum::<u128>() as f64;
        out.set("rack.submit_host_us", ns / 1e3 / sum(&|r| r.local_submits).max(1) as f64);
    }
    out
}
