//! `churn`: pool misses through the keep-alive reaper.
//!
//! The paper's CPU+DPU server behind one [`SchedGateway`] serves 1024
//! functions with Zipf(1.0) popularity under open-loop Poisson load. A
//! reaper process calls [`ApiGateway::reap_idle`] every 250 ms with a
//! keep-alive capacity of 64 functions, so the long tail keeps losing its
//! warm instances and about half the requests cold-start (cfork). This is
//! the gateway `serve` uses, driven the other way: no rack and no nIPC on
//! the request path. Fleet PSS is sampled every 10 virtual seconds.

use hetsim::engine::{ProcCtx, RecvTimeoutError, SimReceiver};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_core::{ApiGateway, GatewayConfig, GatewayStats};
use molecule_sched::{SchedConfig, SchedGateway, SubmitOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsandbox::spec::FuncId;
use workloads::generator::{drive_open_loop, open_loop_arrivals};

use crate::serve::{fleet_pss_bytes, Tally};
use crate::{frac, ms, percentile, Outcome, Params, Probe};

/// Latency objective `churn.slo_frac` counts against.
pub const SLO: SimDuration = SimDuration::from_millis(500);

/// Functions the keep-alive policy may keep warm across a reap.
const KEEPALIVE: usize = 64;
const REAP_EVERY: SimDuration = SimDuration::from_millis(250);
const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(10);
const INPUT_BYTES: u64 = 1024;
const DRAIN_EVERY: usize = 64;

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Calls `tick` every `period` until `stop` disconnects.
fn every<T>(
    ctx: &mut ProcCtx,
    stop: &SimReceiver<()>,
    period: SimDuration,
    mut tick: impl FnMut(&mut ProcCtx) -> Result<(), T>,
) -> Result<(), T> {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(ctx, period) {
        tick(ctx)?;
    }
    Ok(())
}

struct Run {
    tally: Tally,
    late_max: SimDuration,
    submit_ns: u128,
    gateway: GatewayStats,
    /// `(fleet PSS bytes, live instances)` every [`SAMPLE_EVERY`].
    samples: Vec<(f64, usize)>,
}

/// Runs churn once.
pub fn run(seed: u64, params: &Params, probe: &Probe) -> Outcome {
    let n = (params.churn_rate * params.churn_seconds).round() as usize;
    let arrivals = open_loop_arrivals(params.churn_rate, n, crate::mix(seed, 0));
    let zipf = Zipf::new(params.churn_funcs);
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 1));
    let picks: Vec<usize> = (0..n).map(|_| zipf.sample(&mut rng)).collect();
    let funcs = params.churn_funcs;
    let driver_probe = probe.clone();
    let (run, report) = crate::run_sim("churn-driver", move |ctx| {
        let probe = driver_probe;
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        let ids: Vec<FuncId> = crate::fleet(funcs, "churn")
            .into_iter()
            .map(|def| {
                let id = def.id.clone();
                molecule.register_function(def);
                id
            })
            .collect();
        let config = GatewayConfig { keepalive_capacity: KEEPALIVE, ..GatewayConfig::default() };
        let api =
            ApiGateway::new(molecule.clone(), Scheduler::default(), config, Box::new(Lru::new()));
        let gw = SchedGateway::new(api.clone(), SchedConfig::default());
        molecule.bootstrap(ctx).expect("bootstrap");
        api.prepare_all_templates(ctx).expect("template boot");
        gw.start(ctx);

        let (stop_reaper, reaper_rx) = ctx.channel::<()>();
        let reaper_api = api.clone();
        let reaper = ctx.spawn("churn-reaper", move |rctx| {
            every(rctx, &reaper_rx, REAP_EVERY, |rctx| {
                reaper_api.reap_idle(rctx).map(drop).map_err(|e| e.to_string())
            })
        });
        let (stop_sampler, sampler_rx) = ctx.channel::<()>();
        let m = molecule.clone();
        let sampler = ctx.spawn("churn-pss-sampler", move |sctx| {
            let mut samples = Vec::new();
            let _ = every(sctx, &sampler_rx, SAMPLE_EVERY, |_| {
                samples.push((fleet_pss_bytes(&m), m.instance_count()));
                Ok::<(), ()>(())
            });
            samples
        });

        let mut tally = Tally::default();
        let mut late_max = SimDuration::ZERO;
        let mut submit_ns = 0u128;
        probe.arrived();
        let base = ctx.now();
        drive_open_loop(ctx, &arrivals, |ctx, i| {
            let due = base + arrivals[i].saturating_duration_since(SimTime::ZERO);
            late_max = late_max.max(ctx.now().saturating_duration_since(due));
            let timer = probe.start();
            let result = gw.submit(ctx, &ids[picks[i]], INPUT_BYTES, SubmitOpts::default());
            if let Some(t) = timer {
                submit_ns += t.elapsed().as_nanos();
            }
            tally.submitted(result, due, ctx.now());
            if i % DRAIN_EVERY == 0 {
                tally.drain();
            }
        });
        tally.finish(ctx);
        tally.audit(&gw.stats());
        drop((stop_reaper, stop_sampler));
        reaper.join(ctx);
        sampler.join(ctx);
        if let Some(Err(e)) = reaper.take_result() {
            tally.errors.push(format!("reap_idle failed: {e}"));
        }
        gw.shutdown();
        Run {
            tally,
            late_max,
            submit_ns,
            gateway: api.stats(),
            samples: sampler.take_result().unwrap_or_default(),
        }
    });

    let mut out = Outcome { events: report.events_fired, ..Outcome::default() };
    let t = &run.tally;
    out.rows.push(t.row("churn".into()));
    out.errors.extend(t.errors.iter().cloned());
    out.set("lat_p50_ms", ms(percentile(&t.from_due, 0.50)));
    out.set("lat_p99_ms", ms(percentile(&t.from_due, 0.99)));
    out.set("ok_frac", frac(t.completed, t.issued));
    out.set("churn.slo_frac", frac(t.within(SLO), t.issued));
    out.set("sched.reject_frac", frac(t.rejected, t.issued));
    out.set("sched.shed_frac", frac(t.shed, t.issued));
    out.set("sched.warm_p99_ms", ms(percentile(&t.warm, 0.99)));
    out.set("sched.cold_p99_ms", ms(percentile(&t.cold, 0.99)));
    let g = run.gateway;
    out.set("gateway.cold_frac", frac(g.cold_starts, g.cold_starts + g.warm_hits));
    out.set("gateway.reaped", g.reaped as f64);
    out.set("sandbox.cold_p50_ms", ms(percentile(&t.cold, 0.50)));
    let samples = run.samples.len().max(1) as f64;
    let pss = run.samples.iter().map(|s| s.0).sum::<f64>() / samples;
    let instances = run.samples.iter().map(|s| s.1 as f64).sum::<f64>() / samples;
    out.set("churn.pss_mib", pss / (1024.0 * 1024.0));
    out.set("sandbox.pss_kib_per_instance", pss / 1024.0 / instances.max(1.0));
    out.set("gen.late_max_ms", ms(run.late_max));
    if probe.trace {
        out.set("sched.submit_host_us", run.submit_ns as f64 / 1e3 / t.issued.max(1) as f64);
    }
    out
}
