#![warn(missing_docs)]

//! `molecule-benchmark` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! Four workloads drive the public APIs of the reproduction the way a user
//! would, and each repetition reports numbers in two clocks:
//!
//! * **virtual time** — what the modelled CPU+DPU machine delivers
//!   (latency, success fractions, modelled memory). Deterministic per seed,
//!   so two repetitions of one seed must agree bit for bit;
//! * **host time** — what the simulator costs to run (wall and CPU
//!   seconds, peak RSS, set-up time). Noisy, so reported as medians.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | [`serve`] | rack forwarding, sched admission, warm pools | keep-alive eviction |
//! | [`churn`] | cold starts, keep-alive reaping, sandbox PSS | rack, nIPC |
//! | [`chain`] | the nIPC data plane (inline and descriptor hops) | sched, sandbox start |
//! | [`explore`] | simcheck exploration with the state oracle | virtual time |
//!
//! The binary re-executes itself once per repetition, pinned to one CPU;
//! [`measure_rep`] is what each child runs, and [`report::summarize`]
//! folds the children's records into the printed metrics.

pub mod chain;
pub mod churn;
pub mod explore;
pub mod host;
pub mod report;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime};

use hetsim::engine::{ProcCtx, RunReport, Simulation};
use hetsim::time::SimDuration;
use molecule_core::FunctionDef;
use vsandbox::spec::FuncId;
use workloads::functionbench::{self, FbWorkload};
use xpu_shim::ShimStats;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson ladder against a 4-node rack front.
    Serve,
    /// Zipf-popular function churn through the keep-alive reaper.
    Churn,
    /// Closed-loop direct-IPC chains crossing PCIe.
    Chain,
    /// Schedule exploration of the cross-node state race.
    Explore,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Serve, Workload::Churn, Workload::Chain, Workload::Explore];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Churn => "churn",
            Workload::Chain => "chain",
            Workload::Explore => "explore",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Workload sizes. [`Params::full`] is what the benchmark measures;
/// [`Params::smoke`] keeps every code path but finishes in well under a
/// second per workload, for the smoke test.
#[derive(Debug, Clone)]
pub struct Params {
    /// Offered loads of the serve ladder, in requests per virtual second.
    pub serve_rates: Vec<f64>,
    /// Virtual seconds each serve rung runs.
    pub serve_seconds: f64,
    /// Functions registered for churn.
    pub churn_funcs: usize,
    /// Churn's offered load, in requests per virtual second.
    pub churn_rate: f64,
    /// Virtual seconds churn runs.
    pub churn_seconds: f64,
    /// Rounds each chain client drives.
    pub chain_rounds: usize,
    /// Schedules explore runs.
    pub explore_trials: usize,
}

impl Params {
    /// The measured sizes.
    pub fn full() -> Params {
        Params {
            serve_rates: vec![120.0, 160.0, 200.0, 240.0],
            serve_seconds: 200.0,
            churn_funcs: 1024,
            churn_rate: 20.0,
            churn_seconds: 4000.0,
            chain_rounds: 4000,
            explore_trials: 96,
        }
    }

    /// Tiny sizes for the smoke test: the latency rung plus one rung above
    /// capacity, so admission's reject path still runs.
    pub fn smoke() -> Params {
        Params {
            serve_rates: vec![serve::LATENCY_RUNG, 400.0],
            serve_seconds: 3.0,
            churn_funcs: 128,
            churn_rate: 20.0,
            churn_seconds: 30.0,
            chain_rounds: 20,
            explore_trials: 8,
        }
    }
}

/// Request accounting for one simulation: a serve rung, the churn run, a
/// chain client or the explore trial set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// What the row counts (e.g. `"160rps"`).
    pub name: String,
    /// Requests (rounds, trials) offered.
    pub issued: u64,
    /// Served to completion (clean trials).
    pub completed: u64,
    /// Dropped by load shedding while queued.
    pub shed: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Failed by the runtime (violating trials).
    pub failed: u64,
    /// Offered but never resolved — must be zero.
    pub lost: u64,
}

impl Row {
    /// Conservation: every offered request resolved exactly one way.
    pub fn conserved(&self) -> bool {
        self.lost == 0 && self.issued == self.completed + self.shed + self.rejected + self.failed
    }
}

/// What one workload run produced, before host measurements are added.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name (see [`report`] for the catalogue).
    pub values: BTreeMap<&'static str, f64>,
    /// Request accounting, one row per simulation or client.
    pub rows: Vec<Row>,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Engine events fired across every simulation of the run.
    pub events: u64,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Instrumentation handed to a workload: whether the traced run's host
/// timers are on, and where to stamp the first arrival (the end of
/// set-up).
#[derive(Debug, Clone)]
pub struct Probe {
    /// Time the calls into each layer with host clocks.
    pub trace: bool,
    first_arrival: Arc<OnceLock<SystemTime>>,
}

impl Probe {
    /// A probe with tracing on or off.
    pub fn new(trace: bool) -> Probe {
        Probe { trace, first_arrival: Arc::new(OnceLock::new()) }
    }

    /// Marks the first request (round, trial) as issued; later calls are
    /// ignored.
    pub fn arrived(&self) {
        let _ = self.first_arrival.set(SystemTime::now());
    }

    /// When [`arrived`](Self::arrived) was first called.
    pub fn first_arrival(&self) -> Option<SystemTime> {
        self.first_arrival.get().copied()
    }

    /// Starts a host timer when tracing, so untraced runs pay nothing.
    fn start(&self) -> Option<Instant> {
        self.trace.then(Instant::now)
    }
}

/// Runs `workload` once at `seed` and returns what it measured.
fn run_workload(workload: Workload, seed: u64, params: &Params, probe: &Probe) -> Outcome {
    let mut out = match workload {
        Workload::Serve => serve::run(seed, params, probe),
        Workload::Churn => churn::run(seed, params, probe),
        Workload::Chain => chain::run(seed, params, probe),
        Workload::Explore => explore::run(seed, params, probe),
    };
    for row in &out.rows {
        if !row.conserved() {
            out.errors.push(format!("accounting does not conserve: {row:?}"));
        }
    }
    out.set("engine.events", out.events as f64);
    out
}

/// One repetition's record: everything the parent aggregates.
#[derive(Debug, Clone, Default)]
pub struct RepRecord {
    /// Whether the host timers of the traced run were on.
    pub traced: bool,
    /// Measured values by metric name, host measurements included.
    pub values: BTreeMap<String, f64>,
    /// Request accounting.
    pub rows: Vec<Row>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl RepRecord {
    /// Line format a child hands its parent: `traced <0|1>`, then
    /// `value <name> <number>`, `row <name> <six counts>` and
    /// `error <message>` lines.
    pub fn to_text(&self) -> String {
        let mut s = format!("traced {}\n", u8::from(self.traced));
        for (name, v) in &self.values {
            s += &format!("value {name} {v}\n");
        }
        for r in &self.rows {
            s += &format!(
                "row {} {} {} {} {} {} {}\n",
                r.name, r.issued, r.completed, r.shed, r.rejected, r.failed, r.lost
            );
        }
        for e in &self.errors {
            s += &format!("error {}\n", e.replace('\n', " "));
        }
        s
    }

    /// Parses [`to_text`](Self::to_text) output; other lines are ignored.
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn from_text(text: &str) -> Result<RepRecord, String> {
        let mut rec = RepRecord::default();
        for line in text.lines() {
            let bad = || format!("malformed record line {line:?}");
            let mut parts = line.splitn(2, ' ');
            let (tag, rest) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            match tag {
                "traced" => rec.traced = rest == "1",
                "value" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    rec.values.insert(name.to_owned(), v.parse().map_err(|_| bad())?);
                }
                "row" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let n: Vec<u64> = f
                        .get(1..7)
                        .ok_or_else(bad)?
                        .iter()
                        .map(|c| c.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    rec.rows.push(Row {
                        name: f[0].to_owned(),
                        issued: n[0],
                        completed: n[1],
                        shed: n[2],
                        rejected: n[3],
                        failed: n[4],
                        lost: n[5],
                    });
                }
                "error" => rec.errors.push(rest.to_owned()),
                _ => {}
            }
        }
        Ok(rec)
    }
}

/// Runs one repetition in this process and adds the host measurements:
/// wall and CPU seconds since `started`, peak RSS and set-up time (from
/// `started` to the first arrival). `started` is when the parent spawned
/// this process, or simply now for in-process use.
pub fn measure_rep(
    workload: Workload,
    seed: u64,
    params: &Params,
    trace: bool,
    started: SystemTime,
) -> RepRecord {
    let cpu_before = host::cpu_times();
    let probe = Probe::new(trace);
    let out = run_workload(workload, seed, params, &probe);
    let end = SystemTime::now();
    let cpu_after = host::cpu_times();
    let mut rec = RepRecord {
        traced: trace,
        values: out.values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        rows: out.rows,
        errors: out.errors,
    };
    let since = |t: SystemTime| t.duration_since(started).unwrap_or_default().as_secs_f64();
    let first = probe.first_arrival().unwrap_or_else(|| {
        rec.errors.push("workload never stamped its first arrival".into());
        end
    });
    let (user, sys) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
    for (name, value) in [
        ("wall_s", since(end)),
        ("setup_s", since(first)),
        ("cpu_s", user + sys),
        ("user_s", user),
        ("sys_s", sys),
        ("peak_rss_mib", host::peak_rss_mib()),
    ] {
        rec.values.insert(name.to_owned(), value);
    }
    rec
}

/// Runs `f` as the single driver process of a fresh simulation and returns
/// its result with the engine's run report.
///
/// # Panics
///
/// Panics if the simulation errors (deadlock, process panic) or the driver
/// returns nothing: either is a bug in the system under test.
fn run_sim<T, F>(name: &str, f: F) -> (T, RunReport)
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let mut sim = Simulation::new();
    let handle = sim.spawn(name, f);
    let report = sim.run().unwrap_or_else(|e| panic!("simulation '{name}' failed: {e}"));
    let out = handle.take_result().unwrap_or_else(|| panic!("driver '{name}' returned no result"));
    (out, report)
}

/// `n` functions cycling through the seven FunctionBench profiles that
/// finish in under a second (Video Processing's 34 s handler would turn
/// every rung into a backlog of one function), each under its own id.
fn fleet(n: usize, prefix: &str) -> Vec<FunctionDef> {
    let profiles: Vec<FbWorkload> =
        functionbench::all().into_iter().filter(|w| w.name != "Video Processing").collect();
    (0..n)
        .map(|i| {
            let w = &profiles[i % profiles.len()];
            let mut def = w.to_function_def();
            def.id = FuncId::from(format!("{prefix}-{i}-{}", w.func_id()));
            def
        })
        .collect()
}

/// Derives an independent stream seed for part `k` of a run (SplitMix64).
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Records the nIPC data-plane counters; `total` reads one counter from
/// whatever `ShimStats` the workload accumulated.
fn set_shim(out: &mut Outcome, total: impl Fn(&dyn Fn(&ShimStats) -> u64) -> u64) {
    out.set("shim.xpucalls", total(&|s| s.xpucalls) as f64);
    out.set("shim.batched_xcalls", total(&|s| s.batched_xcalls) as f64);
    out.set("shim.descriptor_handoffs", total(&|s| s.descriptor_handoffs) as f64);
    out.set("shim.bytes_elided", total(&|s| s.bytes_elided) as f64);
    out.set("shim.fabric_transfers", total(&|s| s.fabric_transfers) as f64);
}

/// Nearest-rank percentile of an ascending slice; zero when empty.
fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// `num / den`, or zero when nothing was counted.
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
