//! `molecule-benchmark` — runs one workload and prints its metrics.
//!
//! ```text
//! molecule-benchmark --workload <serve|churn|chain|explore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each repetition runs in a fresh child process (this binary's internal
//! `rep` mode), pinned with `taskset` to the last CPU this process may use:
//! the engine resumes one OS thread at a time, so pinning costs no
//! parallelism and removes the scheduler's cross-CPU hand-off noise.
//! Repetitions continue while the next one fits in `--seconds` — at least
//! three, or with `--trace 1` at least two untraced and two traced,
//! alternating. The run prints each row's request accounting, a run block
//! (conditions and host spreads) and, as its last line, the result JSON.
//!
//! Exit status: 0 when every output check passed, 1 when one failed, 2
//! when the arguments or the run conditions are unusable.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use molecule_benchmark::report::summarize;
use molecule_benchmark::{host, measure_rep, Params, RepRecord, Workload};

const USAGE: &str =
    "usage: molecule-benchmark --workload <serve|churn|chain|explore> --seed <n> --seconds <s> --trace <0|1>";
const MIN_REPS: usize = 3;
const MIN_TRACED_REPS: usize = 2;
const MAX_REPS: usize = 64;

struct Args {
    child: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spawned_at_ns: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let child = args.first().is_some_and(|a| a == "rep");
    let mut a = Args {
        child,
        workload: Workload::Serve,
        seed: 0,
        seconds: 0.0,
        trace: false,
        spawned_at_ns: 0,
    };
    let (mut workload, mut seed, mut seconds) = (false, false, false);
    let mut it = args.iter().skip(usize::from(child));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(value).ok_or_else(bad)?;
                workload = true;
            }
            "--seed" => {
                a.seed = value.parse().map_err(|_| bad())?;
                seed = true;
            }
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                seconds = a.seconds.is_finite() && a.seconds > 0.0;
                if !seconds {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spawned-at-ns" if child => a.spawned_at_ns = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(workload && seed && (seconds || child)) {
        return Err("--workload, --seed and --seconds are required".into());
    }
    Ok(a)
}

fn refuse_replay() -> Result<(), String> {
    match std::env::var_os("SIMCHECK_REPLAY") {
        Some(_) => Err("SIMCHECK_REPLAY is set; unset it to measure".into()),
        None => Ok(()),
    }
}

/// One pinned repetition, measured in this process.
fn child(a: &Args) -> Result<(), String> {
    refuse_replay()?;
    let cpus = host::allowed_cpus();
    if cpus.len() != 1 {
        return Err(format!(
            "measured repetitions need exactly one allowed CPU, have {cpus:?}; \
             run without `rep` and the parent pins each repetition"
        ));
    }
    let started = UNIX_EPOCH + Duration::from_nanos(a.spawned_at_ns);
    let rec = measure_rep(a.workload, a.seed, &Params::full(), a.trace, started);
    print!("{}", rec.to_text());
    Ok(())
}

fn spawn_rep(a: &Args, cpu: usize, traced: bool) -> Result<RepRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let out = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(["rep", "--workload", a.workload.name(), "--seed", &a.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--spawned-at-ns", &now.as_nanos().to_string()])
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "repetition exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    RepRecord::from_text(&String::from_utf8_lossy(&out.stdout))
}

/// Runs repetitions until the budget is spent and prints the summary.
fn parent(a: &Args) -> Result<bool, String> {
    refuse_replay()?;
    let cpu = *host::allowed_cpus().last().ok_or("cannot read Cpus_allowed_list")?;
    let budget = Duration::from_secs_f64(a.seconds);
    let t0 = Instant::now();
    let mut longest = Duration::ZERO;
    let mut reps: Vec<RepRecord> = Vec::new();
    loop {
        let traced_n = reps.iter().filter(|r| r.traced).count();
        let enough = if a.trace {
            reps.len() - traced_n >= MIN_TRACED_REPS && traced_n >= MIN_TRACED_REPS
        } else {
            reps.len() >= MIN_REPS
        };
        if enough && (t0.elapsed() + longest > budget || reps.len() >= MAX_REPS) {
            break;
        }
        let traced = a.trace && reps.len() % 2 == 1;
        let t = Instant::now();
        let rec = spawn_rep(a, cpu, traced).unwrap_or_else(|e| RepRecord {
            traced,
            errors: vec![e],
            ..RepRecord::default()
        });
        longest = longest.max(t.elapsed());
        let failed = !rec.errors.is_empty();
        println!(
            "rep {} ({}): wall {:.3} s, setup {:.4} s{}",
            reps.len(),
            if traced { "traced" } else { "untraced" },
            rec.values.get("wall_s").copied().unwrap_or(0.0),
            rec.values.get("setup_s").copied().unwrap_or(0.0),
            if failed { ", FAILED" } else { "" }
        );
        reps.push(rec);
        if failed {
            break;
        }
    }

    let summary = summarize(a.workload, &reps, a.trace);
    println!(
        "{:<14} {:>8} {:>9} {:>6} {:>8} {:>6} {:>5}",
        "row", "issued", "completed", "shed", "rejected", "failed", "lost"
    );
    for r in &summary.rows {
        println!(
            "{:<14} {:>8} {:>9} {:>6} {:>8} {:>6} {:>5}",
            r.name, r.issued, r.completed, r.shed, r.rejected, r.failed, r.lost
        );
    }
    for e in &summary.errors {
        println!("check failed: {e}");
    }
    let events = reps.first().and_then(|r| r.values.get("engine.events").copied()).unwrap_or(0.0);
    println!("{}", summary.run_json(a.workload, a.seed, cpu, events));
    println!("{}", summary.result_json());
    Ok(summary.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if a.child { child(&a).map(|()| true) } else { parent(&a) };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("molecule-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
