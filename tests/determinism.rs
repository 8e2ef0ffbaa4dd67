//! Integration: the whole stack is deterministic — the property that makes
//! the experiment harness a *reproduction* rather than a sampling exercise.

use molecule_bench as bench;

#[test]
fn fig08_series_are_identical_across_runs() {
    let a = bench::fig08::nipc_series(xpu_shim::xcall::XcallTransport::MpscPoll);
    let b = bench::fig08::nipc_series(xpu_shim::xcall::XcallTransport::MpscPoll);
    assert_eq!(a, b);
}

#[test]
fn fig12_edges_are_identical_across_runs() {
    let a = bench::fig12::edges_under(bench::fig12::Placement::DpuToCpu);
    let b = bench::fig12::edges_under(bench::fig12::Placement::DpuToCpu);
    assert_eq!(a, b);
}

#[test]
fn fig14_panel_is_identical_across_runs() {
    let a = bench::fig14::functionbench_panel(bench::fig14::FbTarget::ColdCpu);
    let b = bench::fig14::functionbench_panel(bench::fig14::FbTarget::ColdCpu);
    assert_eq!(a, b);
}

#[test]
fn ablation_sync_rows_are_identical_across_runs() {
    assert_eq!(bench::ablations::sync_batching(), bench::ablations::sync_batching());
}

#[test]
fn density_is_stateless_between_invocations() {
    // pack/release leaves the machine clean, so repeating the whole
    // experiment yields the same packing.
    let a = bench::fig02::density();
    let b = bench::fig02::density();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Cross-process determinism. The in-process double-runs above share one
// address space, so they cannot catch nondeterminism that varies *between*
// processes — HashMap iteration order under ASLR-seeded RandomState being
// the classic offender. Here the test re-executes its own binary twice and
// diffs the chaos event log and a BENCH JSON summary byte for byte.

const CHILD_ENV: &str = "MOLECULE_DETERMINISM_CHILD";
const BEGIN_MARK: &str = "===DETERMINISM-PAYLOAD-BEGIN===";
const END_MARK: &str = "===DETERMINISM-PAYLOAD-END===";

/// The probe a child process runs: one seeded chaos scenario (its ordered
/// fault-plane event log is the replay artifact) and the BENCH-style JSON
/// summary built from the same report.
fn child_payload() -> String {
    let report = molecule_chaos::dpu_crash_alexa(42);
    let rows = vec![vec![
        report.seed.to_string(),
        report.issued.to_string(),
        report.completed.to_string(),
        report.lost.to_string(),
        report.failed_over.to_string(),
        format!("{:?}", report.requests_per_pu),
    ]];
    let summary = telemetry::BenchSummary::new(
        "determinism_probe",
        "cross-process determinism probe",
        &["seed", "issued", "completed", "lost", "failed_over", "per_pu"],
        &rows,
    );
    let mut out = String::new();
    for line in &report.event_log {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&summary.to_json());
    out.push('\n');
    out
}

/// Runs this same test in a fresh OS process (child mode) and returns the
/// marker-delimited payload it printed.
fn run_child(test_name: &str) -> String {
    let exe = std::env::current_exe().expect("own test binary path");
    let out = std::process::Command::new(exe)
        .args([test_name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8(out.stdout).expect("child stdout is utf-8");
    assert!(
        out.status.success(),
        "child process failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let begin = stdout.find(BEGIN_MARK).expect("child printed the begin marker");
    let end = stdout.find(END_MARK).expect("child printed the end marker");
    stdout[begin + BEGIN_MARK.len()..end].to_owned()
}

/// The rack probe a child process runs: a tiny one-point scaling sweep
/// rendered as the same BENCH_rack.json rows `fig_rack` exports, plus the
/// chaos event log of a seeded node-kill plan against a 2-node rack front.
fn rack_child_payload() -> String {
    let row = bench::fig_rack::run_scale_point(2, 40.0);
    let summary = telemetry::BenchSummary::new(
        "rack",
        "cross-process rack determinism probe",
        &bench::fig_rack::SCALE_HEADER,
        &bench::fig_rack::scale_table(std::slice::from_ref(&row)),
    );
    let (event_log, front_stats) = bench::fig_rack::node_kill_probe(42);
    let mut out = String::new();
    for line in &event_log {
        out.push_str(line);
        out.push('\n');
    }
    for line in &front_stats {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&summary.to_json());
    out.push('\n');
    out
}

#[test]
fn rack_bench_json_and_chaos_log_are_byte_identical_across_processes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("{BEGIN_MARK}");
        print!("{}", rack_child_payload());
        println!("{END_MARK}");
        return;
    }
    let name = "rack_bench_json_and_chaos_log_are_byte_identical_across_processes";
    let a = run_child(name);
    let b = run_child(name);
    assert!(!a.trim().is_empty(), "child produced an empty payload");
    assert!(a.contains("\"figure\":\"rack\""), "payload lost the BENCH_rack JSON: {a}");
    assert!(a.contains("fault:"), "payload lost the rack chaos event log: {a}");
    assert!(a.contains("node_deaths="), "payload lost the rack front accounting: {a}");
    assert_eq!(a, b, "two OS processes disagreed on the same seeded rack run");
}

#[test]
fn chaos_log_and_bench_json_are_byte_identical_across_processes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("{BEGIN_MARK}");
        print!("{}", child_payload());
        println!("{END_MARK}");
        return;
    }
    let name = "chaos_log_and_bench_json_are_byte_identical_across_processes";
    let a = run_child(name);
    let b = run_child(name);
    assert!(!a.trim().is_empty(), "child produced an empty payload");
    assert!(a.contains("determinism_probe"), "payload lost the BENCH JSON: {a}");
    assert!(a.contains("fault:"), "payload lost the chaos event log: {a}");
    assert_eq!(a, b, "two OS processes disagreed on the same seeded run");
}
