//! Smoke test: every workload at a tiny size through the library API.

use std::time::SystemTime;

use molecule_benchmark::report::summarize;
use molecule_benchmark::{measure_rep, Params, RepRecord, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> RepRecord {
    let rec = measure_rep(workload, seed, &Params::smoke(), trace, SystemTime::now());
    assert!(rec.errors.is_empty(), "{workload} seed {seed}: {:?}", rec.errors);
    assert!(!rec.rows.is_empty(), "{workload}: no accounting rows");
    for row in &rec.rows {
        assert_eq!(row.lost, 0, "{workload} seed {seed}: lost requests in {row:?}");
        assert!(row.conserved(), "{workload} seed {seed}: {row:?} does not conserve");
    }
    rec
}

#[test]
fn virtual_metrics_repeat_across_runs_traced_or_not() {
    for w in Workload::ALL {
        let reps = [smoke(w, 1, false), smoke(w, 1, true)];
        let summary = summarize(w, &reps, false);
        assert!(summary.correct, "{w}: {:?}", summary.errors);
    }
}

#[test]
fn explore_is_clean() {
    let rec = smoke(Workload::Explore, 3, false);
    let trials = &rec.rows[0];
    assert_eq!(trials.failed, 0, "{trials:?}");
    assert_eq!(trials.completed, Params::smoke().explore_trials as u64);
    assert!(rec.values["explore.schedules"] >= 2.0, "{:?}", rec.values);
}

#[test]
fn a_second_seed_still_conserves() {
    for w in Workload::ALL {
        smoke(w, 2, false);
    }
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string closes");
        rest[open..open + len].to_owned()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for w in Workload::ALL {
        let reps = [smoke(w, 1, false), smoke(w, 1, true)];
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let got: Vec<(String, String)> = summarize(w, &reps, trace)
                .metrics
                .iter()
                .map(|(name, _, unit)| ((*name).to_owned(), (*unit).to_owned()))
                .collect();
            assert_eq!(&got, want, "{w} with trace {trace}");
        }
    }
}
