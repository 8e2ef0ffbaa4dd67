//! The metric catalogue and the fold from repetition records to the
//! printed metrics.
//!
//! Every virtual-time value carries a `sim_` unit: it is what the modelled
//! machine delivers, deterministic per seed, and never to be read as host
//! time. Host-time values carry plain units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{RepRecord, Row, Workload};

/// Which clock a metric is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time or modelled state: bit-identical across repetitions.
    Virtual,
    /// Host time or memory: a median over repetitions.
    Host,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock it is measured in.
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef { name, unit, clock }
}

use Clock::{Host, Virtual};

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: [MetricDef; 7] = [
    def("lat_p50_ms", "sim_ms", Virtual),
    def("lat_p99_ms", "sim_ms", Virtual),
    def("ok_frac", "fraction", Virtual),
    def("wall_s", "s", Host),
    def("cpu_s", "s", Host),
    def("peak_rss_mib", "MiB", Host),
    def("setup_s", "s", Host),
];

/// Metrics of single layers, printed by every traced run. A layer the
/// workload bypasses reads zero; a `<workload>.` prefix marks an
/// end-to-end view only that workload defines.
pub const PER_LAYER: [MetricDef; 33] = [
    def("engine.events", "count", Virtual),
    def("engine.host_ns_per_event", "ns/event", Host),
    def("engine.sys_frac", "fraction", Host),
    def("rack.forwarded_frac", "fraction", Virtual),
    def("rack.forward_us_p50", "sim_us", Virtual),
    def("rack.submit_host_us", "us/call", Host),
    def("sched.submit_host_us", "us/call", Host),
    def("sched.reject_frac", "fraction", Virtual),
    def("sched.shed_frac", "fraction", Virtual),
    def("sched.warm_p99_ms", "sim_ms", Virtual),
    def("sched.cold_p99_ms", "sim_ms", Virtual),
    def("gateway.cold_frac", "fraction", Virtual),
    def("gateway.reaped", "count", Virtual),
    def("sandbox.cold_p50_ms", "sim_ms", Virtual),
    def("sandbox.pss_kib_per_instance", "sim_KiB", Virtual),
    def("nipc.hop_inline_us_p50", "sim_us", Virtual),
    def("nipc.hop_descriptor_us_p50", "sim_us", Virtual),
    def("shim.xpucalls", "count", Virtual),
    def("shim.batched_xcalls", "count", Virtual),
    def("shim.descriptor_handoffs", "count", Virtual),
    def("shim.bytes_elided", "bytes", Virtual),
    def("shim.fabric_transfers", "count", Virtual),
    def("oracle.steps", "count", Virtual),
    def("oracle.snapshot_host_us", "us/step", Host),
    def("oracle.check_host_us", "us/step", Host),
    def("oracle.host_frac", "fraction", Host),
    def("gen.late_max_ms", "sim_ms", Virtual),
    def("trace.overhead_frac", "fraction", Host),
    def("serve.sustained_rps", "sim_rps", Virtual),
    def("serve.slo_frac", "fraction", Virtual),
    def("churn.slo_frac", "fraction", Virtual),
    def("churn.pss_mib", "sim_MiB", Virtual),
    def("explore.schedules", "count", Virtual),
];

/// Record values measured in host time (everything else in a record is
/// virtual and must repeat exactly).
const HOST_VALUES: [&str; 11] = [
    "wall_s",
    "setup_s",
    "cpu_s",
    "user_s",
    "sys_s",
    "peak_rss_mib",
    "rack.submit_host_us",
    "sched.submit_host_us",
    "oracle.snapshot_host_us",
    "oracle.check_host_us",
    "oracle.host_frac",
];

/// Host metrics whose spread over the untraced repetitions is printed.
const SPREAD_METRICS: [&str; 6] = ["wall_s", "cpu_s", "user_s", "sys_s", "peak_rss_mib", "setup_s"];

/// `statistics.quantiles(values, n=4)` (the exclusive method) as
/// `(q1, median, q3)`; every part is the value itself for one sample and
/// zero for none.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `values` (zero for none).
fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Everything one benchmark run prints.
#[derive(Debug)]
pub struct Summary {
    /// No output check failed.
    pub correct: bool,
    /// Requests, rounds or trials offered over every repetition.
    pub attempted: u64,
    /// Of those, failed or lost.
    pub failed: u64,
    /// Failed output checks, deduplicated.
    pub errors: Vec<String>,
    /// `(name, value, unit)` of every printed metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(name, raw values)` of the host metrics over untraced repetitions.
    pub spreads: Vec<(&'static str, Vec<f64>)>,
    /// The first repetition's request accounting.
    pub rows: Vec<Row>,
    /// Repetitions folded, traced ones included.
    pub reps: usize,
    /// Of those, traced.
    pub traced_reps: usize,
}

/// Folds repetition records into the metrics one run prints: the
/// end-to-end catalogue when `trace` is off, the per-layer one when on.
///
/// Virtual values and request accounting must agree exactly across every
/// repetition, traced or not; host values are medians (per-call host
/// timings over traced repetitions, everything else over untraced ones).
pub fn summarize(workload: Workload, reps: &[RepRecord], trace: bool) -> Summary {
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    if reps.is_empty() {
        errors.push("no repetition ran".into());
    }
    let rows: Vec<Row> = reps.first().map(|r| r.rows.clone()).unwrap_or_default();
    let mut seen: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, rep) in reps.iter().enumerate() {
        if rep.rows != rows {
            errors.push(format!("{workload}: repetition {i} accounting differs from repetition 0"));
        }
        for (name, &v) in rep.values.iter().filter(|(k, _)| !HOST_VALUES.contains(&k.as_str())) {
            let f = *seen.entry(name).or_insert(v);
            if f.to_bits() != v.to_bits() {
                errors.push(format!(
                    "{workload}: virtual metric {name} differs across repetitions ({f} vs {v})"
                ));
            }
        }
    }

    let untraced: Vec<&RepRecord> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&RepRecord> = reps.iter().filter(|r| r.traced).collect();
    let over = |set: &[&RepRecord], f: &dyn Fn(&BTreeMap<String, f64>) -> Option<f64>| {
        median(&set.iter().filter_map(|r| f(&r.values)).collect::<Vec<_>>())
    };
    let get = |name: &'static str| move |v: &BTreeMap<String, f64>| v.get(name).copied();
    let virt = |name: &str| seen.get(name).copied().unwrap_or(0.0);

    let catalogue: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for m in catalogue {
        let value = match (m.name, m.clock) {
            ("engine.host_ns_per_event", _) => over(&untraced, &|v| {
                Some(v.get("wall_s")? * 1e9 / v.get("engine.events")?.max(1.0))
            }),
            ("engine.sys_frac", _) => over(&untraced, &|v| {
                let (user, sys) = (v.get("user_s")?, v.get("sys_s")?);
                Some(if user + sys > 0.0 { sys / (user + sys) } else { 0.0 })
            }),
            ("trace.overhead_frac", _) => {
                let base = over(&untraced, &get("wall_s"));
                if base > 0.0 {
                    over(&traced, &get("wall_s")) / base - 1.0
                } else {
                    0.0
                }
            }
            (name, Host) if HOST_VALUES.contains(&name) && !SPREAD_METRICS.contains(&name) => {
                over(&traced, &get(m.name))
            }
            (_, Host) => over(&untraced, &get(m.name)),
            (name, Virtual) => virt(name),
        };
        let value = if value.is_finite() {
            value
        } else {
            errors.push(format!("{workload}: metric {} is not finite", m.name));
            0.0
        };
        metrics.push((m.name, value, m.unit));
    }

    let mut unique: Vec<String> = Vec::new();
    for e in errors {
        if !unique.contains(&e) {
            unique.push(e);
        }
    }
    let errors = unique;

    let spreads = SPREAD_METRICS
        .iter()
        .map(|&name| (name, untraced.iter().filter_map(|r| r.values.get(name).copied()).collect()))
        .collect();
    let attempted = reps.iter().flat_map(|r| &r.rows).map(|r| r.issued).sum();
    let failed = reps.iter().flat_map(|r| &r.rows).map(|r| r.failed + r.lost).sum();
    Summary {
        correct: errors.is_empty(),
        attempted,
        failed,
        errors,
        metrics,
        spreads,
        rows,
        reps: reps.len(),
        traced_reps: traced.len(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Summary {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run block: conditions, host spreads and errors.
    pub fn run_json(&self, workload: Workload, seed: u64, cpu: usize, events: f64) -> String {
        let spreads: Vec<String> = self
            .spreads
            .iter()
            .map(|(name, raw)| {
                let (q1, med, q3) = quartiles(raw);
                let raw: Vec<String> = raw.iter().map(|v| json_num(*v)).collect();
                format!(
                    "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"raw\": [{}]}}",
                    json_str(name),
                    json_num(med),
                    json_num(q1),
                    json_num(q3),
                    raw.join(", ")
                )
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"run\": {{\"workload\": {}, \"seed\": {seed}, \"cpu\": {cpu}, \"events\": {}, \
             \"reps\": {}, \"traced_reps\": {}}}, \"host\": {{{}}}, \"errors\": [{}]}}",
            json_str(workload.name()),
            json_num(events),
            self.reps,
            self.traced_reps,
            spreads.join(", "),
            errors.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
