//! The schedule-exploration driver.
//!
//! [`explore`] runs one scenario body under many distinct interleavings by
//! varying only the engine's same-instant tie-break:
//!
//! * **Trial 0** replays the empty choice list — the default `(time, seq)`
//!   schedule, i.e. exactly what a plain `cargo test` run would execute.
//! * **Bounded DFS**: every replay-driven run's choice log spawns
//!   alternative prefixes (`chosen[..i] + [alt]` for each tie `i` at or past
//!   the current prefix and each non-default `alt`), subject to a
//!   *preemption bound* — at most `preemption_bound` non-default tie-breaks
//!   per schedule. Most concurrency bugs need only a handful of preemptions,
//!   so the bound turns an exponential space into a useful frontier.
//! * **Shuffled top-up**: once the DFS frontier drains (or alongside it,
//!   budget permitting), remaining trials run seed-derived random
//!   tie-breaks for long-tail coverage.
//!
//! Every run is replayable: the recorded choice log *is* the schedule. On a
//! violation the driver shrinks the choice list (and the chaos
//! [`FaultPlan`], for [`explore_faulty`]) to a minimal repro and prints a
//! `SIMCHECK_REPLAY=<blob>` artifact. Exporting that variable makes the
//! next [`explore`] call run exactly that one schedule — the debugging
//! loop closes without ever leaving the deterministic engine.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use hetsim::engine::{ChoicePoint, RunReport, SchedulePolicy, SimError, Simulation};
use molecule_chaos::FaultPlan;

use crate::policy::{ReplayPolicy, ShuffledPolicy};
use crate::shrink::{nonzero_choices, shrink_choices, shrink_plan};

/// A scenario's verdict closure: runs after the simulation with the engine
/// outcome, turns the evidence the scenario collected into pass/fail.
pub type Check = Box<dyn FnOnce(&Result<RunReport, SimError>) -> Result<(), String>>;

/// Per-run engine event limit (guards against livelocking schedules).
const EVENT_LIMIT: u64 = 2_000_000;

/// Exploration budget.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Total schedules to run (DFS + shuffled top-up), minimum 1.
    pub trials: usize,
    /// Base seed for the shuffled top-up schedules.
    pub seed: u64,
    /// Maximum non-default tie-breaks per DFS-generated schedule.
    pub preemption_bound: usize,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions { trials: 256, seed: 0x5eed_c0de, preemption_bound: 3 }
    }
}

/// What [`explore`] found.
#[derive(Debug)]
pub struct ExploreReport {
    /// Schedules actually executed (≤ `trials`; 1 under `SIMCHECK_REPLAY`).
    pub trials_run: usize,
    /// Distinct schedules among them, keyed by the full choice log — the
    /// honest coverage number (random seeds can collide on small spaces).
    pub distinct_schedules: usize,
    /// The first violation, already shrunk, or `None` if every run passed.
    pub violation: Option<ViolationReport>,
}

impl ExploreReport {
    /// Panics with the replay artifact if a violation was found.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "schedule exploration found a violation: {}\n  replay with SIMCHECK_REPLAY={}\n  minimal plan: {:?}",
                v.message, v.replay, v.plan
            );
        }
    }
}

/// A shrunk, replayable counterexample.
#[derive(Debug)]
pub struct ViolationReport {
    /// The oracle's message from the *minimal* repro.
    pub message: String,
    /// Minimal schedule choice list (replay it with
    /// [`ReplayPolicy`]).
    pub choices: Vec<u32>,
    /// Minimal fault plan (every surviving event is necessary).
    pub plan: FaultPlan,
    /// The `SIMCHECK_REPLAY` blob encoding `choices`.
    pub replay: String,
}

/// Encodes a choice list as a `SIMCHECK_REPLAY` blob:
/// `v1:<len>:<i.c,i.c,...>` with one `i.c` entry per nonzero choice.
pub fn encode_replay(choices: &[u32]) -> String {
    let entries: Vec<String> = choices
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0)
        .map(|(i, c)| format!("{i}.{c}"))
        .collect();
    format!("v1:{}:{}", choices.len(), entries.join(","))
}

/// Decodes a [`encode_replay`] blob back into a choice list.
///
/// # Errors
///
/// A description of the malformed field.
pub fn decode_replay(blob: &str) -> Result<Vec<u32>, String> {
    let rest = blob.strip_prefix("v1:").ok_or("replay blob must start with \"v1:\"")?;
    let (len, entries) = rest.split_once(':').ok_or("replay blob missing \":\" after length")?;
    let len: usize = len.parse().map_err(|e| format!("bad replay length {len:?}: {e}"))?;
    let mut choices = vec![0u32; len];
    for entry in entries.split(',').filter(|e| !e.is_empty()) {
        let (i, c) = entry.split_once('.').ok_or_else(|| format!("bad replay entry {entry:?}"))?;
        let i: usize = i.parse().map_err(|e| format!("bad replay index {i:?}: {e}"))?;
        let c: u32 = c.parse().map_err(|e| format!("bad replay choice {c:?}: {e}"))?;
        if i >= len {
            return Err(format!("replay index {i} out of range (len {len})"));
        }
        choices[i] = c;
    }
    Ok(choices)
}

/// Explores `scenario` under [`ExploreOptions::trials`] schedules with no
/// fault injection. See the [crate docs](crate) for the scenario contract.
pub fn explore<S>(opts: &ExploreOptions, mut scenario: S) -> ExploreReport
where
    S: FnMut(&mut Simulation) -> Check,
{
    explore_faulty(opts, FaultPlan::new(opts.seed), move |sim, _plan| scenario(sim))
}

/// Explores `scenario` under schedule *and* fault-plan variation. The
/// scenario receives the plan to install into whatever fault plane it
/// builds; on violation both the schedule and the plan are shrunk.
pub fn explore_faulty<S>(opts: &ExploreOptions, plan: FaultPlan, mut scenario: S) -> ExploreReport
where
    S: FnMut(&mut Simulation, &FaultPlan) -> Check,
{
    // Operator-driven replay short-circuits the whole search: one schedule,
    // verbatim, no shrinking (the blob already is the minimal repro).
    if let Ok(blob) = std::env::var("SIMCHECK_REPLAY") {
        let choices = decode_replay(&blob).unwrap_or_else(|e| panic!("SIMCHECK_REPLAY: {e}"));
        let (verdict, log) = run_once(&mut scenario, &plan, replay(&choices));
        let violation = verdict.err().map(|message| ViolationReport {
            message,
            replay: encode_replay(&choices),
            choices,
            plan: plan.clone(),
        });
        return ExploreReport {
            trials_run: 1,
            distinct_schedules: usize::from(!log.is_empty()),
            violation,
        };
    }

    let trials = opts.trials.max(1);
    let mut seen = HashSet::new(); // full-schedule signatures
    let mut tried = HashSet::new(); // DFS prefixes already dispatched
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()]; // trial 0: default schedule
    tried.insert(Vec::new());
    let mut trials_run = 0;

    while trials_run < trials {
        // DFS children are speculative: replaying a mutated prefix can
        // reshape later ties, so clamped candidates collide on already-seen
        // schedules. Cap DFS at a quarter of the budget and spend the rest
        // on shuffled runs, which are near-collision-free in a large space.
        let prefix = if trials_run * 4 <= trials { stack.pop() } else { None };
        let policy: Box<dyn SchedulePolicy> = match &prefix {
            Some(p) => replay(p),
            None => Box::new(ShuffledPolicy::new(opts.seed ^ trials_run as u64)),
        };
        let (verdict, log) = run_once(&mut scenario, &plan, policy);
        trials_run += 1;
        seen.insert(signature(&log));

        if let Err(message) = verdict {
            let choices: Vec<u32> = log.iter().map(|c| c.chosen).collect();
            let violation = build_violation(&plan, &mut scenario, message, choices);
            return ExploreReport {
                trials_run,
                distinct_schedules: seen.len(),
                violation: Some(violation),
            };
        }

        // Expand the DFS frontier from replay-driven runs only: a shuffled
        // log is mostly non-default already, so its children blow past the
        // preemption bound and add little.
        if let Some(prefix) = prefix {
            for (i, point) in log.iter().enumerate() {
                if i < prefix.len() || stack.len() >= 4096 {
                    continue;
                }
                for alt in 1..point.arity {
                    let mut candidate: Vec<u32> = log[..i].iter().map(|c| c.chosen).collect();
                    candidate.push(alt);
                    if nonzero_choices(&candidate) <= opts.preemption_bound
                        && tried.insert(candidate.clone())
                    {
                        stack.push(candidate);
                    }
                }
            }
        }
    }

    ExploreReport { trials_run, distinct_schedules: seen.len(), violation: None }
}

fn build_violation<S>(
    plan: &FaultPlan,
    scenario: &mut S,
    message: String,
    choices: Vec<u32>,
) -> ViolationReport
where
    S: FnMut(&mut Simulation, &FaultPlan) -> Check,
{
    let choices =
        shrink_choices(choices, |candidate| run_once(scenario, plan, replay(candidate)).0.is_err());
    let plan = shrink_plan(plan.clone(), |candidate| {
        run_once(scenario, candidate, replay(&choices)).0.is_err()
    });
    // Re-run the minimal repro for its (possibly reworded) message.
    let message = run_once(scenario, &plan, replay(&choices)).0.err().unwrap_or(message);
    let replay_blob = encode_replay(&choices);
    eprintln!(
        "simcheck: violation: {message}\nsimcheck: replay with SIMCHECK_REPLAY={replay_blob}\nsimcheck: minimal plan: {plan:?}"
    );
    ViolationReport { message, choices, plan, replay: replay_blob }
}

fn replay(choices: &[u32]) -> Box<dyn SchedulePolicy> {
    Box::new(ReplayPolicy::new(choices.to_vec()))
}

fn run_once<S>(
    scenario: &mut S,
    plan: &FaultPlan,
    policy: Box<dyn SchedulePolicy>,
) -> (Result<(), String>, Vec<ChoicePoint>)
where
    S: FnMut(&mut Simulation, &FaultPlan) -> Check,
{
    let mut sim = Simulation::new();
    sim.set_event_limit(EVENT_LIMIT);
    sim.set_schedule_policy(policy);
    let check = scenario(&mut sim, plan);
    let result = sim.run();
    let log = sim.take_choice_log();
    (check(&result), log)
}

fn signature(log: &[ChoicePoint]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    log.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_blob_round_trips() {
        for choices in [vec![], vec![0, 0, 3], vec![1, 0, 0, 2, 0]] {
            let blob = encode_replay(&choices);
            assert_eq!(decode_replay(&blob).unwrap(), choices, "blob {blob}");
        }
        assert_eq!(encode_replay(&[0, 2, 0, 1]), "v1:4:1.2,3.1");
        assert!(decode_replay("v0:1:").is_err());
        assert!(decode_replay("v1:2:5.1").is_err(), "index past len");
    }

    #[test]
    fn explores_both_orders_of_a_two_writer_race() {
        let opts = ExploreOptions { trials: 32, ..ExploreOptions::default() };
        let mut orders = HashSet::new();
        let report = explore(&opts, |sim| {
            let (tx, rx) = sim.channel::<u32>();
            let tx2 = tx.clone();
            sim.spawn("a", move |_| tx.send(1).unwrap());
            sim.spawn("b", move |_| tx2.send(2).unwrap());
            let h = sim.spawn("r", move |ctx| (rx.recv(ctx).unwrap(), rx.recv(ctx).unwrap()));
            Box::new(move |result| {
                result.as_ref().map_err(|e| e.to_string())?;
                let pair = h.take_result().unwrap();
                if pair.0 + pair.1 == 3 {
                    Ok(())
                } else {
                    Err(format!("lost: {pair:?}"))
                }
            })
        });
        // Re-run per schedule to collect orders through a second exploration
        // would race with the driver; instead trust distinct_schedules.
        orders.insert(report.distinct_schedules);
        assert!(report.violation.is_none());
        assert!(report.distinct_schedules >= 2, "only {} schedules", report.distinct_schedules);
        assert!(report.trials_run <= 32);
    }

    #[test]
    fn catches_and_shrinks_a_planted_order_bug() {
        // "Bug": the scenario fails iff writer b's message is consumed
        // first — i.e. only under a non-default tie-break. Exploration must
        // find it and shrink to a single nonzero choice.
        let opts = ExploreOptions { trials: 64, ..ExploreOptions::default() };
        let report = explore(&opts, |sim| {
            let (tx, rx) = sim.channel::<u32>();
            let tx2 = tx.clone();
            sim.spawn("a", move |_| tx.send(1).unwrap());
            sim.spawn("b", move |_| tx2.send(2).unwrap());
            let h = sim.spawn("r", move |ctx| (rx.recv(ctx).unwrap(), rx.recv(ctx).unwrap()));
            Box::new(move |result| {
                result.as_ref().map_err(|e| e.to_string())?;
                match h.take_result().unwrap() {
                    (2, _) => Err("b overtook a".into()),
                    _ => Ok(()),
                }
            })
        });
        let v = report.violation.expect("planted bug must be found");
        assert!(v.message.contains("b overtook a"));
        // Reordering b's start/send ahead of a's among three t=0 processes
        // takes two tie-flips; anything beyond that must shrink away.
        assert!(nonzero_choices(&v.choices) <= 2, "not minimal: {:?}", v.choices);
        let replayed = decode_replay(&v.replay).unwrap();
        assert_eq!(replayed, v.choices, "blob round-trips the minimal repro");
    }
}
