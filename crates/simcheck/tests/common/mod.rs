//! The suites' per-step oracles two ways: epoch-gated, as the library
//! installs them, and audited, a test-only twin that snapshots and checks
//! everything on every step.
//!
//! Each suite builds its oracle through [`Watch`], so
//! [`assert_gating_sound`] can run the same scenario under both and
//! demand that
//!
//! * no step leaves an epoch in place while changing the snapshot it
//!   covers (the audit compares every step's snapshots with the previous
//!   step's), and
//! * both give the same verdict, first violating step included.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::engine::Simulation;
use molecule_simcheck::explore::Check;
use molecule_simcheck::{
    check_snapshot, check_state, ClusterOracle, OracleConfig, ShuffledPolicy, StateHistory,
    StateOracle,
};
use molecule_state::{StateLayer, StateSnapshot};
use xpu_shim::{ClusterSnapshot, ShimCluster};

/// Schedules per scenario in [`assert_gating_sound`]: the default
/// tie-break plus shuffled ones.
const SCHEDULES: u64 = 6;

/// How a scenario's per-step oracle watches the system.
pub enum Watch {
    /// The library oracle: checks only the steps that moved an epoch.
    Gated,
    /// The audited full check. Each step whose epoch stayed put but whose
    /// snapshot changed is described in the sink.
    Audited(Rc<RefCell<Vec<String>>>),
}

impl Watch {
    /// The per-step cluster oracle.
    pub fn cluster(self, sim: &mut Simulation, cluster: &ShimCluster, cfg: OracleConfig) -> Oracle {
        match self {
            Watch::Gated => Oracle::Cluster(ClusterOracle::install(sim, cluster, cfg)),
            Watch::Audited(unsound) => Audit::install(sim, cluster, None, cfg, unsound),
        }
    }

    /// The per-step cluster and state oracle.
    pub fn state(
        self,
        sim: &mut Simulation,
        cluster: &ShimCluster,
        layer: &StateLayer,
        cfg: OracleConfig,
    ) -> Oracle {
        match self {
            Watch::Gated => Oracle::State(StateOracle::install(sim, cluster, layer, cfg)),
            Watch::Audited(unsound) => Audit::install(sim, cluster, Some(layer), cfg, unsound),
        }
    }
}

/// An installed oracle of either kind.
pub enum Oracle {
    Cluster(ClusterOracle),
    State(StateOracle),
    Audited(Rc<RefCell<Audit>>),
}

impl Oracle {
    /// The oracle's verdict, with the first violating step appended to a
    /// per-step violation so that two watches' verdicts compare in full.
    pub fn verdict(&self, require_empty_arena: bool) -> Result<(), String> {
        let (verdict, step) = match self {
            Oracle::Cluster(o) => (o.verdict(require_empty_arena), o.violation_step()),
            Oracle::State(o) => (o.verdict(require_empty_arena), o.violation_step()),
            Oracle::Audited(a) => {
                let mut a = a.borrow_mut();
                (a.verdict(require_empty_arena), a.violation.as_ref().map(|(step, _)| *step))
            }
        };
        verdict.map_err(|v| match step {
            Some(step) => format!("{v} (first violation at step {step})"),
            None => v,
        })
    }
}

/// The full-check twin: every step it snapshots both halves, checks them
/// until the first violation, and compares them with the previous step's.
pub struct Audit {
    cluster: ShimCluster,
    layer: Option<StateLayer>,
    cfg: OracleConfig,
    history: StateHistory,
    steps: u64,
    violation: Option<(u64, String)>,
    prev: Option<Epochs>,
    unsound: Rc<RefCell<Vec<String>>>,
}

/// One step's epochs and snapshots.
struct Epochs {
    cluster: (u64, ClusterSnapshot),
    state: Option<(u64, StateSnapshot)>,
}

impl Audit {
    fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        layer: Option<&StateLayer>,
        cfg: OracleConfig,
        unsound: Rc<RefCell<Vec<String>>>,
    ) -> Oracle {
        let audit = Rc::new(RefCell::new(Audit {
            cluster: cluster.clone(),
            layer: layer.cloned(),
            cfg,
            history: StateHistory::new(),
            steps: 0,
            violation: None,
            prev: None,
            unsound,
        }));
        let observed = Rc::clone(&audit);
        sim.set_step_observer(Box::new(move || observed.borrow_mut().step()));
        Oracle::Audited(audit)
    }

    fn step(&mut self) {
        self.steps += 1;
        let now = Epochs {
            cluster: (self.cluster.epoch(), self.cluster.snapshot()),
            state: self.layer.as_ref().map(|l| (l.epoch(), l.snapshot())),
        };
        if let Some(prev) = &self.prev {
            if prev.cluster.0 == now.cluster.0 && prev.cluster.1 != now.cluster.1 {
                self.unsound.borrow_mut().push(format!(
                    "step {}: cluster epoch stayed at {} but its snapshot changed",
                    self.steps, now.cluster.0
                ));
            }
            if let (Some((was, before)), Some((is, after))) = (&prev.state, &now.state) {
                if was == is && before != after {
                    self.unsound.borrow_mut().push(format!(
                        "step {}: state epoch stayed at {is} but its snapshot changed",
                        self.steps
                    ));
                }
            }
        }
        if self.violation.is_none() {
            let outcome =
                check_snapshot(&now.cluster.1, &self.cfg).and_then(|()| match &now.state {
                    Some((_, snap)) => check_state(snap, &mut self.history),
                    None => Ok(()),
                });
            if let Err(v) = outcome {
                self.violation = Some((self.steps, v));
            }
        }
        self.prev = Some(now);
    }

    /// The library oracles' verdict, computed the same way.
    fn verdict(&mut self, require_empty_arena: bool) -> Result<(), String> {
        if let Some((_, v)) = &self.violation {
            return Err(format!("[step] {v}"));
        }
        let snap = self.cluster.snapshot();
        check_snapshot(&snap, &self.cfg).map_err(|v| format!("[quiescence] {v}"))?;
        if let Some(layer) = &self.layer {
            check_state(&layer.snapshot(), &mut self.history)
                .map_err(|v| format!("[quiescence] {v}"))?;
        }
        if require_empty_arena && snap.outstanding_segments != 0 {
            return Err(format!(
                "[quiescence] arena holds {} unresolved slot(s): {:?}",
                snap.outstanding_segments, snap.parked_segments
            ));
        }
        Ok(())
    }
}

/// Runs `scenario` once under `watch` on schedule `schedule` (0 is the
/// default tie-break, any other value seeds a shuffled one) and returns
/// its check's verdict.
fn run_watched<S>(scenario: &mut S, schedule: u64, watch: Watch) -> Result<(), String>
where
    S: FnMut(&mut Simulation, Watch) -> Check,
{
    let mut sim = Simulation::new();
    if schedule > 0 {
        sim.set_schedule_policy(Box::new(ShuffledPolicy::new(schedule)));
    }
    let check = scenario(&mut sim, watch);
    let result = sim.run();
    check(&result)
}

/// Runs `scenario` on a few schedules, each once gated and once audited,
/// and asserts that no step was skipped unsoundly and that both watches
/// agree on the verdict and the first violating step. Returns the
/// verdicts, one per schedule.
pub fn assert_gating_sound<S>(mut scenario: S) -> Vec<Result<(), String>>
where
    S: FnMut(&mut Simulation, Watch) -> Check,
{
    let mut verdicts = Vec::new();
    for schedule in 0..SCHEDULES {
        let gated = run_watched(&mut scenario, schedule, Watch::Gated);
        let unsound = Rc::new(RefCell::new(Vec::new()));
        let audited = run_watched(&mut scenario, schedule, Watch::Audited(Rc::clone(&unsound)));
        let unsound = unsound.borrow();
        assert!(
            unsound.is_empty(),
            "schedule {schedule}: {} step(s) changed a snapshot without moving its epoch: {:?}",
            unsound.len(),
            &unsound[..unsound.len().min(3)]
        );
        assert_eq!(gated, audited, "schedule {schedule}: gated and full-check verdicts differ");
        verdicts.push(gated);
    }
    verdicts
}
