//! Deterministic fault-injection plane.
//!
//! A [`FaultPlane`] is a shared, seedable record of everything currently
//! wrong with the machine: dead or hung PUs, degraded or partitioned links,
//! lossy/duplicating FIFO paths, and FPGA bitstream loads doomed to fail.
//! The plane holds *state only* — faults are scheduled in virtual time by
//! the `molecule-chaos` crate and consulted by the layers above (`xpu-shim`,
//! `vsandbox`, `molecule-core`) on their normal fast paths.
//!
//! Two properties are load-bearing:
//!
//! * **zero-cost when quiet** — an unconfigured plane changes no latency and
//!   no behaviour, so every calibrated figure in the test suite holds. The
//!   quiet check is one relaxed atomic load (`armed` lives outside the
//!   mutex), so the per-hop queries every nIPC message makes are free until
//!   a chaos plan arms the plane;
//! * **deterministic** — all randomness (message loss/duplication sampling)
//!   comes from one seeded generator, and every fault *and* recovery event
//!   is appended to a single ordered event log, so a scenario replays
//!   byte-identically under the same seed. Internally the per-kind tables
//!   are hash maps (point lookups only); anywhere order *is* observable —
//!   [`dead_pus`](FaultPlane::dead_pus), `Debug` — results are sorted.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pu::PuId;
use crate::time::SimTime;

/// Ordered pair key for directed link faults.
type LinkKey = (PuId, PuId);

#[derive(Debug)]
struct PlaneState {
    seed: u64,
    rng: StdRng,
    dead: HashMap<PuId, SimTime>,
    hung_until: HashMap<PuId, SimTime>,
    degraded: HashMap<LinkKey, f64>,
    partitioned: HashSet<LinkKey>,
    fifo_loss: HashMap<LinkKey, f64>,
    fifo_dup: HashMap<LinkKey, f64>,
    fpga_load_budget: HashMap<PuId, u32>,
    log: Vec<String>,
}

struct PlaneInner {
    /// Any fault ever configured? Sticky dirty flag, readable without the
    /// state lock: the quiet fast path is a single relaxed atomic load.
    armed: AtomicBool,
    state: Mutex<PlaneState>,
}

impl PlaneState {
    fn new(seed: u64) -> PlaneState {
        PlaneState {
            seed,
            rng: StdRng::seed_from_u64(seed),
            dead: HashMap::new(),
            hung_until: HashMap::new(),
            degraded: HashMap::new(),
            partitioned: HashSet::new(),
            fifo_loss: HashMap::new(),
            fifo_dup: HashMap::new(),
            fpga_load_budget: HashMap::new(),
            log: Vec::new(),
        }
    }

    fn note(&mut self, now: SimTime, msg: &str) {
        self.log.push(format!("[{:>12}ns] {msg}", now.as_nanos()));
    }
}

/// The machine's fault state. Cheap to clone; clones share state.
///
/// # Examples
///
/// ```
/// use hetsim::fault::FaultPlane;
/// use hetsim::pu::PuId;
/// use hetsim::time::SimTime;
///
/// let plane = FaultPlane::new();
/// assert!(plane.is_quiet());
/// plane.kill_pu(SimTime::ZERO, PuId(1));
/// assert!(plane.is_dead(PuId(1)));
/// assert_eq!(plane.event_log().len(), 1);
/// ```
#[derive(Clone)]
pub struct FaultPlane {
    inner: Arc<PlaneInner>,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::new()
    }
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        let mut dead: Vec<PuId> = st.dead.keys().copied().collect();
        dead.sort();
        f.debug_struct("FaultPlane")
            .field("seed", &st.seed)
            .field("dead", &dead)
            .field("events", &st.log.len())
            .finish()
    }
}

impl FaultPlane {
    /// An empty (quiet) plane with seed 0.
    pub fn new() -> FaultPlane {
        FaultPlane::with_seed(0)
    }

    /// An empty plane whose loss/duplication sampling is driven by `seed`.
    pub fn with_seed(seed: u64) -> FaultPlane {
        FaultPlane {
            inner: Arc::new(PlaneInner {
                armed: AtomicBool::new(false),
                state: Mutex::new(PlaneState::new(seed)),
            }),
        }
    }

    /// Marks the plane armed; called by every fault-configuring entry point.
    fn arm(&self) {
        self.inner.armed.store(true, Ordering::SeqCst);
    }

    /// The quiet fast path: true while no fault has ever been configured,
    /// answered without taking the state lock.
    #[inline]
    fn quiet(&self) -> bool {
        !self.inner.armed.load(Ordering::Relaxed)
    }

    /// Resets the sampling generator (and records the seed). Scenario setup
    /// calls this so the same `FaultPlan` seed always produces the same
    /// loss/duplication pattern.
    pub fn reseed(&self, seed: u64) {
        let mut st = self.inner.state.lock();
        st.seed = seed;
        st.rng = StdRng::seed_from_u64(seed);
    }

    /// The current sampling seed.
    pub fn seed(&self) -> u64 {
        self.inner.state.lock().seed
    }

    /// True while no fault has ever been configured: the plane is guaranteed
    /// not to change behaviour or latency. Lock-free (one atomic load).
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.quiet()
    }

    // ---- PU crash / hang ----

    /// Marks `pu` crashed at `now`. Idempotent.
    pub fn kill_pu(&self, now: SimTime, pu: PuId) {
        self.arm();
        let mut st = self.inner.state.lock();
        if st.dead.insert(pu, now).is_none() {
            st.note(now, &format!("fault: kill {pu}"));
        }
    }

    /// Revives a crashed PU (used to model flapping).
    pub fn revive_pu(&self, now: SimTime, pu: PuId) {
        let mut st = self.inner.state.lock();
        if st.dead.remove(&pu).is_some() {
            st.note(now, &format!("fault: revive {pu}"));
        }
    }

    /// True if `pu` is currently crashed.
    #[inline]
    pub fn is_dead(&self, pu: PuId) -> bool {
        if self.quiet() {
            return false;
        }
        self.inner.state.lock().dead.contains_key(&pu)
    }

    /// When `pu` crashed, if it is dead.
    pub fn death_time(&self, pu: PuId) -> Option<SimTime> {
        if self.quiet() {
            return None;
        }
        self.inner.state.lock().dead.get(&pu).copied()
    }

    /// All currently dead PUs, in id order.
    pub fn dead_pus(&self) -> Vec<PuId> {
        let mut v: Vec<PuId> = self.inner.state.lock().dead.keys().copied().collect();
        v.sort();
        v
    }

    /// Hangs `pu` (alive but unresponsive) until `now + for_`.
    pub fn hang_pu(&self, now: SimTime, pu: PuId, for_: crate::time::SimDuration) {
        self.arm();
        let mut st = self.inner.state.lock();
        st.hung_until.insert(pu, now + for_);
        st.note(now, &format!("fault: hang {pu} for {}us", for_.as_micros_f64()));
    }

    /// If `pu` is hung at `now`, the instant it becomes responsive again.
    /// Expired hang windows are cleared on query.
    pub fn hang_until(&self, now: SimTime, pu: PuId) -> Option<SimTime> {
        if self.quiet() {
            return None;
        }
        let mut st = self.inner.state.lock();
        match st.hung_until.get(&pu).copied() {
            Some(until) if until > now => Some(until),
            Some(_) => {
                st.hung_until.remove(&pu);
                None
            }
            None => None,
        }
    }

    // ---- interconnect ----

    /// Multiplies the latency (and divides the bandwidth) of the link
    /// `a <-> b` by `factor` (both directions).
    pub fn degrade_link(&self, now: SimTime, a: PuId, b: PuId, factor: f64) {
        self.arm();
        let mut st = self.inner.state.lock();
        st.degraded.insert((a, b), factor);
        st.degraded.insert((b, a), factor);
        st.note(now, &format!("fault: degrade {a}<->{b} x{factor}"));
    }

    /// Removes any degradation on `a <-> b`.
    pub fn heal_link(&self, now: SimTime, a: PuId, b: PuId) {
        let mut st = self.inner.state.lock();
        let had = st.degraded.remove(&(a, b)).is_some() | st.degraded.remove(&(b, a)).is_some();
        if had {
            st.note(now, &format!("fault: heal {a}<->{b}"));
        }
    }

    /// The degradation factor on `from -> to` (1.0 when healthy).
    #[inline]
    pub fn link_factor(&self, from: PuId, to: PuId) -> f64 {
        if self.quiet() {
            return 1.0;
        }
        self.inner.state.lock().degraded.get(&(from, to)).copied().unwrap_or(1.0)
    }

    /// Cuts the link `a <-> b`: traffic between the pair stops entirely.
    pub fn partition(&self, now: SimTime, a: PuId, b: PuId) {
        self.arm();
        let mut st = self.inner.state.lock();
        st.partitioned.insert((a, b));
        st.partitioned.insert((b, a));
        st.note(now, &format!("fault: partition {a}<->{b}"));
    }

    /// Restores a partitioned pair.
    pub fn heal_partition(&self, now: SimTime, a: PuId, b: PuId) {
        let mut st = self.inner.state.lock();
        let had = st.partitioned.remove(&(a, b)) | st.partitioned.remove(&(b, a));
        if had {
            st.note(now, &format!("fault: heal-partition {a}<->{b}"));
        }
    }

    /// True if the pair is currently partitioned.
    #[inline]
    pub fn is_partitioned(&self, from: PuId, to: PuId) -> bool {
        if self.quiet() {
            return false;
        }
        self.inner.state.lock().partitioned.contains(&(from, to))
    }

    // ---- FIFO message faults ----

    /// Sets the probability that a message `from -> to` is silently dropped.
    pub fn set_fifo_loss(&self, now: SimTime, from: PuId, to: PuId, p: f64) {
        self.arm();
        let mut st = self.inner.state.lock();
        if p > 0.0 {
            st.fifo_loss.insert((from, to), p);
        } else {
            st.fifo_loss.remove(&(from, to));
        }
        st.note(now, &format!("fault: fifo-loss {from}->{to} p={p}"));
    }

    /// Sets the probability that a message `from -> to` is delivered twice.
    pub fn set_fifo_dup(&self, now: SimTime, from: PuId, to: PuId, p: f64) {
        self.arm();
        let mut st = self.inner.state.lock();
        if p > 0.0 {
            st.fifo_dup.insert((from, to), p);
        } else {
            st.fifo_dup.remove(&(from, to));
        }
        st.note(now, &format!("fault: fifo-dup {from}->{to} p={p}"));
    }

    /// Samples whether the next message `from -> to` is lost.
    #[inline]
    pub fn sample_fifo_loss(&self, from: PuId, to: PuId) -> bool {
        if self.quiet() {
            return false;
        }
        let mut st = self.inner.state.lock();
        match st.fifo_loss.get(&(from, to)).copied() {
            Some(p) => st.rng.gen_bool(p),
            None => false,
        }
    }

    /// Samples whether the next message `from -> to` is duplicated.
    #[inline]
    pub fn sample_fifo_dup(&self, from: PuId, to: PuId) -> bool {
        if self.quiet() {
            return false;
        }
        let mut st = self.inner.state.lock();
        match st.fifo_dup.get(&(from, to)).copied() {
            Some(p) => st.rng.gen_bool(p),
            None => false,
        }
    }

    // ---- FPGA ----

    /// Arranges for the next `count` bitstream loads on `pu` to fail.
    pub fn fail_fpga_loads(&self, now: SimTime, pu: PuId, count: u32) {
        self.arm();
        let mut st = self.inner.state.lock();
        *st.fpga_load_budget.entry(pu).or_insert(0) += count;
        st.note(now, &format!("fault: fpga-load-fail {pu} x{count}"));
    }

    /// Consumes one injected load failure for `pu`, if any remain.
    #[inline]
    pub fn take_fpga_load_failure(&self, pu: PuId) -> bool {
        if self.quiet() {
            return false;
        }
        let mut st = self.inner.state.lock();
        match st.fpga_load_budget.get_mut(&pu) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    // ---- event log ----

    /// Appends a (recovery or fault) event to the ordered log. The log is
    /// the replay artifact: same seed + same schedule ⇒ identical log.
    pub fn note(&self, now: SimTime, msg: &str) {
        self.inner.state.lock().note(now, msg);
    }

    /// The ordered fault/recovery event log.
    pub fn event_log(&self) -> Vec<String> {
        self.inner.state.lock().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn quiet_plane_answers_every_query_negatively() {
        let p = FaultPlane::new();
        assert!(p.is_quiet());
        assert!(!p.is_dead(PuId(1)));
        assert!(p.hang_until(SimTime::ZERO, PuId(1)).is_none());
        assert_eq!(p.link_factor(PuId(0), PuId(1)), 1.0);
        assert!(!p.is_partitioned(PuId(0), PuId(1)));
        assert!(!p.sample_fifo_loss(PuId(0), PuId(1)));
        assert!(!p.sample_fifo_dup(PuId(0), PuId(1)));
        assert!(!p.take_fpga_load_failure(PuId(3)));
        assert!(p.event_log().is_empty());
    }

    #[test]
    fn kill_and_revive_round_trip() {
        let p = FaultPlane::new();
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        p.kill_pu(t, PuId(1));
        assert!(p.is_dead(PuId(1)));
        assert_eq!(p.death_time(PuId(1)), Some(t));
        assert_eq!(p.dead_pus(), vec![PuId(1)]);
        p.kill_pu(t, PuId(1)); // idempotent: no duplicate log entry
        p.revive_pu(t + SimDuration::from_millis(1), PuId(1));
        assert!(!p.is_dead(PuId(1)));
        assert_eq!(p.event_log().len(), 2);
    }

    #[test]
    fn hang_windows_expire() {
        let p = FaultPlane::new();
        let t0 = SimTime::ZERO;
        p.hang_pu(t0, PuId(2), SimDuration::from_micros(100));
        let until = p.hang_until(t0, PuId(2)).unwrap();
        assert_eq!(until, t0 + SimDuration::from_micros(100));
        assert!(p.hang_until(until, PuId(2)).is_none(), "expired window clears");
        assert!(p.hang_until(until, PuId(2)).is_none());
    }

    #[test]
    fn degradation_applies_both_directions_until_healed() {
        let p = FaultPlane::new();
        p.degrade_link(SimTime::ZERO, PuId(0), PuId(1), 4.0);
        assert_eq!(p.link_factor(PuId(0), PuId(1)), 4.0);
        assert_eq!(p.link_factor(PuId(1), PuId(0)), 4.0);
        assert_eq!(p.link_factor(PuId(0), PuId(2)), 1.0);
        p.heal_link(SimTime::ZERO, PuId(1), PuId(0));
        assert_eq!(p.link_factor(PuId(0), PuId(1)), 1.0);
    }

    #[test]
    fn loss_sampling_is_deterministic_per_seed() {
        let sample = |seed: u64| {
            let p = FaultPlane::with_seed(seed);
            p.set_fifo_loss(SimTime::ZERO, PuId(1), PuId(0), 0.5);
            (0..64).map(|_| p.sample_fifo_loss(PuId(1), PuId(0))).collect::<Vec<bool>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8), "different seeds diverge");
        assert!(sample(7).iter().any(|&b| b) && sample(7).iter().any(|&b| !b));
    }

    #[test]
    fn fpga_load_budget_is_consumed_exactly() {
        let p = FaultPlane::new();
        p.fail_fpga_loads(SimTime::ZERO, PuId(3), 2);
        assert!(p.take_fpga_load_failure(PuId(3)));
        assert!(p.take_fpga_load_failure(PuId(3)));
        assert!(!p.take_fpga_load_failure(PuId(3)));
        assert!(!p.take_fpga_load_failure(PuId(4)));
    }

    /// Regression for the quiet-path fast exit: an *active* plan must answer
    /// every query exactly as the always-locked implementation did — the
    /// armed flag only ever short-circuits the all-healthy case.
    #[test]
    fn active_plan_behavior_is_unchanged_by_the_fast_path() {
        let p = FaultPlane::with_seed(11);
        let t = SimTime::ZERO;
        assert!(p.is_quiet());

        p.kill_pu(t, PuId(5));
        p.kill_pu(t, PuId(2));
        p.hang_pu(t, PuId(3), SimDuration::from_micros(50));
        p.degrade_link(t, PuId(0), PuId(1), 2.5);
        p.partition(t, PuId(1), PuId(4));
        p.set_fifo_loss(t, PuId(0), PuId(2), 1.0);
        p.set_fifo_dup(t, PuId(2), PuId(0), 1.0);
        p.fail_fpga_loads(t, PuId(6), 1);
        assert!(!p.is_quiet(), "armed flag is sticky once any fault lands");

        // Point queries against the armed plan.
        assert!(p.is_dead(PuId(5)) && p.is_dead(PuId(2)) && !p.is_dead(PuId(0)));
        assert_eq!(p.dead_pus(), vec![PuId(2), PuId(5)], "dead_pus stays sorted");
        assert_eq!(p.hang_until(t, PuId(3)), Some(t + SimDuration::from_micros(50)),);
        assert_eq!(p.link_factor(PuId(1), PuId(0)), 2.5);
        assert_eq!(p.link_factor(PuId(0), PuId(3)), 1.0);
        assert!(p.is_partitioned(PuId(4), PuId(1)));
        assert!(!p.is_partitioned(PuId(0), PuId(1)));
        assert!(p.sample_fifo_loss(PuId(0), PuId(2)), "p=1.0 always drops");
        assert!(!p.sample_fifo_loss(PuId(2), PuId(0)), "unconfigured direction");
        assert!(p.sample_fifo_dup(PuId(2), PuId(0)), "p=1.0 always duplicates");
        assert!(p.take_fpga_load_failure(PuId(6)));
        assert!(!p.take_fpga_load_failure(PuId(6)));

        // Recovery keeps answering correctly while the plane stays armed.
        p.revive_pu(t, PuId(5));
        p.heal_link(t, PuId(0), PuId(1));
        p.heal_partition(t, PuId(1), PuId(4));
        assert!(!p.is_dead(PuId(5)));
        assert_eq!(p.link_factor(PuId(0), PuId(1)), 1.0);
        assert!(!p.is_partitioned(PuId(1), PuId(4)));
        assert!(!p.is_quiet(), "recovery never disarms the fast path");

        // The ordered log reflects configuration order, not map iteration.
        let log = p.event_log();
        assert_eq!(log.len(), 11);
        assert!(log[0].contains("kill pu5"));
        assert!(log[10].contains("heal-partition"));
    }
}
