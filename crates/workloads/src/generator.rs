//! Request generators for driving the platform.
//!
//! Serverless arrival patterns are bursty; the generators here produce
//! deterministic (seeded) Poisson and closed-loop arrival schedules in
//! *virtual time* for the benchmark harnesses.

use hetsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic Poisson arrival process.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: StdRng,
    mean_gap: SimDuration,
    now: SimTime,
}

impl PoissonArrivals {
    /// Creates a process with `rate_per_sec` arrivals per virtual second,
    /// seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive.
    pub fn new(rate_per_sec: f64, seed: u64) -> PoissonArrivals {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            mean_gap: SimDuration::from_secs_f64(1.0 / rate_per_sec),
            now: SimTime::ZERO,
        }
    }

    /// The next arrival instant (exponential inter-arrival gaps).
    pub fn next_arrival(&mut self) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = self.mean_gap.mul_f64(-u.ln());
        self.now += gap;
        self.now
    }

    /// The first `n` arrival instants.
    pub fn take(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

/// The first `n` instants of a seeded open-loop Poisson process at
/// `rate_per_sec`. Deterministic per `(rate, n, seed)`.
pub fn open_loop_arrivals(rate_per_sec: f64, n: usize, seed: u64) -> Vec<SimTime> {
    PoissonArrivals::new(rate_per_sec, seed).take(n)
}

/// Drives an open-loop schedule: sleeps to each arrival instant and calls
/// `launch` with the request index.
///
/// The schedule is rebased to the moment the drive starts — arrival
/// instants are offsets from `ctx.now()`, not absolute times — so a driver
/// that spent simulated time bootstrapping doesn't find the whole schedule
/// in the past and fire it as one closed burst.
///
/// Open loop means the arrival process never waits for completions — the
/// caller must make `launch` non-blocking (fire the request from a spawned
/// process, or use an async submit API) or the measured load degenerates to
/// closed loop. Arrivals the (rebased) schedule has already passed fire
/// immediately.
pub fn drive_open_loop(
    ctx: &mut hetsim::engine::ProcCtx,
    arrivals: &[SimTime],
    mut launch: impl FnMut(&mut hetsim::engine::ProcCtx, usize),
) {
    let base = ctx.now();
    for (i, at) in arrivals.iter().enumerate() {
        let at = base + at.saturating_duration_since(SimTime::ZERO);
        let wait = at.saturating_duration_since(ctx.now());
        if wait > SimDuration::ZERO {
            ctx.sleep(wait);
        }
        launch(ctx, i);
    }
}

/// Deterministic input sizes drawn uniformly from `[lo, hi]` bytes.
pub fn input_sizes(n: usize, lo: u64, hi: u64, seed: u64) -> Vec<u64> {
    assert!(lo <= hi, "bounds reversed");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a: Vec<SimTime> = PoissonArrivals::new(100.0, 7).take(50);
        let b: Vec<SimTime> = PoissonArrivals::new(100.0, 7).take(50);
        let c: Vec<SimTime> = PoissonArrivals::new(100.0, 8).take(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_gap_approximates_rate() {
        let mut gen = PoissonArrivals::new(1000.0, 42); // 1ms mean gap
        let arrivals = gen.take(2000);
        let total = arrivals.last().unwrap().as_nanos() as f64;
        let mean_gap_ms = total / 2000.0 / 1e6;
        assert!((0.9..=1.1).contains(&mean_gap_ms), "mean gap {mean_gap_ms}ms");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut gen = PoissonArrivals::new(10.0, 1);
        let arrivals = gen.take(100);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn input_sizes_respect_bounds() {
        let sizes = input_sizes(100, 16, 2048, 3);
        assert!(sizes.iter().all(|&s| (16..=2048).contains(&s)));
        assert_eq!(sizes, input_sizes(100, 16, 2048, 3));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(0.0, 1);
    }

    #[test]
    fn open_loop_schedule_is_deterministic_per_seed() {
        let a = open_loop_arrivals(500.0, 200, 11);
        let b = open_loop_arrivals(500.0, 200, 11);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_arrivals(500.0, 200, 12));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn open_loop_driver_fires_at_the_scheduled_instants() {
        use hetsim::engine::Simulation;
        let arrivals = open_loop_arrivals(1000.0, 50, 3);
        let expected = arrivals.clone();
        let mut sim = Simulation::new();
        let out = sim.spawn("driver", move |ctx| {
            let mut fired = Vec::new();
            drive_open_loop(ctx, &arrivals, |ctx, i| fired.push((i, ctx.now())));
            fired
        });
        sim.run().unwrap();
        let fired = out.take_result().unwrap();
        assert_eq!(fired.len(), 50);
        for (i, at) in fired {
            assert_eq!(at, expected[i], "arrival {i} fired off schedule");
        }
    }
}
