#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `molecule-simcheck` — loom/turmoil-style schedule exploration and
//! invariant oracles over the deterministic virtual-time engine.
//!
//! The hetsim engine orders events by `(time, seq)`, so every program runs
//! along exactly *one* schedule per seed. That is great for reproducibility
//! and terrible for finding concurrency bugs: races like the historical
//! concurrent-cfork thread-count corruption only manifest under schedules
//! the default tie-break never picks. This crate drives one test body
//! through hundreds of distinct interleavings by varying only the
//! same-instant tie-break (the engine's [`SchedulePolicy`] hook), checking
//! control-plane invariants after every step that changed the state they
//! read (each watched layer keeps a mutation epoch), and — when an oracle
//! trips — delta-debugging the schedule and the fault plan down to a
//! minimal, replayable repro.
//!
//! # The pieces
//!
//! * [`policy`] — [`ShuffledPolicy`] (seed-randomized ties) and
//!   [`ReplayPolicy`] (replay a recorded choice list byte-identically).
//! * [`explore`] — the exploration driver: a bounded DFS over tie-break
//!   alternatives (preemption-bounded, budget-capped) topped up with
//!   seed-shuffled random schedules, plus shrinking and replay-blob
//!   round-tripping (`SIMCHECK_REPLAY=<blob>`).
//! * [`oracle`] — invariant checks over [`xpu_shim::ClusterSnapshot`]:
//!   capability ownership is a partition, no dangling grants, FIFO UUIDs
//!   never both live and reclaimed, exactly-once reclamation accounting,
//!   SegmentArena slot balance; plus a per-writer FIFO-order tracker. The
//!   per-step oracles skip every step on which
//!   [`ShimCluster::epoch`](xpu_shim::ShimCluster::epoch) did not move.
//! * [`state_oracle`] — coherence checks over the `molecule-state` shared
//!   tier: committed version vectors monotone per region, no divergent
//!   pages for the same committed version, region caps never leaking
//!   across reclaim.
//! * [`shrink`] — ddmin-lite minimization of choice lists and chaos
//!   [`FaultPlan`](molecule_chaos::FaultPlan)s.
//!
//! # Writing a scenario
//!
//! A scenario is a closure that assembles a system into a fresh
//! [`Simulation`](hetsim::engine::Simulation) and returns a *check*: a
//! second closure run after the simulation, which turns collected evidence
//! into a verdict. [`explore`](explore::explore) then runs the scenario
//! under many schedules:
//!
//! ```
//! use molecule_simcheck::explore::{explore, ExploreOptions};
//!
//! let report = explore(&ExploreOptions { trials: 50, ..ExploreOptions::default() }, |sim| {
//!     let (tx, rx) = sim.channel::<u32>();
//!     let tx2 = tx.clone();
//!     sim.spawn("a", move |_ctx| tx.send(1).unwrap());
//!     sim.spawn("b", move |_ctx| tx2.send(2).unwrap());
//!     let h = sim.spawn("reader", move |ctx| {
//!         let x = rx.recv(ctx).unwrap();
//!         let y = rx.recv(ctx).unwrap();
//!         (x, y)
//!     });
//!     Box::new(move |result| {
//!         result.as_ref().map_err(|e| e.to_string())?;
//!         let (x, y) = h.take_result().unwrap();
//!         // Both orders are legal; the *set* must be intact.
//!         if x + y == 3 { Ok(()) } else { Err(format!("lost a message: {x} {y}")) }
//!     })
//! });
//! assert!(report.violation.is_none());
//! assert!(report.distinct_schedules >= 2, "both delivery orders explored");
//! ```

pub mod explore;
pub mod oracle;
pub mod policy;
pub mod shrink;
pub mod state_oracle;

pub use explore::{explore, explore_faulty, Check, ExploreOptions, ExploreReport, ViolationReport};
pub use oracle::{check_snapshot, ClusterOracle, FifoOrderTracker, OracleConfig};
pub use policy::{ReplayPolicy, ShuffledPolicy};
pub use state_oracle::{check_state, StateHistory, StateOracle};

// Re-exported so scenario code can name engine types through one crate.
pub use hetsim::engine::{ChoicePoint, SimError};
