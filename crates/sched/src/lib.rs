//! # molecule-sched — load-aware scheduling for heterogeneous serverless
//!
//! The seed gateway places every request greedily: first PU that supports
//! the function, infinite appetite, no backpressure. That reproduces the
//! paper's *mechanisms* (cfork, vectorized sandbox verbs, XPU-Shim) but not
//! the *operating point* a real deployment runs at — where the interesting
//! behaviour is what happens as offered load approaches capacity.
//!
//! This crate adds the missing control layer, in three pieces:
//!
//! - [`queue`] — bounded per-PU run queues with token-style concurrency
//!   limits, tenant-fair dispatch, deadline shedding and typed
//!   [`Overloaded`] rejection.
//! - [`placer`] — a calibrated cost-model placer scoring candidate PUs by
//!   estimated execution time (from the same calibration tables the
//!   simulator charges), cold-start cost and live queue wait, with
//!   state-locality bonuses.
//! - [`gateway`] — [`SchedGateway`], which wires those into the seed
//!   [`ApiGateway`]: admission control on submit, per-PU worker pools,
//!   FPGA cold-start batch aggregation over the vectorized sandbox verbs
//!   and health-checker-driven failover draining. Warm pools are the
//!   seed gateway's: cold start on a miss, keep-alive reaping.
//!
//! Everything runs inside the deterministic simulation: same seed, same
//! schedule, same stats — which is what lets the property tests assert
//! request conservation exactly.
//!
//! [`ApiGateway`]: molecule_core::gateway::ApiGateway

#![forbid(unsafe_code)]

pub mod gateway;
pub mod placer;
pub mod queue;

pub use gateway::{
    JobOutcome, PlacementMode, SchedConfig, SchedGateway, SchedStats, SubmitError, SubmitOpts,
    TenantLedger,
};
pub use molecule_tenancy::{RateLimit, SloClass, TenantId, TenantRegistry, TenantSpec};
pub use placer::{Candidate, PuLoad};
pub use queue::{Overloaded, QueuePolicy, RunQueue, ShedReason, Ticket};
