#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `molecule-chaos` — deterministic fault injection for the Molecule
//! reproduction.
//!
//! The simulator's [`hetsim::fault::FaultPlane`] holds the machine's fault
//! *state*; this crate owns the fault *plans* and drives them in virtual
//! time:
//!
//! * [`plan`] — [`FaultPlan`]: a seeded, ordered schedule of fault actions
//!   (PU crash/hang, link degradation/partition, FIFO loss/duplication,
//!   FPGA bitstream-load failures) with a small text DSL, so scenarios are
//!   data, not code;
//! * [`inject`] — the injector: a simulated process that sleeps to each
//!   event's virtual time and applies it to the machine's fault plane;
//! * [`scenario`] — end-to-end crash-recovery scenarios over the full
//!   stack (XPU-Shim, vsandbox, Molecule, gateway, health checker), each
//!   returning a [`ScenarioReport`] whose event log replays byte-identically
//!   under the same seed.

pub mod inject;
pub mod plan;
pub mod scenario;

pub use inject::{apply, install, spawn_injector, spawn_injector_with_sink};
pub use plan::{FaultAction, FaultEvent, FaultPlan, PlanParseError};
pub use scenario::{dpu_crash_alexa, dpu_crash_plan, ScenarioReport};
