#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `vsandbox` — the vectorized sandbox abstraction (paper §3.5) and its
//! three backends.
//!
//! Serverless platforms manage sandboxes through the five OCI runtime verbs
//! (`state`/`create`/`start`/`kill`/`delete`). Those verbs assume a PU can
//! host many independent sandboxes — true for CPUs, false for FPGAs, which
//! flash one image at a time. The *vectorized sandbox* extends each verb to
//! operate on a vector, letting accelerator runtimes pack many sandboxes
//! into one image, start them concurrently and delete lazily.
//!
//! * [`oci`] — the [`oci::OciRuntime`] and
//!   [`oci::VectorizedRuntime`] traits (defaults loop the
//!   scalar verbs, which is exactly how `runc` vectorizes);
//! * [`runc`] — containers on CPU/DPU local OSes, plus the **cfork**
//!   primitives (template containers, forkable-runtime merge/fork/expand,
//!   pre-initialized function containers, cpuset-lock-dependent attach);
//! * [`runf`] — FPGA sandboxes with vectorized image packing, warm-image /
//!   warm-sandbox states and lazy delete;
//! * [`rung`] — GPU sandboxes over an MPS-style shared context (§6.8);
//! * [`designspace`] — the Fig. 15 startup/communication design space.
//!
//! # Examples
//!
//! ```
//! use hetsim::calib::Calibration;
//! use hetsim::engine::Simulation;
//! use hetsim::os::LocalOs;
//! use hetsim::pu::{PuId, PuSpec};
//! use vsandbox::oci::OciRuntime;
//! use vsandbox::runc::RuncRuntime;
//! use vsandbox::spec::{LangRuntime, SandboxConfig, SandboxId, SandboxState};
//!
//! let calib = Calibration::paper_server();
//! let os = LocalOs::boot(&PuSpec::xeon_host(PuId(0)), calib.cpu_os, 4096);
//! let runtime = RuncRuntime::new(os, &calib);
//! let mut sim = Simulation::new();
//! let h = sim.spawn("boot", move |ctx| {
//!     let id = SandboxId::new("hello");
//!     let cfg = SandboxConfig::general("hello-fn", LangRuntime::Python, 128);
//!     runtime.create(ctx, &id, &cfg)?;
//!     runtime.start(ctx, &id)?;
//!     runtime.state(ctx, &id)
//! });
//! sim.run().unwrap();
//! assert_eq!(h.take_result().unwrap()?, SandboxState::Running);
//! # Ok::<(), vsandbox::oci::SandboxError>(())
//! ```

pub mod designspace;
pub mod oci;
pub mod runc;
pub mod runf;
pub mod rung;
pub mod spec;

pub use oci::{OciRuntime, SandboxError, VectorizedRuntime};
pub use runc::{CforkOpts, RuncRuntime};
pub use runf::RunfRuntime;
pub use rung::RungRuntime;
pub use spec::{FuncId, LangRuntime, SandboxConfig, SandboxId, SandboxState, Signal};
