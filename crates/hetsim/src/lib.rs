#![warn(missing_docs)]
#![deny(unsafe_code)]

//! `hetsim` — a deterministic simulation of a *heterogeneous computer*.
//!
//! This crate is the hardware/OS substrate for the reproduction of
//! *Serverless Computing on Heterogeneous Computers* (Molecule, ASPLOS '22).
//! The paper's evaluation machines — a Xeon host with Nvidia BlueField DPUs
//! and an AWS F1 instance with Xilinx UltraScale+ FPGAs — are not available
//! here, so the crate models them:
//!
//! * [`engine`] — a deterministic discrete-event simulation kernel with
//!   straight-line cooperative processes, each on a user-space fiber, and
//!   virtual-time channels;
//! * [`pu`] + [`topology`] + [`interconnect`] — processing units (CPU, DPU,
//!   FPGA, GPU, SmartNIC) wired by PCIe RDMA/DMA/shared-memory/network links;
//! * [`os`] — one *local OS* per general-purpose PU (process tables, FIFOs,
//!   fork/spawn, cgroups, page-level memory accounting), which makes the
//!   machine the paper's "multi-OS system";
//! * [`fpga`] / [`gpu`] — accelerator device models (bitstream images,
//!   erase/load timings, DRAM data retention, LUT/REG/BRAM/DSP accounting);
//! * [`calib`] — the single table of latency/capacity constants, each cited
//!   to the paper figure it was calibrated from.
//!
//! # Examples
//!
//! ```
//! use hetsim::engine::Simulation;
//! use hetsim::time::SimDuration;
//!
//! let mut sim = Simulation::new();
//! sim.spawn("hello", |ctx| {
//!     ctx.sleep(SimDuration::from_micros(20));
//! });
//! let report = sim.run()?;
//! assert_eq!(report.end_time.as_nanos(), 20_000);
//! # Ok::<(), hetsim::engine::SimError>(())
//! ```

pub mod calib;
pub mod engine;
pub mod fault;
pub mod fpga;
pub mod gpu;
pub mod interconnect;
pub mod os;
pub mod pu;
pub mod time;
pub mod topology;

pub use engine::{ProcCtx, ProcHandle, Simulation};
pub use time::{SimDuration, SimTime};
