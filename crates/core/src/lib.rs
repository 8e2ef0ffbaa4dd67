#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `molecule-core` — the Molecule serverless runtime for heterogeneous
//! computers (reproduction of *Serverless Computing on Heterogeneous
//! Computers*, ASPLOS '22).
//!
//! Molecule is the paper's primary contribution: a serverless runtime that
//! manages functions across CPU, DPU, FPGA and GPU PUs through two
//! abstractions — XPU-Shim (the [`xpu_shim`] crate) and the vectorized
//! sandbox (the [`vsandbox`] crate) — and layers the serverless
//! optimizations on top:
//!
//! * [`executor`] — live per-PU executors serving cfork/retire commands
//!   over nIPC with a real wire protocol;
//! * [`runtime`] — the worker runtime: executors via `xSpawn`, template
//!   containers, the **cfork** startup paths (local and cross-PU) and FPGA
//!   instance caching;
//! * [`dag`] — function-chain communication: direct-connect XPU-FIFOs
//!   (local IPC / nIPC), the HTTP-gateway baseline, and zero-copy FPGA
//!   chains via DRAM data retention;
//! * [`schedule`] — first-fit profile selection and density packing;
//! * [`health`] — executor health checking, circuit breaking and
//!   crashed-PU recovery (reclamation, purge, failover, degradation);
//! * [`keepalive`] — Fixed-window / LRU / Greedy-Dual keep-alive policies
//!   with chain affinity;
//! * [`billing`] — 1 ms-granularity, PU-priced metering;
//! * [`baseline`] — Molecule-homo and the AWS Lambda / OpenWhisk models of
//!   Fig. 9;
//! * [`regions`] — the gateway's directory of shared-state region hosts,
//!   feeding the scheduler's state-locality placement term.

pub mod baseline;
pub mod billing;
pub mod dag;
pub mod error;
pub mod executor;
pub mod fpga_cache;
pub mod function;
pub mod gateway;
pub mod health;
pub mod keepalive;
pub mod proxy;
pub mod regions;
pub mod runtime;
pub mod schedule;

pub use error::MoleculeError;
pub use function::{ExecModel, FunctionDef, FunctionRegistry};
pub use gateway::{ApiGateway, GatewayConfig, GatewayStats, RequestReport};
pub use health::{CircuitState, HealthChecker, PuStatus, RecoveryReport};
pub use proxy::{ProxyClient, ProxyError, ProxyPool, ProxyPoolConfig, ProxyReply, ProxyStats};
pub use regions::RegionDirectory;
pub use runtime::{
    InstanceId, InvokeReport, Molecule, MoleculeConfig, PurgeReport, StartupKind, StartupReport,
};
