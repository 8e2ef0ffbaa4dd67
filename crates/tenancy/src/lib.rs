#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # molecule-tenancy — tenants as first-class citizens
//!
//! The paper's capability system is global: any function can be granted any
//! capability, and plain FIFO run queues arbitrate by arrival alone, so one
//! hot customer can starve everyone sharing the rack. This crate supplies
//! the tenant primitives the rest of the stack threads through:
//!
//! - [`TenantId`] — the isolation domain. Every `CAP_Group`, distributed
//!   object, FIFO, segment descriptor and state region in `xpu-shim`
//!   carries one; cross-tenant grants are denied by construction.
//! - [`TenantRegistry`] / [`TenantSpec`] — per-tenant scheduling weight and
//!   optional admission rate limit, shared by the gateway and its queues.
//! - [`SfqQueue`] — start-time fair queueing (SFQ) across per-tenant
//!   sub-queues: virtual-time arbitration gives each backlogged tenant
//!   throughput proportional to its weight while idle tenants donate their
//!   share (work conservation).
//! - [`TokenBucket`] — deterministic virtual-time token bucket enforcing a
//!   tenant's requests-per-second cap at the gateway, before admission.
//! - [`SloClass`] — `Latency(target)` or `Batch`: the placer steers
//!   latency-sensitive work away from cold accelerators and deep queues,
//!   and shedding drops batch work first.
//!
//! Everything here is pure deterministic data structure driven by the
//! simulation's virtual clock — no host time, no host randomness — so the
//! WFQ property tests and the simcheck tenant-isolation oracle can assert
//! exact fairness and isolation bounds.

pub mod bucket;
pub mod registry;
pub mod sfq;
pub mod slo;

mod id;

pub use bucket::TokenBucket;
pub use id::TenantId;
pub use registry::{RateLimit, TenantRegistry, TenantSpec};
pub use sfq::SfqQueue;
pub use slo::SloClass;
