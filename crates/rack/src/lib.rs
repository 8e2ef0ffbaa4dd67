//! Rack-scale Molecule: a multi-node control plane over the RDMA fabric.
//!
//! The paper runs Molecule on one heterogeneous computer. This crate
//! scales the reproduction out to a *rack* of them: `hetsim` models the
//! inter-node RDMA fabric as a distinct latency/bandwidth tier
//! ([`hetsim::topology::RackBuilder`], `Route::Fabric`), and this crate
//! shards the serverless control plane across it.
//!
//! * [`ring`] — the consistent-hash ring assigning functions to nodes
//!   with minimal churn on membership change.
//! * [`front`] — the [`RackFront`]: per-node [`SchedGateway`]s behind one
//!   routing front-end, cross-node request forwarding over real shim
//!   xcalls, rack-wide region-directory fan-out, node-death sweeps that
//!   purge every surviving gateway, and cross-node DAG planning whose
//!   large edges ride the zero-copy descriptor path across the fabric.
//!
//! [`SchedGateway`]: molecule_sched::gateway::SchedGateway

#![forbid(unsafe_code)]

pub mod front;
pub mod ring;

pub use front::{RackConfig, RackFront, RackStats};
pub use ring::{HashRing, DEFAULT_VNODES};
