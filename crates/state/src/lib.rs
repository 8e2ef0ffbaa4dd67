#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `molecule-state` — stateful serverless for the Molecule reproduction:
//! a two-tier shared-state layer in the shape of Faasm's distributed shared
//! regions, carried over Molecule's heterogeneous substrate.
//!
//! * **Tier 1** ([`layer`]) — named, versioned, PU-local shared regions
//!   backed by the hetsim COW page model: co-located sandboxes `map_shared`
//!   one backing block (N readers, one copy resident), writes stage into
//!   private COW working sets, and an explicit `commit` publishes a new
//!   version;
//! * **Tier 2** — cross-PU synchronization over the shim's
//!   capability-guarded region API: push-on-commit with last-writer-wins
//!   per page, pull-on-miss with per-replica single-flight, and a CAS
//!   primitive linearized at the region master. Large payloads ride the
//!   zero-copy `SegDescriptor` path through the shared-segment arena;
//! * **Failure** — a dead owner's regions are swept by
//!   `ShimCluster::reclaim_pu` (UUID, guard object and parked slots,
//!   exactly once) and re-mastered by
//!   [`StateLayer::handle_pu_death`] onto the freshest surviving replica
//!   under a fresh generation UUID, with the committed-version counter kept
//!   monotone.
//!
//! # Examples
//!
//! ```
//! use hetsim::engine::Simulation;
//! use hetsim::pu::PuId;
//! use hetsim::topology::Machine;
//! use molecule_state::{RegionSpec, StateLayer};
//! use xpu_shim::cluster::{ShimCluster, ShimConfig};
//!
//! let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
//! let layer = StateLayer::new(cluster);
//! let mut sim = Simulation::new();
//! let l = layer.clone();
//! let h = sim.spawn("demo", move |ctx| {
//!     l.create_region(ctx, PuId(0), RegionSpec::new("kv", 4)).unwrap();
//!     l.attach(ctx, PuId(1), "kv").unwrap();
//!     l.write(ctx, PuId(1), "kv", 0, b"hello", None).unwrap();
//!     let v = l.commit(ctx, PuId(1), "kv").unwrap();
//!     l.pull(ctx, PuId(1), "kv").unwrap();
//!     (v, l.read(ctx, PuId(1), "kv", 0, 5).unwrap())
//! });
//! sim.run().unwrap();
//! let (v, bytes) = h.take_result().unwrap();
//! assert_eq!((v, bytes.as_slice()), (1, &b"hello"[..]));
//! ```

mod committed;
pub mod layer;
pub mod region;

pub use layer::{HostObserver, StateLayer};
pub use region::{
    digest, RegionSpec, RegionStateSnapshot, ReplicaSnapshot, StateError, StateSnapshot,
};
