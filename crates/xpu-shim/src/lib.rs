#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `xpu-shim` — the distributed shim for multi-OS heterogeneous computers
//! (paper §3, *Serverless Computing on Heterogeneous Computers*, ASPLOS '22).
//!
//! A heterogeneous computer runs one OS per general-purpose PU, so no single
//! kernel can name processes, enforce permissions, or carry IPC across the
//! whole machine. XPU-Shim is the user-space indirection layer that restores
//! those facilities:
//!
//! * [`id`] — globally unique process ids ([`id::XpuPid`] = PU-ID ⊕ local
//!   UUID) that statically partition the namespace;
//! * [`cap`] — distributed capabilities (`CAP_Group`s, owner-gated
//!   `grant_cap` / `revoke_cap`);
//! * [`xcall`] — the three XPUcall transports of Fig. 7 with their cost
//!   model;
//! * [`fifo`] + [`cluster`] — XPU-FIFOs and neighbour IPC (nIPC): FIFO
//!   semantics across PUs over RDMA/DMA instead of the network;
//! * [`segment`] — per-link shared segments for zero-copy large-payload
//!   hand-off: the FIFO carries a capability-guarded descriptor while the
//!   bytes cross the link once (Fig. 13's data retention, generalized);
//! * [`cluster`] — the deployed shim cluster, including `xSpawn` and the
//!   three synchronization strategies (static partition / immediate / lazy);
//! * [`watched`] — mutation epochs, which let the invariant oracles skip
//!   the engine steps that changed nothing they read.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use hetsim::engine::Simulation;
//! use hetsim::pu::PuId;
//! use hetsim::topology::Machine;
//! use xpu_shim::cluster::{ShimCluster, ShimConfig};
//! use xpu_shim::cap::Perm;
//!
//! let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
//! let mut sim = Simulation::new();
//! let h = sim.spawn("demo", move |ctx| {
//!     let cpu = cluster.shim_on(PuId(0)).unwrap();
//!     let dpu = cluster.shim_on(PuId(1)).unwrap();
//!     let owner = cpu.attach_process();
//!     let peer = dpu.attach_process();
//!     let fifo = cpu.xfifo_init(ctx, owner, "demo-fifo").unwrap();
//!     cpu.grant_cap(ctx, owner, peer, fifo.obj(), Perm::WRITE).unwrap();
//!     let w = dpu.xfifo_connect(ctx, peer, &fifo.uuid().clone()).unwrap();
//!     w.write(ctx, Bytes::from_static(b"over nIPC")).unwrap();
//!     fifo.read(ctx).unwrap()
//! });
//! sim.run().unwrap();
//! assert_eq!(&h.take_result().unwrap()[..], b"over nIPC");
//! ```

pub mod cap;
pub mod cluster;
pub mod error;
pub mod fifo;
pub mod id;
pub mod segment;
pub mod watched;
pub mod xcall;

pub use cap::Perm;
pub use cluster::{
    ClusterSnapshot, FifoSnapshot, RegionSnapshot, ShimCluster, ShimConfig, ShimStats,
    TransportPolicy, XpuShim,
};
pub use error::ShimError;
pub use fifo::{XpuFifoReader, XpuFifoWriter};
pub use id::{GlobalUuid, ObjId, XpuPid};
pub use molecule_tenancy::TenantId;
pub use segment::SegDescriptor;
pub use watched::Watched;
pub use xcall::XcallTransport;
