#![warn(missing_docs)]

//! `workloads` — the benchmark workloads of the Molecule evaluation.
//!
//! * [`functionbench`] — the eight FunctionBench functions of Fig. 14a-d,
//!   with their paper labels and calibrated cost decomposition;
//! * [`serverlessbench`] — the Alexa and MapReduce chains (Fig. 12, 14e)
//!   plus the image-processing and helloworld functions (Fig. 2a, 9);
//! * [`matrix`] — the Fig. 2b matrix micro-workloads (real Rust kernels +
//!   calibrated CPU/FPGA latencies) and the Table 4 resource constants;
//! * [`fpga_apps`] — GZip, Anti-MoneyL and Matrix-Comput (Fig. 14f-h);
//! * [`gnn`] — a Dorylus-style GNN training round (§2.4's motivating case
//!   for GPU serverless functions);
//! * [`stateful`] — stateful serverless consumers over the
//!   `molecule-state` shared-state tier: a shared-weights inference fleet
//!   (memory density vs copy-per-instance) and a real MapReduce shuffle
//!   over shared regions (vs the inline-copy baseline);
//! * [`tenant_mix`] — the multi-tenant antagonist mix (a flooding batch
//!   tenant against latency-classed victim tenants);
//! * [`generator`] — deterministic request generators.

pub mod fpga_apps;
pub mod functionbench;
pub mod generator;
pub mod gnn;
pub mod matrix;
pub mod serverlessbench;
pub mod stateful;
pub mod tenant_mix;
