//! High-density PUs: dense cfork PSS, DPU I/O offload p99, reclaim sweeps.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_density::print();
}
