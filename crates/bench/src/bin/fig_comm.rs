//! Regenerates the nIPC data-plane tables backed by
//! `molecule_bench::fig_comm`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_comm::print();
}
