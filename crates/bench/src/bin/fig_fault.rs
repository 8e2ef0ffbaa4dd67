//! Regenerates the fault-tolerance data backed by `molecule_bench::fig_fault`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_fault::print();
}
