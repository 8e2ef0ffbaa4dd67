//! Regenerates the paper data backed by `molecule_bench::fig11`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig11::print();
}
