//! Regenerates the paper data backed by `molecule_bench::fig13`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig13::print();
}
