//! Regenerates the paper data backed by `molecule_bench::fig02`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig02::print();
}
