//! Regenerates the paper data backed by `molecule_bench::fig15`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig15::print();
}
