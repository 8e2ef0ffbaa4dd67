//! Regenerates the paper data backed by `molecule_bench::tables`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::tables::print();
}
