//! Regenerates the paper data backed by `molecule_bench::fig08`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig08::print();
}
