//! Regenerates the paper data backed by `molecule_bench::fig10`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig10::print();
}
