//! Regenerates the design-choice ablation studies.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::ablations::print();
}
