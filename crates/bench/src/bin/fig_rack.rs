//! Regenerates the rack-scaling data backed by `molecule_bench::fig_rack`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_rack::print();
}
