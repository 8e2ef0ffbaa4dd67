//! Regenerates the shared-state tier tables backed by
//! `molecule_bench::fig_state`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_state::print();
}
