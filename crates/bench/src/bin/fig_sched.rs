//! Regenerates the scheduling data backed by `molecule_bench::fig_sched`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_sched::print();
}
