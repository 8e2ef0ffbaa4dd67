//! Regenerates the multi-tenancy antagonist data backed by
//! `molecule_bench::fig_tenancy`.

#![forbid(unsafe_code)]

fn main() {
    molecule_bench::fig_tenancy::print();
}
