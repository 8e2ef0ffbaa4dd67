//! Regenerates every table and figure of the paper in one run
//! (the equivalent of the artifact's `func_bench.sh` + friends).

#![forbid(unsafe_code)]

fn main() {
    println!("Molecule reproduction: regenerating all tables and figures\n");
    molecule_bench::fig02::print();
    molecule_bench::fig08::print();
    molecule_bench::fig09::print();
    molecule_bench::fig10::print();
    molecule_bench::fig11::print();
    molecule_bench::fig12::print();
    molecule_bench::fig13::print();
    molecule_bench::fig14::print();
    molecule_bench::fig15::print();
    molecule_bench::tables::print();
    molecule_bench::ablations::print();
    molecule_bench::fig_density::print();
    println!("\nAll experiments completed.");
}
