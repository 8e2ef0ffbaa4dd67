//! Vertical scaling with DPUs (paper Fig. 2a): pack function instances
//! onto the machine until it is full, with 0, 1 and 2 BlueField DPUs
//! attached, and meter what the placements would bill — then push past
//! reservation-packing into *resident* density: a dense cfork fleet whose
//! per-sandbox PSS keeps shrinking as sandboxes share more.
//!
//! The full high-density study (PSS sweep to 10k sandboxes, DPU I/O
//! offload p99, dead-PU reclaim sweeps) lives in the `fig_density` bench:
//!
//! ```sh
//! cargo run --example density_scaling
//! cargo run --release -p molecule-bench --bin fig_density
//! ```

use hetsim::calib::Calibration;
use hetsim::os::LocalOs;
use hetsim::pu::PuSpec;
use molecule_core::billing::{Meter, PriceTable};
use molecule_core::schedule::Scheduler;
use molecule_repro::prelude::*;
use vsandbox::runc::{CforkOpts, RuncRuntime};
use vsandbox::spec::{LangRuntime, SandboxConfig, SandboxId};

fn main() {
    let machine = Machine::paper_cpu_dpu_server();
    let sched = Scheduler::default();

    println!("packing 'image-process' instances until each configuration is full:\n");
    let configs: [(&str, Vec<PuId>); 3] = [
        ("CPU only", vec![PuId(0)]),
        ("CPU + 1 DPU", vec![PuId(0), PuId(1)]),
        ("CPU + 2 DPU", vec![PuId(0), PuId(1), PuId(2)]),
    ];
    let mut last = 0;
    for (label, pus) in configs {
        let packed = sched.pack_until_full(&machine, &pus);
        println!("  {label:<12} -> {packed:>5} concurrent instances (+{})", packed - last);
        last = packed;
        sched.release_packed(&machine, &pus);
    }

    // What would a second of execution across the whole fleet cost? DPUs
    // are the cheapest PU class (§4.1), so offloading saves money too.
    let mut meter = Meter::new(PriceTable::default());
    let cpu_cost = meter.charge(PuKind::Cpu, SimDuration::from_millis(1000), 128);
    let dpu_cost = meter.charge(PuKind::Dpu, SimDuration::from_millis(1000), 128);
    println!("\nbilling one instance-second (128 MiB):");
    println!("  on the CPU: {cpu_cost:.1} credits");
    println!(
        "  on a DPU  : {dpu_cost:.1} credits ({}% cheaper)",
        (100.0 * (1.0 - dpu_cost / cpu_cost)) as u32
    );

    // Reservation packing says how many instances *fit*; resident density
    // asks how much memory each one actually keeps. A dense cfork fleet
    // shares the template copy-on-write, so per-sandbox PSS shrinks as the
    // fleet grows — the effect the 10k-sandbox study gates on.
    println!("\nresident PSS per sandbox, dense cfork fleet:");
    let mut sim = Simulation::new();
    let h = sim.spawn("dense-fleet", |ctx| {
        let calib = Calibration::desktop();
        let os = LocalOs::boot(&PuSpec::xeon_host(PuId(0)), calib.cpu_os, 16 * 1024);
        let rt = RuncRuntime::new(os, &calib);
        let cfg = SandboxConfig::general("hd-func", LangRuntime::Python, 4);
        let template = rt.prepare_template(ctx, LangRuntime::Python, 64).unwrap();
        let mut points = Vec::new();
        let mut made = 0u32;
        for target in [10u32, 100, 1000] {
            while made < target {
                let id = SandboxId::new(format!("d{made}"));
                rt.cfork(
                    ctx,
                    &template,
                    &id,
                    &cfg,
                    CforkOpts { dense: true, ..CforkOpts::default() },
                )
                .unwrap();
                made += 1;
            }
            points.push((target, rt.fleet_pss_bytes() / made as f64 / 1024.0));
        }
        points
    });
    sim.run().unwrap();
    for (n, pss_kib) in h.take_result().unwrap() {
        println!("  {n:>5} sandboxes -> {pss_kib:>7.1} KiB/sandbox");
    }
}
