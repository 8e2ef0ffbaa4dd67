//! Placement: profile selection and density packing (paper §4.1, §5
//! "Profile selections", Fig. 2a).

use hetsim::pu::{PuId, PuKind};
use hetsim::topology::Machine;

use crate::error::MoleculeError;
use crate::function::FunctionDef;

/// The scheduler: maps functions to PUs. It holds no state; it is a braced
/// struct, not a unit struct, so `Scheduler::default()` callers stay
/// clippy-clean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler {}

impl Scheduler {
    /// Whether `pu` can take one more instance of `def`.
    ///
    /// General-purpose PUs check memory headroom against the function's
    /// reservation. Accelerators are **not** infinite: an FPGA admits a new
    /// kernel only while the wrapper has image slots (12 on F1, Table 4) and
    /// fabric resources left for it — a kernel already resident always fits;
    /// a GPU admits instances only while MPS kernel slots remain. Without
    /// these checks placement could overcommit a fabric that `runf`/`runG`
    /// would then reject at start time.
    pub fn pu_has_capacity(machine: &Machine, pu: PuId, def: &FunctionDef) -> bool {
        let Some(spec) = machine.pu(pu) else { return false };
        match spec.kind {
            PuKind::Fpga => {
                let (Some(dev), Some(profile)) = (machine.fpga(pu), def.fpga.as_ref()) else {
                    return false;
                };
                if dev.is_resident(&profile.kernel.name) {
                    return true;
                }
                dev.resident_kernel_count() < hetsim::fpga::FpgaDevice::MAX_KERNELS_PER_IMAGE
                    && profile.kernel.resources.fits_in(&dev.spare_resources())
            }
            PuKind::Gpu => {
                let Some(dev) = machine.gpu(pu) else { return false };
                def.gpu.is_some() && dev.free_kernel_slots() > 0
            }
            _ => match machine.os(pu) {
                Some(os) => os.usable_mib().saturating_sub(os.reserved_mib()) >= def.memory_mib,
                None => false,
            },
        }
    }

    /// Picks a PU for `def`: the first allowed PU with capacity, in
    /// profile order, skipping the PUs in `avoid`. The failover path feeds
    /// in crashed and circuit-open PUs so new work lands on survivors; a
    /// function whose preferred kind is entirely avoided degrades to a later
    /// profile (typically the CPU cost table).
    ///
    /// # Errors
    ///
    /// [`MoleculeError::NoCapacity`] when every allowed PU is avoided or
    /// full.
    pub fn place(
        &self,
        machine: &Machine,
        def: &FunctionDef,
        avoid: &[PuId],
    ) -> Result<PuId, MoleculeError> {
        for kind in &def.profiles {
            for pu in machine.pus_of_kind(*kind) {
                if !avoid.contains(&pu) && Self::pu_has_capacity(machine, pu, def) {
                    return Ok(pu);
                }
            }
        }
        Err(MoleculeError::NoCapacity(def.id.clone()))
    }

    /// Density packing (Fig. 2a): reserves function instance slots on the
    /// given PUs until every PU is full, returning how many fit. Each PU
    /// kind uses its calibrated per-instance reservation (users size DPU
    /// deployments explicitly, §4.1). Reservations are held — call
    /// [`release_packed`](Self::release_packed) to undo.
    pub fn pack_until_full(&self, machine: &Machine, pus: &[PuId]) -> u64 {
        let density = machine.calibration().density;
        let mut placed = 0;
        for &pu in pus {
            let Some(os) = machine.os(pu) else { continue };
            let Some(spec) = machine.pu(pu) else { continue };
            let mib = match spec.kind {
                PuKind::Cpu => density.cpu_instance_mib,
                _ => density.dpu_instance_mib,
            };
            while os.try_reserve_mib(mib).is_ok() {
                placed += 1;
            }
        }
        placed
    }

    /// Releases every reservation on the given PUs (undo of
    /// [`pack_until_full`](Self::pack_until_full)).
    pub fn release_packed(&self, machine: &Machine, pus: &[PuId]) {
        for &pu in pus {
            if let Some(os) = machine.os(pu) {
                let held = os.reserved_mib();
                os.release_mib(held);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionDef;
    use vsandbox::spec::LangRuntime;

    fn cpu_dpu_fn(name: &str) -> FunctionDef {
        FunctionDef::builder(name, LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .build()
    }

    #[test]
    fn place_fails_over_to_surviving_pus() {
        let machine = Machine::paper_cpu_dpu_server();
        let sched = Scheduler::default();
        let dpu_first = FunctionDef::builder("d", LangRuntime::Python)
            .profiles(&[PuKind::Dpu, PuKind::Cpu])
            .build();
        // Healthy: the preferred DPU wins.
        assert_eq!(sched.place(&machine, &dpu_first, &[]).unwrap(), PuId(1));
        // First DPU dead: the second DPU takes over.
        assert_eq!(sched.place(&machine, &dpu_first, &[PuId(1)]).unwrap(), PuId(2));
        // Both DPUs dead: degrade to the CPU cost table.
        let degraded = sched.place(&machine, &dpu_first, &[PuId(1), PuId(2)]).unwrap();
        assert_eq!(machine.pu(degraded).unwrap().kind, PuKind::Cpu);
        // Everything avoided: a clean error, not a panic.
        assert!(matches!(
            sched.place(&machine, &dpu_first, &[PuId(0), PuId(1), PuId(2)]),
            Err(MoleculeError::NoCapacity(_))
        ));
    }

    #[test]
    fn placement_respects_profiles() {
        let machine = Machine::paper_cpu_dpu_server();
        let sched = Scheduler::default();
        // Profile order decides: a CPU-first function lands on the CPU.
        assert_eq!(sched.place(&machine, &cpu_dpu_fn("f"), &[]).unwrap(), PuId(0));
        let dpu_only =
            FunctionDef::builder("d", LangRuntime::Python).profiles(&[PuKind::Dpu]).build();
        assert_eq!(sched.place(&machine, &dpu_only, &[]).unwrap(), PuId(1));
        let fpga_only = FunctionDef::builder("g", LangRuntime::OpenCl)
            .profiles(&[PuKind::Gpu])
            .gpu(crate::function::ExecModel::Fixed(hetsim::time::SimDuration::from_micros(100)))
            .build();
        assert!(matches!(
            sched.place(&machine, &fpga_only, &[]),
            Err(MoleculeError::NoCapacity(_))
        ));
    }

    #[test]
    fn full_pu_overflows_to_the_next() {
        let machine = Machine::paper_cpu_dpu_server();
        let sched = Scheduler::default();
        let def = cpu_dpu_fn("f");
        // Fill the CPU completely.
        let cpu_os = machine.os(PuId(0)).unwrap();
        let free = cpu_os.usable_mib();
        cpu_os.try_reserve_mib(free).unwrap();
        assert_eq!(sched.place(&machine, &def, &[]).unwrap(), PuId(1));
        cpu_os.release_mib(free);
    }

    #[test]
    fn fpga_capacity_is_finite_for_placement() {
        use hetsim::fpga::{FpgaDevice, FpgaResources, KernelSpec};
        // One fabric only, so filling it exhausts the whole machine's FPGA
        // capacity and place() has nowhere else to go.
        let machine = Machine::builder().host_cpu().fpgas(1).build();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let small = |name: &str| KernelSpec {
            name: name.to_owned(),
            resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
        };
        let fpga_fn = |name: &str, kernel: KernelSpec| {
            FunctionDef::builder(name, LangRuntime::OpenCl)
                .profiles(&[PuKind::Fpga])
                .fpga(
                    kernel,
                    crate::function::ExecModel::Fixed(hetsim::time::SimDuration::from_micros(100)),
                )
                .build()
        };
        // A reasonable kernel fits on an empty fabric.
        assert!(Scheduler::pu_has_capacity(&machine, fpga, &fpga_fn("ok", small("ok"))));
        // A kernel larger than the whole device never fits.
        let giant = KernelSpec {
            name: "giant".to_owned(),
            resources: FpgaResources { luts: u64::MAX, regs: 0, brams: 0, dsps: 0 },
        };
        assert!(!Scheduler::pu_has_capacity(&machine, fpga, &fpga_fn("giant", giant)));
        // Fill every wrapper slot: the 13th distinct kernel is refused, but
        // a resident kernel still "fits" (warm reuse).
        let dev = machine.fpga(fpga).unwrap();
        let image = {
            let mut b = hetsim::fpga::ImageBuilder::new(hetsim::fpga::ImageId(99))
                .wrapper(FpgaResources::WRAPPER_BASE);
            for i in 0..FpgaDevice::MAX_KERNELS_PER_IMAGE {
                b = b.kernel(small(&format!("k{i}")));
            }
            b.build(&dev.capacity()).unwrap()
        };
        let mut sim = hetsim::engine::Simulation::new();
        let d = dev.clone();
        sim.spawn("flash", move |ctx| d.load_image(ctx, &image).unwrap());
        sim.run().unwrap();
        assert!(!Scheduler::pu_has_capacity(&machine, fpga, &fpga_fn("new", small("new"))));
        assert!(Scheduler::pu_has_capacity(&machine, fpga, &fpga_fn("k0", small("k0"))));
        // And place() surfaces the refusal as NoCapacity, not an overcommit.
        assert!(matches!(
            Scheduler::default().place(&machine, &fpga_fn("new", small("new")), &[]),
            Err(MoleculeError::NoCapacity(_))
        ));
    }

    #[test]
    fn gpu_capacity_is_bounded_by_mps_slots() {
        use hetsim::gpu::GpuDevice;
        let machine = Machine::full_heterogeneous();
        let gpus = machine.pus_of_kind(PuKind::Gpu);
        assert!(!gpus.is_empty(), "full machine has a GPU");
        let gpu = gpus[0];
        let def = FunctionDef::builder("g", LangRuntime::Cuda)
            .profiles(&[PuKind::Gpu])
            .gpu(crate::function::ExecModel::Fixed(hetsim::time::SimDuration::from_micros(50)))
            .build();
        assert!(Scheduler::pu_has_capacity(&machine, gpu, &def));
        // Exhaust the MPS kernel slots.
        let dev = machine.gpu(gpu).unwrap().clone();
        let mut sim = hetsim::engine::Simulation::new();
        let d = dev.clone();
        sim.spawn("fill", move |ctx| {
            let c = d.create_context(ctx);
            for i in 0..GpuDevice::MPS_KERNEL_SLOTS {
                d.load_kernel(ctx, c, &format!("k{i}")).unwrap();
            }
        });
        sim.run().unwrap();
        assert_eq!(dev.free_kernel_slots(), 0);
        assert!(!Scheduler::pu_has_capacity(&machine, gpu, &def));
        assert!(matches!(
            Scheduler::default().place(&machine, &def, &[]),
            Err(MoleculeError::NoCapacity(_))
        ));
    }

    #[test]
    fn density_packing_reproduces_fig2a_counts() {
        let machine = Machine::paper_cpu_dpu_server();
        let sched = Scheduler::default();
        let cpu_only = sched.pack_until_full(&machine, &[PuId(0)]);
        sched.release_packed(&machine, &[PuId(0)]);
        let with_one = sched.pack_until_full(&machine, &[PuId(0), PuId(1)]);
        sched.release_packed(&machine, &[PuId(0), PuId(1)]);
        let with_two = sched.pack_until_full(&machine, &[PuId(0), PuId(1), PuId(2)]);
        sched.release_packed(&machine, &[PuId(0), PuId(1), PuId(2)]);
        assert_eq!(cpu_only, 1000);
        assert_eq!(with_one, 1256);
        assert_eq!(with_two, 1512);
    }
}
