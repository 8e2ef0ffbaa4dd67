//! FPGA device model (Xilinx UltraScale+ as deployed in AWS EC2 F1).
//!
//! Models exactly what the paper's `runf` runtime needs:
//!
//! * whole-device bitstream **images** that hold a *vector* of kernels
//!   (the vectorized-sandbox packing, §3.5);
//! * the erase / load / sandbox-prep stage costs behind Fig. 10c;
//! * LUT/REG/BRAM/DSP **resource accounting** (Table 4);
//! * **DRAM banks with data retention** — the advanced feature (§4.3) that
//!   lets a new image be loaded without erasing FPGA-attached DRAM, enabling
//!   zero-copy FPGA→FPGA function chains (Fig. 13).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Add;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::calib::FpgaCosts;
use crate::engine::ProcCtx;
use crate::fault::FaultPlane;
use crate::pu::PuId;
use crate::time::SimDuration;

/// FPGA fabric resources (Table 4's columns).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FpgaResources {
    /// Lookup tables.
    pub luts: u64,
    /// Registers.
    pub regs: u64,
    /// Block RAMs.
    pub brams: u64,
    /// DSP slices.
    pub dsps: u64,
}

impl FpgaResources {
    /// Total resources of one AWS F1 UltraScale+ device (Table 4, row 1).
    pub const F1_TOTAL: FpgaResources =
        FpgaResources { luts: 1_181_768, regs: 2_364_480, brams: 2_160, dsps: 6_840 };

    /// Base cost of the Molecule FPGA wrapper (shell + isolation logic),
    /// before any kernels are added. Roughly 5% of F1's LUTs, matching §6.4
    /// ("the FPGA wrapper ... introduces space overheads, i.e., 5% lookup
    /// tables in F1").
    pub const WRAPPER_BASE: FpgaResources =
        FpgaResources { luts: 59_085, regs: 98_500, brams: 246, dsps: 291 };

    /// True if `self` fits within `capacity`.
    pub fn fits_in(&self, capacity: &FpgaResources) -> bool {
        self.luts <= capacity.luts
            && self.regs <= capacity.regs
            && self.brams <= capacity.brams
            && self.dsps <= capacity.dsps
    }

    /// Utilization of each resource class as a fraction of `capacity`.
    pub fn utilization(&self, capacity: &FpgaResources) -> [f64; 4] {
        [
            self.luts as f64 / capacity.luts as f64,
            self.regs as f64 / capacity.regs as f64,
            self.brams as f64 / capacity.brams as f64,
            self.dsps as f64 / capacity.dsps as f64,
        ]
    }
}

impl Add for FpgaResources {
    type Output = FpgaResources;
    fn add(self, rhs: FpgaResources) -> FpgaResources {
        FpgaResources {
            luts: self.luts + rhs.luts,
            regs: self.regs + rhs.regs,
            brams: self.brams + rhs.brams,
            dsps: self.dsps + rhs.dsps,
        }
    }
}

impl std::iter::Sum for FpgaResources {
    fn sum<I: Iterator<Item = FpgaResources>>(iter: I) -> FpgaResources {
        iter.fold(FpgaResources::default(), Add::add)
    }
}

/// A synthesized kernel that can be packed into an image.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Kernel (function) name, unique within an image.
    pub name: String,
    /// Fabric resources the kernel consumes.
    pub resources: FpgaResources,
}

/// Identifier of a composed FPGA image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ImageId(pub u64);

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img{}", self.0)
    }
}

/// A composed bitstream holding a vector of kernels behind one wrapper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpgaImage {
    /// Image identity (used by the device's flash cache).
    pub id: ImageId,
    /// The packed kernels.
    pub kernels: Vec<KernelSpec>,
    /// Total fabric resources (wrapper + kernels).
    pub total_resources: FpgaResources,
}

/// Errors from FPGA device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpgaError {
    /// The image's resources exceed the device's capacity.
    InsufficientResources {
        /// What the image needs.
        required: FpgaResources,
        /// What the device offers.
        capacity: FpgaResources,
    },
    /// Two kernels in one image share a name.
    DuplicateKernel(String),
    /// The named kernel is not resident in the currently flashed image.
    KernelNotResident(String),
    /// No image is flashed at all.
    NoImageLoaded,
    /// The requested DRAM bank index is out of range.
    NoSuchBank(u32),
    /// The named retained buffer was not found in the bank.
    NoSuchBuffer(String),
    /// A bitstream load failed (injected by the fault plane); the previous
    /// image — if any — stays flashed.
    LoadFailed,
}

impl fmt::Display for FpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaError::InsufficientResources { required, capacity } => {
                write!(f, "image needs {required:?} but device only has {capacity:?}")
            }
            FpgaError::DuplicateKernel(name) => write!(f, "duplicate kernel in image: {name}"),
            FpgaError::KernelNotResident(name) => write!(f, "kernel not resident: {name}"),
            FpgaError::NoImageLoaded => f.write_str("no image loaded on the device"),
            FpgaError::NoSuchBank(i) => write!(f, "no such DRAM bank: {i}"),
            FpgaError::NoSuchBuffer(name) => write!(f, "no such retained buffer: {name}"),
            FpgaError::LoadFailed => f.write_str("bitstream load failed"),
        }
    }
}

impl std::error::Error for FpgaError {}

/// Builder that packs kernels into an [`FpgaImage`] (the vectorized-sandbox
/// `create vector<sandbox, func-id>` path).
#[derive(Debug)]
pub struct ImageBuilder {
    id: ImageId,
    wrapper: FpgaResources,
    kernels: Vec<KernelSpec>,
}

impl ImageBuilder {
    /// Starts an image with the standard wrapper.
    pub fn new(id: ImageId) -> ImageBuilder {
        ImageBuilder { id, wrapper: FpgaResources::WRAPPER_BASE, kernels: Vec::new() }
    }

    /// Overrides the wrapper cost (e.g. to model Coyote-style wrappers).
    pub fn wrapper(mut self, wrapper: FpgaResources) -> ImageBuilder {
        self.wrapper = wrapper;
        self
    }

    /// Adds a kernel to the image.
    pub fn kernel(mut self, kernel: KernelSpec) -> ImageBuilder {
        self.kernels.push(kernel);
        self
    }

    /// Adds many kernels.
    pub fn kernels<I: IntoIterator<Item = KernelSpec>>(mut self, kernels: I) -> ImageBuilder {
        self.kernels.extend(kernels);
        self
    }

    /// Finalizes the image, checking capacity and name uniqueness.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DuplicateKernel`] on name clashes and
    /// [`FpgaError::InsufficientResources`] if the packed image exceeds
    /// `capacity`.
    pub fn build(self, capacity: &FpgaResources) -> Result<FpgaImage, FpgaError> {
        let mut seen = HashSet::new();
        for k in &self.kernels {
            if !seen.insert(k.name.clone()) {
                return Err(FpgaError::DuplicateKernel(k.name.clone()));
            }
        }
        let total = self.wrapper + self.kernels.iter().map(|k| k.resources).sum::<FpgaResources>();
        if !total.fits_in(capacity) {
            return Err(FpgaError::InsufficientResources { required: total, capacity: *capacity });
        }
        Ok(FpgaImage { id: self.id, kernels: self.kernels, total_resources: total })
    }
}

#[derive(Debug, Default)]
struct DramBank {
    buffers: HashMap<String, u64>, // name -> bytes
}

struct DeviceState {
    current: Option<FpgaImage>,
    /// Images whose composed bitstream is cached host-side (cheaper flash).
    flash_cache: HashSet<ImageId>,
    banks: Vec<DramBank>,
    faults: Option<FaultPlane>,
}

/// One FPGA device. Cheap to clone; clones share device state.
#[derive(Clone)]
pub struct FpgaDevice {
    inner: Arc<DeviceInner>,
}

struct DeviceInner {
    pu: PuId,
    capacity: FpgaResources,
    timings: FpgaCosts,
    state: Mutex<DeviceState>,
}

impl fmt::Debug for FpgaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("FpgaDevice")
            .field("pu", &self.inner.pu)
            .field("loaded", &st.current.as_ref().map(|i| i.id))
            .field("cached_images", &st.flash_cache.len())
            .finish()
    }
}

impl FpgaDevice {
    /// Creates an F1-class device attached as PU `pu`.
    pub fn new(pu: PuId, timings: FpgaCosts) -> FpgaDevice {
        let banks = (0..timings.dram_banks).map(|_| DramBank::default()).collect();
        FpgaDevice {
            inner: Arc::new(DeviceInner {
                pu,
                capacity: FpgaResources::F1_TOTAL,
                timings,
                state: Mutex::new(DeviceState {
                    current: None,
                    flash_cache: HashSet::new(),
                    banks,
                    faults: None,
                }),
            }),
        }
    }

    /// The PU id this device is attached as.
    pub fn pu(&self) -> PuId {
        self.inner.pu
    }

    /// Total fabric resources.
    pub fn capacity(&self) -> FpgaResources {
        self.inner.capacity
    }

    /// Device timings (from the calibration table).
    pub fn timings(&self) -> FpgaCosts {
        self.inner.timings
    }

    /// Connects the machine's fault plane so injected bitstream-load
    /// failures reach this device ([`Machine::build`] does this).
    ///
    /// [`Machine::build`]: crate::topology::MachineBuilder::build
    pub fn attach_fault_plane(&self, plane: FaultPlane) {
        self.inner.state.lock().faults = Some(plane);
    }

    /// Erases the current image (the expensive step Molecule skips, Fig. 10c).
    pub fn erase(&self, ctx: &mut ProcCtx) {
        ctx.sleep(self.inner.timings.erase);
        self.inner.state.lock().current = None;
    }

    /// Composes + flashes `image`. If the image's bitstream is already in the
    /// host-side flash cache, the cheaper `load_cached` cost applies.
    ///
    /// DRAM bank contents survive the load (data retention, §4.3).
    ///
    /// # Errors
    ///
    /// [`FpgaError::InsufficientResources`] if the image exceeds capacity;
    /// [`FpgaError::LoadFailed`] when the fault plane injects a load failure
    /// (the full load cost is still paid — the failure is detected at the
    /// end of the flash).
    pub fn load_image(&self, ctx: &mut ProcCtx, image: &FpgaImage) -> Result<(), FpgaError> {
        if !image.total_resources.fits_in(&self.inner.capacity) {
            return Err(FpgaError::InsufficientResources {
                required: image.total_resources,
                capacity: self.inner.capacity,
            });
        }
        let (cached, faulted) = {
            let st = self.inner.state.lock();
            let faulted =
                st.faults.as_ref().is_some_and(|p| p.take_fpga_load_failure(self.inner.pu));
            (st.flash_cache.contains(&image.id), faulted)
        };
        if faulted {
            ctx.sleep(self.inner.timings.load_full);
            return Err(FpgaError::LoadFailed);
        }
        let cost = if cached {
            self.inner.timings.load_cached
        } else {
            self.inner.timings.load_full
                + self.inner.timings.compose_per_kernel * image.kernels.len() as u64
        };
        ctx.sleep(cost);
        let mut st = self.inner.state.lock();
        st.flash_cache.insert(image.id);
        st.current = Some(image.clone());
        Ok(())
    }

    /// Kernels one image may hold: the Molecule wrapper supports 12 slots
    /// on F1 (Table 4) — the instance bound the scheduler's capacity check
    /// enforces so placement cannot overcommit the fabric.
    pub const MAX_KERNELS_PER_IMAGE: usize = 12;

    /// True if `kernel` is resident in the currently flashed image.
    pub fn is_resident(&self, kernel: &str) -> bool {
        let st = self.inner.state.lock();
        st.current.as_ref().is_some_and(|img| img.kernels.iter().any(|k| k.name == kernel))
    }

    /// Kernels resident in the currently flashed image (0 when none).
    pub fn resident_kernel_count(&self) -> usize {
        let st = self.inner.state.lock();
        st.current.as_ref().map_or(0, |img| img.kernels.len())
    }

    /// Fabric resources still free: capacity minus the flashed image's total
    /// (or minus the bare wrapper when nothing is flashed). An incremental
    /// repack can only admit a kernel that fits in this headroom.
    pub fn spare_resources(&self) -> FpgaResources {
        let st = self.inner.state.lock();
        let used =
            st.current.as_ref().map_or(FpgaResources::WRAPPER_BASE, |img| img.total_resources);
        FpgaResources {
            luts: self.inner.capacity.luts.saturating_sub(used.luts),
            regs: self.inner.capacity.regs.saturating_sub(used.regs),
            brams: self.inner.capacity.brams.saturating_sub(used.brams),
            dsps: self.inner.capacity.dsps.saturating_sub(used.dsps),
        }
    }

    /// The currently flashed image id, if any.
    pub fn loaded_image(&self) -> Option<ImageId> {
        self.inner.state.lock().current.as_ref().map(|i| i.id)
    }

    /// Invokes a resident kernel; `exec` is the kernel's own compute time
    /// (supplied by the workload model).
    ///
    /// # Errors
    ///
    /// [`FpgaError::NoImageLoaded`] / [`FpgaError::KernelNotResident`].
    pub fn invoke(
        &self,
        ctx: &mut ProcCtx,
        kernel: &str,
        exec: SimDuration,
    ) -> Result<(), FpgaError> {
        {
            let st = self.inner.state.lock();
            let img = st.current.as_ref().ok_or(FpgaError::NoImageLoaded)?;
            if !img.kernels.iter().any(|k| k.name == kernel) {
                return Err(FpgaError::KernelNotResident(kernel.to_owned()));
            }
        }
        ctx.sleep(self.inner.timings.warm_dispatch + exec);
        Ok(())
    }

    /// Writes a named buffer into a DRAM bank (the producer side of the
    /// zero-copy chain).
    ///
    /// # Errors
    ///
    /// [`FpgaError::NoSuchBank`] if the bank index is out of range.
    pub fn retain_buffer(&self, bank: u32, name: &str, bytes: u64) -> Result<(), FpgaError> {
        let mut st = self.inner.state.lock();
        let slot = st.banks.get_mut(bank as usize).ok_or(FpgaError::NoSuchBank(bank))?;
        slot.buffers.insert(name.to_owned(), bytes);
        Ok(())
    }

    /// Reads (and keeps) a retained buffer's size, proving the data survived.
    ///
    /// # Errors
    ///
    /// [`FpgaError::NoSuchBank`] / [`FpgaError::NoSuchBuffer`].
    pub fn retained_buffer(&self, bank: u32, name: &str) -> Result<u64, FpgaError> {
        let st = self.inner.state.lock();
        let slot = st.banks.get(bank as usize).ok_or(FpgaError::NoSuchBank(bank))?;
        slot.buffers.get(name).copied().ok_or_else(|| FpgaError::NoSuchBuffer(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::engine::Simulation;

    fn kernel(name: &str) -> KernelSpec {
        KernelSpec {
            name: name.to_owned(),
            resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
        }
    }

    fn device() -> FpgaDevice {
        FpgaDevice::new(PuId(3), Calibration::paper_server().fpga)
    }

    #[test]
    fn image_builder_checks_capacity_and_duplicates() {
        let dup = ImageBuilder::new(ImageId(1))
            .kernel(kernel("a"))
            .kernel(kernel("a"))
            .build(&FpgaResources::F1_TOTAL);
        assert_eq!(dup.unwrap_err(), FpgaError::DuplicateKernel("a".to_owned()));

        let big = KernelSpec {
            name: "huge".to_owned(),
            resources: FpgaResources { luts: 2_000_000, ..Default::default() },
        };
        let too_big = ImageBuilder::new(ImageId(2)).kernel(big).build(&FpgaResources::F1_TOTAL);
        assert!(matches!(too_big, Err(FpgaError::InsufficientResources { .. })));

        let ok = ImageBuilder::new(ImageId(3))
            .kernels([kernel("a"), kernel("b")])
            .build(&FpgaResources::F1_TOTAL)
            .unwrap();
        assert_eq!(ok.kernels.len(), 2);
        assert_eq!(ok.total_resources.luts, FpgaResources::WRAPPER_BASE.luts + 10_000);
    }

    #[test]
    fn cold_load_is_expensive_cached_load_is_cheaper() {
        let dev = device();
        let img =
            ImageBuilder::new(ImageId(1)).kernel(kernel("vmult")).build(&dev.capacity()).unwrap();
        let mut sim = Simulation::new();
        let dev2 = dev.clone();
        let h = sim.spawn("runf", move |ctx| {
            let t0 = ctx.now();
            dev2.load_image(ctx, &img).unwrap();
            let cold = ctx.now() - t0;
            let t1 = ctx.now();
            dev2.load_image(ctx, &img).unwrap();
            let warm = ctx.now() - t1;
            (cold, warm)
        });
        sim.run().unwrap();
        let (cold, warm) = h.take_result().unwrap();
        assert!(cold > warm, "cached flash should be cheaper: {cold} vs {warm}");
        assert!((1.8..=2.0).contains(&warm.as_secs_f64()), "warm-image ≈ 1.85s");
    }

    #[test]
    fn invoke_requires_residency() {
        let dev = device();
        let img = ImageBuilder::new(ImageId(1)).kernel(kernel("a")).build(&dev.capacity()).unwrap();
        let mut sim = Simulation::new();
        let dev2 = dev.clone();
        let h = sim.spawn("runf", move |ctx| {
            let no_image = dev2.invoke(ctx, "a", SimDuration::ZERO).unwrap_err();
            dev2.load_image(ctx, &img).unwrap();
            let missing = dev2.invoke(ctx, "b", SimDuration::ZERO).unwrap_err();
            dev2.invoke(ctx, "a", SimDuration::from_micros(100)).unwrap();
            (no_image, missing)
        });
        sim.run().unwrap();
        let (no_image, missing) = h.take_result().unwrap();
        assert_eq!(no_image, FpgaError::NoImageLoaded);
        assert_eq!(missing, FpgaError::KernelNotResident("b".to_owned()));
        assert!(dev.is_resident("a"));
        assert!(!dev.is_resident("b"));
    }

    #[test]
    fn retention_keeps_dram_across_loads() {
        let dev = device();
        let img1 =
            ImageBuilder::new(ImageId(1)).kernel(kernel("a")).build(&dev.capacity()).unwrap();
        let img2 =
            ImageBuilder::new(ImageId(2)).kernel(kernel("b")).build(&dev.capacity()).unwrap();
        let mut sim = Simulation::new();
        let dev2 = dev.clone();
        let h = sim.spawn("runf", move |ctx| {
            dev2.load_image(ctx, &img1).unwrap();
            dev2.retain_buffer(0, "chain-data", 4096).unwrap();
            dev2.load_image(ctx, &img2).unwrap();
            dev2.retained_buffer(0, "chain-data")
        });
        sim.run().unwrap();
        assert_eq!(h.take_result().unwrap(), Ok(4096));
        assert_eq!(dev.retain_buffer(99, "x", 1), Err(FpgaError::NoSuchBank(99)));
    }

    #[test]
    fn twelve_instance_wrapper_fits_comfortably() {
        // Table 4: a wrapper with 12 kernels uses ~10% of F1's LUTs.
        let kernels: Vec<KernelSpec> = (0..12).map(|i| kernel(&format!("k{i}"))).collect();
        let img =
            ImageBuilder::new(ImageId(1)).kernels(kernels).build(&FpgaResources::F1_TOTAL).unwrap();
        let [lut_util, ..] = img.total_resources.utilization(&FpgaResources::F1_TOTAL);
        assert!((0.08..=0.12).contains(&lut_util), "LUT utilization {lut_util}");
    }
}
