//! GPU device model (the §6.8 generality target).
//!
//! The paper's `runG` manages GPU serverless functions through the CUDA API
//! with an MPS-style wrapper: unlike an FPGA, a GPU holds many resident
//! kernels at once (multiple contexts or a shared context), so the
//! vectorized-sandbox abstraction maps onto it almost for free.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::ProcCtx;
use crate::pu::PuId;
use crate::time::SimDuration;

/// GPU timing constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuCosts {
    /// Creating a CUDA context.
    pub context_create: SimDuration,
    /// Loading a kernel module (cubin) into a context.
    pub module_load: SimDuration,
    /// Launch overhead of a resident kernel.
    pub kernel_launch: SimDuration,
}

impl Default for GpuCosts {
    fn default() -> Self {
        GpuCosts {
            context_create: SimDuration::from_millis(120),
            module_load: SimDuration::from_millis(15),
            kernel_launch: SimDuration::from_micros(10),
        }
    }
}

/// Errors from GPU operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// The referenced context does not exist.
    NoSuchContext(u32),
    /// The named kernel is not loaded in the context.
    KernelNotLoaded(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::NoSuchContext(id) => write!(f, "no such GPU context: {id}"),
            GpuError::KernelNotLoaded(name) => write!(f, "kernel not loaded: {name}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Identifier of a GPU context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpuContextId(pub u32);

#[derive(Default)]
struct GpuState {
    next_context: u32,
    contexts: HashMap<u32, Vec<String>>, // context -> loaded kernels
}

/// One GPU device. Cheap to clone; clones share device state.
#[derive(Clone)]
pub struct GpuDevice {
    inner: Arc<GpuInner>,
}

struct GpuInner {
    pu: PuId,
    costs: GpuCosts,
    mps_enabled: bool,
    state: Mutex<GpuState>,
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("GpuDevice")
            .field("pu", &self.inner.pu)
            .field("contexts", &st.contexts.len())
            .field("mps", &self.inner.mps_enabled)
            .finish()
    }
}

impl GpuDevice {
    /// Creates a GPU attached as PU `pu` with Nvidia MPS enabled (the
    /// multi-function sharing mode the paper relies on).
    pub fn new(pu: PuId, costs: GpuCosts) -> GpuDevice {
        GpuDevice {
            inner: Arc::new(GpuInner {
                pu,
                costs,
                mps_enabled: true,
                state: Mutex::new(GpuState::default()),
            }),
        }
    }

    /// Concurrent resident-kernel limit: Nvidia MPS caps client processes
    /// per device at 48 — the instance bound the scheduler's capacity check
    /// enforces so placement cannot overcommit the device.
    pub const MPS_KERNEL_SLOTS: usize = 48;

    /// The PU id this device is attached as.
    pub fn pu(&self) -> PuId {
        self.inner.pu
    }

    /// Whether MPS (concurrent multi-process kernels) is on.
    pub fn mps_enabled(&self) -> bool {
        self.inner.mps_enabled
    }

    /// The timing constants this device was built with.
    pub fn costs(&self) -> GpuCosts {
        self.inner.costs
    }

    /// Kernel slots still free under [`Self::MPS_KERNEL_SLOTS`].
    pub fn free_kernel_slots(&self) -> usize {
        Self::MPS_KERNEL_SLOTS.saturating_sub(self.resident_kernels())
    }

    /// Creates a CUDA context.
    pub fn create_context(&self, ctx: &mut ProcCtx) -> GpuContextId {
        ctx.sleep(self.inner.costs.context_create);
        let mut st = self.inner.state.lock();
        st.next_context += 1;
        let id = st.next_context;
        st.contexts.insert(id, Vec::new());
        GpuContextId(id)
    }

    /// Loads a kernel module into a context.
    ///
    /// # Errors
    ///
    /// [`GpuError::NoSuchContext`] on a dangling context id.
    pub fn load_kernel(
        &self,
        ctx: &mut ProcCtx,
        context: GpuContextId,
        kernel: &str,
    ) -> Result<(), GpuError> {
        {
            let st = self.inner.state.lock();
            if !st.contexts.contains_key(&context.0) {
                return Err(GpuError::NoSuchContext(context.0));
            }
        }
        ctx.sleep(self.inner.costs.module_load);
        let mut st = self.inner.state.lock();
        st.contexts
            .get_mut(&context.0)
            .ok_or(GpuError::NoSuchContext(context.0))?
            .push(kernel.to_owned());
        Ok(())
    }

    /// Launches a resident kernel; `exec` is the kernel's compute time.
    ///
    /// # Errors
    ///
    /// [`GpuError::NoSuchContext`] / [`GpuError::KernelNotLoaded`].
    pub fn launch(
        &self,
        ctx: &mut ProcCtx,
        context: GpuContextId,
        kernel: &str,
        exec: SimDuration,
    ) -> Result<(), GpuError> {
        {
            let st = self.inner.state.lock();
            let loaded = st.contexts.get(&context.0).ok_or(GpuError::NoSuchContext(context.0))?;
            if !loaded.iter().any(|k| k == kernel) {
                return Err(GpuError::KernelNotLoaded(kernel.to_owned()));
            }
        }
        ctx.sleep(self.inner.costs.kernel_launch + exec);
        Ok(())
    }

    /// Unloads one occurrence of a kernel from a context — `runG`'s delete
    /// path, which must return the MPS slot so capacity checks see live
    /// kernels only. Unloading is free (the module is dropped, not flashed).
    ///
    /// # Errors
    ///
    /// [`GpuError::NoSuchContext`] on a dangling context id.
    pub fn unload_kernel(&self, context: GpuContextId, kernel: &str) -> Result<(), GpuError> {
        let mut st = self.inner.state.lock();
        let loaded = st.contexts.get_mut(&context.0).ok_or(GpuError::NoSuchContext(context.0))?;
        if let Some(pos) = loaded.iter().position(|k| k == kernel) {
            loaded.remove(pos);
        }
        Ok(())
    }

    /// Number of kernels resident across all contexts.
    pub fn resident_kernels(&self) -> usize {
        self.inner.state.lock().contexts.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;

    #[test]
    fn context_and_kernel_lifecycle() {
        let gpu = GpuDevice::new(PuId(4), GpuCosts::default());
        let mut sim = Simulation::new();
        let gpu2 = gpu.clone();
        let h = sim.spawn("rung", move |ctx| {
            let c = gpu2.create_context(ctx);
            gpu2.load_kernel(ctx, c, "matmul").unwrap();
            gpu2.load_kernel(ctx, c, "vecadd").unwrap();
            let missing = gpu2.launch(ctx, c, "nope", SimDuration::ZERO).unwrap_err();
            gpu2.launch(ctx, c, "matmul", SimDuration::from_micros(500)).unwrap();
            let before = ctx.now();
            gpu2.launch(ctx, c, "vecadd", SimDuration::from_micros(100)).unwrap();
            let launch_cost = ctx.now() - before;
            (missing, launch_cost)
        });
        sim.run().unwrap();
        let (missing, launch_cost) = h.take_result().unwrap();
        assert_eq!(missing, GpuError::KernelNotLoaded("nope".to_owned()));
        assert_eq!(launch_cost, SimDuration::from_micros(110));
        assert_eq!(gpu.resident_kernels(), 2);
    }

    #[test]
    fn gpu_holds_many_functions_at_once() {
        // Unlike the FPGA's one-image-at-a-time restriction, a GPU keeps
        // many kernels resident — which is why vectorization is "natural"
        // on GPUs (§6.8).
        let gpu = GpuDevice::new(PuId(4), GpuCosts::default());
        let mut sim = Simulation::new();
        let gpu2 = gpu.clone();
        sim.spawn("rung", move |ctx| {
            let c = gpu2.create_context(ctx);
            for i in 0..32 {
                gpu2.load_kernel(ctx, c, &format!("fn{i}")).unwrap();
            }
        });
        sim.run().unwrap();
        assert_eq!(gpu.resident_kernels(), 32);
        assert!(gpu.mps_enabled());
    }
}
