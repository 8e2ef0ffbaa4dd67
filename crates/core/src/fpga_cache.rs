//! FPGA instance caching (paper §4.2, "Caching FPGA function instances").
//!
//! Instead of fork, Molecule mitigates FPGA cold boots by *caching*: a
//! keep-alive policy predicts which functions to keep resident, and the
//! vectorized sandbox packs them into one image. On a miss the manager
//! repacks the image around the keep set plus the requested function and
//! re-flashes; on a hit the request goes straight to the resident sandbox.

use std::fmt;
use std::sync::Arc;

use hetsim::engine::ProcCtx;
use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use parking_lot::Mutex;
use vsandbox::oci::VectorizedRuntime;
use vsandbox::spec::{FuncId, SandboxId, SandboxState};

use crate::error::MoleculeError;
use crate::keepalive::KeepAlivePolicy;
use crate::runtime::Molecule;

/// Counters the cache manager keeps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FpgaCacheStats {
    /// Requests served by a resident kernel.
    pub hits: u64,
    /// Requests that required a re-flash.
    pub misses: u64,
    /// Images flashed (each miss flashes once).
    pub flashes: u64,
}

struct CacheState {
    policy: Box<dyn KeepAlivePolicy>,
    stats: FpgaCacheStats,
}

/// Keep-alive-driven vectorized image cache for one FPGA device.
#[derive(Clone)]
pub struct FpgaCacheManager {
    molecule: Molecule,
    pu: PuId,
    /// How many kernels one image may hold (the wrapper supports 12 on F1,
    /// Table 4).
    capacity: usize,
    state: Arc<Mutex<CacheState>>,
}

impl fmt::Debug for FpgaCacheManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FpgaCacheManager")
            .field("pu", &self.pu)
            .field("capacity", &self.capacity)
            .field("stats", &self.state.lock().stats)
            .finish()
    }
}

impl FpgaCacheManager {
    /// Creates a manager for the FPGA attached as `pu`, packing at most
    /// `capacity` kernels per image under `policy`.
    pub fn new(
        molecule: Molecule,
        pu: PuId,
        capacity: usize,
        policy: Box<dyn KeepAlivePolicy>,
    ) -> FpgaCacheManager {
        FpgaCacheManager {
            molecule,
            pu,
            capacity,
            state: Arc::new(Mutex::new(CacheState { policy, stats: FpgaCacheStats::default() })),
        }
    }

    /// Counters.
    pub fn stats(&self) -> FpgaCacheStats {
        self.state.lock().stats
    }

    /// True if `func`'s kernel is resident on the fabric right now.
    pub fn is_resident(&self, func: &FuncId) -> bool {
        self.molecule
            .runf(self.pu)
            .is_some_and(|runf| runf.is_resident(&SandboxId::new(func.as_str())))
    }

    /// The cache manager drives `runF` directly, below [`Molecule::invoke`]
    /// and its dead-PU guard — so it must consult the fault plane itself or
    /// a batch keeps executing on a crashed fabric. Surfacing the shim's
    /// fault shape sends gateways down their failover path, which re-places
    /// the whole in-flight batch instead of losing it.
    fn check_alive(&self) -> Result<(), MoleculeError> {
        if self.molecule.machine().fault_plane().is_dead(self.pu) {
            return Err(MoleculeError::Shim(xpu_shim::error::ShimError::PeerDead(self.pu)));
        }
        Ok(())
    }

    /// Serves a *batch* of concurrently pending requests in one pass: all
    /// missing kernels are packed into a **single** re-flash (keep set +
    /// every missed function), then each request starts its sandbox and
    /// runs. This is the cold-start aggregation path — N one-request calls
    /// that miss cost N flashes that evict each other, a batch of N costs
    /// one. A lone request is a batch of one.
    ///
    /// Returns `(latency, hit)` per request, in input order. Latencies are
    /// measured from the batch start, so co-batched requests share the
    /// single flash delay.
    ///
    /// # Errors
    ///
    /// Unknown functions, functions without FPGA profiles, device errors.
    /// On error nothing is partially recorded beyond the flash itself.
    pub fn request_batch(
        &self,
        ctx: &mut ProcCtx,
        reqs: &[(FuncId, u64)],
    ) -> Result<Vec<(SimDuration, bool)>, MoleculeError> {
        self.check_alive()?;
        let t0 = ctx.now();
        // Validate every request and classify hits/misses up front.
        let mut execs = Vec::with_capacity(reqs.len());
        let mut hits = Vec::with_capacity(reqs.len());
        let mut missed: Vec<FuncId> = Vec::new();
        for (func, input_bytes) in reqs {
            let def = self
                .molecule
                .registry()
                .get(func)
                .ok_or_else(|| MoleculeError::UnknownFunction(func.clone()))?;
            let exec = def
                .fpga
                .as_ref()
                .ok_or(MoleculeError::UnsupportedPu { func: func.clone(), pu: self.pu })?
                .exec
                .host_time(*input_bytes);
            execs.push(exec);
            let hit = self.is_resident(func);
            hits.push(hit);
            if !hit && !missed.contains(func) {
                missed.push(func.clone());
            }
        }
        let runf = self
            .molecule
            .runf(self.pu)
            .ok_or_else(|| MoleculeError::Internal(format!("no runf on {}", self.pu)))?
            .clone();

        if !missed.is_empty() {
            // One repack covering the keep set plus every missed function.
            let now = ctx.now();
            let keep_budget = self.capacity.saturating_sub(missed.len());
            let mut pack = {
                let mut st = self.state.lock();
                st.policy.keep_set(now, keep_budget)
            };
            pack.retain(|f| !missed.contains(f) && self.molecule.registry().get(f).is_some());
            pack.extend(missed.iter().cloned());
            self.molecule.cache_fpga_functions_replacing(ctx, self.pu, &pack)?;
            // The flash is seconds of virtual time — the fabric may have
            // died under it.
            self.check_alive()?;
        }
        {
            let mut st = self.state.lock();
            st.stats.hits += hits.iter().filter(|h| **h).count() as u64;
            st.stats.misses += hits.iter().filter(|h| !**h).count() as u64;
            if !missed.is_empty() {
                st.stats.flashes += 1;
            }
        }

        // Start every sandbox that needs it (vectorized: prep is charged
        // once per batch by runF's start_vec), then run each request.
        let mut to_start: Vec<SandboxId> = reqs
            .iter()
            .map(|(f, _)| SandboxId::new(f.as_str()))
            .filter(|sb| !matches!(runf.peek_state(sb), Some(SandboxState::Running)))
            .collect();
        to_start.sort();
        to_start.dedup();
        if !to_start.is_empty() {
            runf.start_vec(ctx, &to_start).map_err(MoleculeError::Sandbox)?;
        }
        let mut out = Vec::with_capacity(reqs.len());
        let host = self.molecule.machine().host_cpu();
        for (i, (func, input_bytes)) in reqs.iter().enumerate() {
            let sandbox = SandboxId::new(func.as_str());
            let dma = self.molecule.machine().route(host, self.pu).transfer_time(*input_bytes);
            ctx.sleep(dma);
            runf.invoke(ctx, &sandbox, execs[i]).map_err(MoleculeError::Sandbox)?;
            let now = ctx.now();
            self.state.lock().policy.on_invoke(func, now, execs[i], 1.0);
            out.push((now - t0, hits[i]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{ExecModel, FunctionDef};
    use crate::keepalive::{GreedyDual, Lru};
    use crate::runtime::MoleculeConfig;
    use hetsim::engine::Simulation;
    use hetsim::fpga::{FpgaResources, KernelSpec};
    use hetsim::pu::PuKind;
    use hetsim::topology::Machine;
    use vsandbox::spec::LangRuntime;

    fn kernel_spec(name: &str) -> KernelSpec {
        KernelSpec {
            name: name.to_owned(),
            resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
        }
    }

    /// One request served as a batch of one.
    fn request(
        m: &FpgaCacheManager,
        ctx: &mut ProcCtx,
        func: &FuncId,
        input_bytes: u64,
    ) -> (SimDuration, bool) {
        m.request_batch(ctx, &[(func.clone(), input_bytes)]).unwrap()[0]
    }

    fn setup(capacity: usize, policy: Box<dyn KeepAlivePolicy>) -> (FpgaCacheManager, Vec<FuncId>) {
        let machine = Machine::paper_f1_instance();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let molecule = Molecule::launch(machine, MoleculeConfig::default());
        let mut funcs = Vec::new();
        for i in 0..6 {
            let name = format!("kern{i}");
            molecule.register_function(
                FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                    .profiles(&[PuKind::Fpga])
                    .fpga(kernel_spec(&name), ExecModel::Fixed(SimDuration::from_micros(100)))
                    .build(),
            );
            funcs.push(FuncId::new(name));
        }
        (FpgaCacheManager::new(molecule, fpga, capacity, policy), funcs)
    }

    #[test]
    fn repeat_requests_hit_after_first_flash() {
        let (mgr, funcs) = setup(4, Box::new(Lru::new()));
        let mut sim = Simulation::new();
        let m = mgr.clone();
        let f = funcs[0].clone();
        let out = sim.spawn("driver", move |ctx| {
            let (cold, hit0) = request(&m, ctx, &f, 4096);
            let (warm, hit1) = request(&m, ctx, &f, 4096);
            (cold, hit0, warm, hit1)
        });
        sim.run().unwrap();
        let (cold, hit0, warm, hit1) = out.take_result().unwrap();
        assert!(!hit0);
        assert!(hit1);
        assert!(cold > warm, "flash ({cold}) must dwarf the warm request ({warm})");
        assert!(warm < SimDuration::from_millis(1));
        assert_eq!(mgr.stats().flashes, 1);
    }

    #[test]
    fn keep_set_survives_repacking() {
        // Hot functions stay resident across a miss-triggered re-flash.
        let (mgr, funcs) = setup(4, Box::new(Lru::new()));
        let mut sim = Simulation::new();
        let m = mgr.clone();
        let fs = funcs.clone();
        let out = sim.spawn("driver", move |ctx| {
            // Warm up three hot functions.
            for f in &fs[0..3] {
                request(&m, ctx, f, 1024);
            }
            // A fourth function misses and triggers a repack.
            request(&m, ctx, &fs[3], 1024);
            (
                m.is_resident(&fs[0]),
                m.is_resident(&fs[1]),
                m.is_resident(&fs[2]),
                m.is_resident(&fs[3]),
            )
        });
        sim.run().unwrap();
        let (a, b, c, d) = out.take_result().unwrap();
        assert!(a && b && c && d, "keep set + new function all resident: {a} {b} {c} {d}");
        // Hot functions now hit without flashing.
        let stats = mgr.stats();
        assert!(stats.flashes <= 4);
    }

    #[test]
    fn batched_cold_starts_share_one_flash() {
        // One at a time: each miss repacks and the flashes thrash each other.
        let (scalar, funcs) = setup(6, Box::new(Lru::new()));
        let mut sim = Simulation::new();
        let m = scalar.clone();
        let fs = funcs.clone();
        let scalar_done = sim.spawn("scalar", move |ctx| {
            for f in &fs[0..4] {
                request(&m, ctx, f, 1024);
            }
            ctx.now()
        });
        sim.run().unwrap();
        let scalar_elapsed = scalar_done.take_result().unwrap();

        // Batched: the same four cold functions coalesce into one flash.
        let (batched, funcs2) = setup(6, Box::new(Lru::new()));
        let mut sim = Simulation::new();
        let m = batched.clone();
        let fs = funcs2.clone();
        let out = sim.spawn("batch", move |ctx| {
            let reqs: Vec<(FuncId, u64)> = fs[0..4].iter().map(|f| (f.clone(), 1024)).collect();
            let results = m.request_batch(ctx, &reqs).unwrap();
            (results, ctx.now())
        });
        sim.run().unwrap();
        let (results, batch_elapsed) = out.take_result().unwrap();

        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|(_, hit)| !hit), "all four were cold");
        assert_eq!(batched.stats().flashes, 1, "one vectorized flash for the batch");
        assert_eq!(batched.stats().misses, 4);
        assert!(scalar.stats().flashes >= 4, "scalar path flashes per miss: {:?}", scalar.stats());
        assert!(
            batch_elapsed < scalar_elapsed,
            "batch {batch_elapsed} must beat scalar {scalar_elapsed}"
        );
        // Everything in the batch is resident and serves hits afterwards.
        let mut sim = Simulation::new();
        let m = batched.clone();
        let f0 = funcs2[0].clone();
        let h = sim.spawn("after", move |ctx| request(&m, ctx, &f0, 1024).1);
        sim.run().unwrap();
        assert!(h.take_result().unwrap(), "post-batch request hits");
    }

    #[test]
    fn skewed_workload_hit_rate_is_high_under_greedy_dual() {
        let (mgr, funcs) = setup(4, Box::new(GreedyDual::new()));
        let mut sim = Simulation::new();
        let m = mgr.clone();
        let fs = funcs.clone();
        let _ = sim.spawn("driver", move |ctx| {
            // Zipf-ish: 3 hot functions dominate, 3 cold ones appear rarely.
            let pattern =
                [0usize, 1, 2, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 4, 0, 1, 2, 0, 1, 2, 5];
            for &i in pattern.iter() {
                request(&m, ctx, &fs[i], 1024);
            }
        });
        sim.run().unwrap();
        let stats = mgr.stats();
        let total = stats.hits + stats.misses;
        let hit_rate = stats.hits as f64 / total as f64;
        assert!(hit_rate >= 0.6, "hit rate {hit_rate} ({stats:?})");
        // The hot trio must still be resident at the end.
        for f in &funcs[0..3] {
            assert!(mgr.is_resident(f), "{f} evicted");
        }
    }
}
