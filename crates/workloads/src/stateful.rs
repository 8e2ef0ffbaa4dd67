//! Stateful serverless workloads over the `molecule-state` shared-state
//! tier.
//!
//! Two consumers exercise the two tiers end to end:
//!
//! * [`shared_weights_density`] — a shared-weights inference service: N
//!   co-located sandboxes `map_region` one weights region (tier 1) instead
//!   of each loading a private copy, so the model stays resident once. The
//!   report compares per-fleet RSS/PSS against the copy-per-instance
//!   baseline (the Fig. 11b/c memory-study shape, applied to model weights
//!   instead of runtime pages);
//! * [`mapreduce_shuffle`] — a real MapReduce shuffle: mappers on the host
//!   CPU write their partitions into a shuffle region and commit, reducers
//!   on the DPUs attach + pull (tier 2 moves the partitions once, riding
//!   the zero-copy descriptor path when payloads clear the calibrated
//!   threshold) and verify every byte. The copy baseline runs the same
//!   protocol over a `ShimConfig::pinned` cluster, which stages every
//!   payload inline through the xcall transport.

use hetsim::engine::ProcCtx;
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_state::{RegionSpec, StateLayer};
use vsandbox::runc::RuncRuntime;
use vsandbox::spec::{LangRuntime, SandboxConfig, SandboxId};
use vsandbox::OciRuntime;
use xpu_shim::cluster::{ShimCluster, ShimConfig};

/// Memory footprint of an N-sandbox inference fleet, shared weights region
/// vs a private copy of the weights per sandbox.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityReport {
    /// Co-located sandboxes.
    pub instances: u32,
    /// Weights size in 4 KiB pages.
    pub weight_pages: u64,
    /// Copy baseline: fleet RSS, MiB.
    pub baseline_rss_mib: f64,
    /// Copy baseline: fleet PSS, MiB.
    pub baseline_pss_mib: f64,
    /// Shared region: fleet RSS, MiB.
    pub shared_rss_mib: f64,
    /// Shared region: fleet PSS, MiB.
    pub shared_pss_mib: f64,
}

impl DensityReport {
    /// Shared-over-baseline PSS ratio — the density win (lower is better).
    pub fn pss_ratio(&self) -> f64 {
        if self.baseline_pss_mib == 0.0 {
            return 1.0;
        }
        self.shared_pss_mib / self.baseline_pss_mib
    }
}

fn infer_cfg(i: u32) -> SandboxConfig {
    SandboxConfig::general(format!("infer-{i}"), LangRuntime::Python, 128)
}

/// Boots `instances` inference sandboxes on the host CPU twice — once with
/// each sandbox mapping a private copy of the `weight_pages` model, once
/// with all of them `map_region`-ing one shared weights region — and
/// reports the fleet RSS/PSS of both arrangements.
///
/// # Panics
///
/// On sandbox or state-layer errors (the workload is deterministic; any
/// failure is a bug, not an input condition).
pub fn shared_weights_density(
    ctx: &mut ProcCtx,
    instances: u32,
    weight_pages: u64,
) -> DensityReport {
    let machine = Machine::paper_cpu_dpu_server();
    let pu = machine.host_cpu();
    let page_mib = 4096.0 / (1024.0 * 1024.0);

    // Copy baseline: every sandbox privately maps its own weights.
    let baseline = {
        let calib = machine.calibration();
        let os = machine.os(pu).expect("host CPU runs an OS").clone();
        let rt = RuncRuntime::new(os.clone(), calib);
        let mut rss = 0.0;
        let mut pss = 0.0;
        for i in 0..instances {
            let id = SandboxId::new(format!("copy-{i}"));
            rt.create(ctx, &id, &infer_cfg(i)).unwrap();
            rt.start(ctx, &id).unwrap();
            let pid = rt.os_pid(&id).expect("running sandbox has a pid");
            os.map_private(pid, weight_pages).unwrap();
        }
        for i in 0..instances {
            let id = SandboxId::new(format!("copy-{i}"));
            rss += rt.rss_bytes(&id).unwrap() as f64;
            pss += rt.pss_bytes(&id).unwrap();
        }
        (rss * page_mib / 4096.0, pss * page_mib / 4096.0)
    };

    // Shared region: one resident copy of the weights, N mappers. A fresh
    // machine so the baseline fleet's pages cannot leak into the ledger.
    let shared = {
        let machine = Machine::paper_cpu_dpu_server();
        let pu = machine.host_cpu();
        let cluster = ShimCluster::deploy(machine, ShimConfig::default());
        let layer = StateLayer::new(cluster);
        layer.create_region(ctx, pu, RegionSpec::new("weights", weight_pages)).unwrap();
        let block = layer.block_of(pu, "weights").expect("master hosts the region");
        let machine = layer.cluster().machine();
        let rt = RuncRuntime::new(machine.os(pu).unwrap().clone(), machine.calibration());
        let mut rss = 0.0;
        let mut pss = 0.0;
        for i in 0..instances {
            let id = SandboxId::new(format!("shared-{i}"));
            rt.create(ctx, &id, &infer_cfg(i)).unwrap();
            rt.start(ctx, &id).unwrap();
            rt.map_region(ctx, &id, block).unwrap();
        }
        for i in 0..instances {
            let id = SandboxId::new(format!("shared-{i}"));
            rss += rt.rss_bytes(&id).unwrap() as f64;
            pss += rt.pss_bytes(&id).unwrap();
        }
        (rss * page_mib / 4096.0, pss * page_mib / 4096.0)
    };

    DensityReport {
        instances,
        weight_pages,
        baseline_rss_mib: baseline.0,
        baseline_pss_mib: baseline.1,
        shared_rss_mib: shared.0,
        shared_pss_mib: shared.1,
    }
}

/// Outcome of one shuffle run: elapsed virtual time and derived throughput
/// for the shared-region path and the inline-copy baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleReport {
    /// Mapper count (all on the host CPU).
    pub mappers: usize,
    /// Reducer count (spread round-robin over the DPUs).
    pub reducers: usize,
    /// Bytes per (mapper, reducer) partition.
    pub partition_bytes: u64,
    /// Payload bytes a reducer consumes (mappers × partition size × r).
    pub shuffled_bytes: u64,
    /// Elapsed virtual time, shared-region shuffle.
    pub shared_elapsed: SimDuration,
    /// Elapsed virtual time, inline-copy baseline.
    pub copy_elapsed: SimDuration,
}

impl ShuffleReport {
    /// Shuffle throughput in MiB/s of virtual time for `elapsed`.
    fn throughput(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_nanos() as f64 / 1e9;
        if secs == 0.0 {
            return 0.0;
        }
        self.shuffled_bytes as f64 / (1024.0 * 1024.0) / secs
    }

    /// Shared-path shuffle throughput, MiB/s.
    pub fn shared_throughput_mibps(&self) -> f64 {
        self.throughput(self.shared_elapsed)
    }

    /// Copy-baseline shuffle throughput, MiB/s.
    pub fn copy_throughput_mibps(&self) -> f64 {
        self.throughput(self.copy_elapsed)
    }

    /// Shared-over-copy speedup (higher is better).
    pub fn speedup(&self) -> f64 {
        if self.shared_elapsed.as_nanos() == 0 {
            return 1.0;
        }
        self.copy_elapsed.as_nanos() as f64 / self.shared_elapsed.as_nanos() as f64
    }
}

/// The deterministic byte a mapper writes at index `i` of its partition for
/// reducer `r` — reducers re-derive it to verify the shuffle end to end.
fn partition_byte(mapper: usize, reducer: usize, i: u64) -> u8 {
    (mapper as u64)
        .wrapping_mul(31)
        .wrapping_add((reducer as u64).wrapping_mul(17))
        .wrapping_add(i)
        .wrapping_mul(0x9e37_79b9)
        .to_le_bytes()[0]
}

/// One shuffle over `layer`: mappers write and commit partitions on the
/// master PU, every reducer attaches on its PU, pulls the committed region
/// and verifies its column of partitions byte-for-byte. Returns the elapsed
/// virtual time.
fn run_shuffle(
    ctx: &mut ProcCtx,
    layer: &StateLayer,
    region: &str,
    mappers: usize,
    reducers: usize,
    partition_bytes: u64,
) -> SimDuration {
    let machine = layer.cluster().machine().clone();
    let master = machine.host_cpu();
    let dpus = machine.pus_of_kind(PuKind::Dpu);
    assert!(!dpus.is_empty(), "the shuffle needs at least one DPU reducer host");
    let t0 = ctx.now();
    let pages = (mappers as u64 * reducers as u64 * partition_bytes).div_ceil(4096).max(1);
    layer.create_region(ctx, master, RegionSpec::new(region, pages)).unwrap();

    // Map phase: each mapper stages its row of partitions and commits once
    // (tier 1 — co-located mappers share the master replica's pages).
    for m in 0..mappers {
        for r in 0..reducers {
            let offset = ((m * reducers + r) as u64) * partition_bytes;
            let data: Vec<u8> = (0..partition_bytes).map(|i| partition_byte(m, r, i)).collect();
            layer.write(ctx, master, region, offset, &data, None).unwrap();
        }
        layer.commit(ctx, master, region).unwrap();
    }

    // Shuffle + reduce phase: reducers pull in parallel, one process per
    // reducer, each verifying its column and folding a checksum.
    let mut handles = Vec::new();
    for r in 0..reducers {
        let pu = dpus[r % dpus.len()];
        let layer = layer.clone();
        let region = region.to_string();
        let (tx, rx) = ctx.channel::<u64>();
        ctx.spawn(&format!("reducer-{r}"), move |rctx| {
            layer.attach(rctx, pu, &region).unwrap();
            layer.pull(rctx, pu, &region).unwrap();
            let mut sum = 0u64;
            for m in 0..mappers {
                let offset = ((m * reducers + r) as u64) * partition_bytes;
                let part = layer.read(rctx, pu, &region, offset, partition_bytes).unwrap();
                for (i, b) in part.iter().enumerate() {
                    assert_eq!(
                        *b,
                        partition_byte(m, r, i as u64),
                        "shuffle corruption at mapper {m} reducer {r} byte {i}"
                    );
                    sum = sum.wrapping_add(*b as u64);
                }
            }
            let _ = tx.send(sum);
        });
        handles.push(rx);
    }
    for rx in handles {
        rx.recv(ctx).unwrap();
    }
    let elapsed = ctx.now() - t0;
    layer.drop_region(ctx, region).unwrap();
    elapsed
}

/// Runs the MapReduce shuffle twice — shared regions with the zero-copy
/// descriptor path, then the inline-copy baseline (`ShimConfig::pinned`,
/// every payload staged through the xcall transport) — and reports both.
///
/// # Panics
///
/// On state-layer errors or shuffle verification failures.
pub fn mapreduce_shuffle(
    ctx: &mut ProcCtx,
    mappers: usize,
    reducers: usize,
    partition_bytes: u64,
) -> ShuffleReport {
    let shared_layer = StateLayer::new(ShimCluster::deploy(
        Machine::paper_cpu_dpu_server(),
        ShimConfig::default(),
    ));
    let shared_elapsed =
        run_shuffle(ctx, &shared_layer, "shuffle", mappers, reducers, partition_bytes);

    let copy_layer =
        StateLayer::new(ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::pinned()));
    let copy_elapsed = run_shuffle(ctx, &copy_layer, "shuffle", mappers, reducers, partition_bytes);

    ShuffleReport {
        mappers,
        reducers,
        partition_bytes,
        shuffled_bytes: (mappers * reducers) as u64 * partition_bytes,
        shared_elapsed,
        copy_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::engine::Simulation;

    #[test]
    fn shared_weights_halve_the_fleet_footprint() {
        let mut sim = Simulation::new();
        let out = sim.spawn("density", |ctx| shared_weights_density(ctx, 8, 32_768));
        sim.run().unwrap();
        let rep = out.take_result().unwrap();
        assert!(
            rep.pss_ratio() <= 0.5,
            "8 sandboxes sharing 128 MiB of weights must at least halve PSS, got {:.2} \
             ({:.1} vs {:.1} MiB)",
            rep.pss_ratio(),
            rep.shared_pss_mib,
            rep.baseline_pss_mib
        );
        assert!(
            rep.shared_rss_mib <= rep.baseline_rss_mib + 1e-9,
            "sharing must never cost RSS: {rep:?}"
        );
    }

    #[test]
    fn density_win_grows_with_colocation() {
        let mut sim = Simulation::new();
        let out = sim.spawn("density", |ctx| {
            [1u32, 4, 8].map(|n| shared_weights_density(ctx, n, 16_384).pss_ratio())
        });
        sim.run().unwrap();
        let ratios = out.take_result().unwrap();
        assert!(ratios[1] < ratios[0] && ratios[2] < ratios[1], "monotone density: {ratios:?}");
    }

    #[test]
    fn shuffle_verifies_and_beats_the_copy_baseline() {
        let mut sim = Simulation::new();
        let out = sim.spawn("shuffle", |ctx| mapreduce_shuffle(ctx, 4, 4, 64 * 1024));
        sim.run().unwrap();
        let rep = out.take_result().unwrap();
        assert!(
            rep.speedup() >= 2.0,
            "zero-copy shuffle should at least double the inline baseline, got {:.2}x \
             (shared {} vs copy {})",
            rep.speedup(),
            rep.shared_elapsed,
            rep.copy_elapsed
        );
        assert!(rep.shared_throughput_mibps() > rep.copy_throughput_mibps());
    }

    #[test]
    fn tiny_partitions_still_shuffle_correctly() {
        // Below the zero-copy threshold both paths stage inline; correctness
        // (the in-loop byte verification) must hold regardless.
        let mut sim = Simulation::new();
        let out = sim.spawn("shuffle", |ctx| mapreduce_shuffle(ctx, 2, 3, 512));
        sim.run().unwrap();
        let rep = out.take_result().unwrap();
        assert_eq!(rep.shuffled_bytes, 2 * 3 * 512);
        assert!(rep.shared_elapsed > SimDuration::ZERO);
    }
}
