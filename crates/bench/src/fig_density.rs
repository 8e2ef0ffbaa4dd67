//! High-density PUs: 10k+ sandboxes per PU with DPU I/O offload.
//!
//! Grown out of `examples/density_scaling.rs` (Fig. 2a packs instances by
//! *reservation*; this figure packs them by *resident memory*). Three
//! sub-studies per density point, swept 100 → 10 000 sandboxes:
//!
//! * **Memory** — a copy fleet (every sandbox booted from scratch) vs a
//!   dense cfork fleet ([`CforkOpts::dense`]): per-sandbox PSS in KiB,
//!   expected sub-linear for the dense fleet since children keep the
//!   template COW-shared and dirty only
//!   [`dense_private_pages`](hetsim::calib::MemoryModel::dense_private_pages).
//!   CI gates the 10k ratio at ≤ 0.25x the copy baseline.
//! * **Invoke latency** — p99 of a compute + I/O function at a concurrency
//!   that scales with density. Inline, the I/O phase queues on the host's
//!   few shepherding slots; offloaded, it fans out over a
//!   [`ProxyPool`] of DPU proxies. CI
//!   gates the offloaded p99 at 10k to ≤ 1.2x its 100-sandbox point, and
//!   lost requests (issued but neither completed nor reclaimed) to zero.
//! * **Reclaim sweep** — kill a DPU holding the density's worth of resident
//!   processes and FIFOs, reclaim it, and report the sweep's virtual-time
//!   cost plus how many amortization bursts it took
//!   ([`ShimStats::reclaim_batches`](xpu_shim::cluster::ShimStats)).

use bytes::Bytes;
use hetsim::calib::Calibration;
use hetsim::os::LocalOs;
use hetsim::pu::{PuId, PuKind, PuSpec};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::proxy::{ProxyPool, ProxyPoolConfig};
use vsandbox::runc::{CforkOpts, RuncRuntime};
use vsandbox::spec::{LangRuntime, SandboxConfig, SandboxId};
use vsandbox::OciRuntime;
use xpu_shim::cluster::{ShimCluster, ShimConfig};

use crate::run_sim;

/// The density ladder swept by [`study`].
pub const DENSITIES: [u32; 4] = [100, 1_000, 3_000, 10_000];

/// One density point.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRow {
    /// Resident sandboxes on the PU.
    pub sandboxes: u32,
    /// Copy-fleet per-sandbox PSS, KiB.
    pub copy_pss_kib: f64,
    /// Dense-cfork-fleet per-sandbox PSS, KiB (template included).
    pub dense_pss_kib: f64,
    /// `dense / copy` — the headline sub-linearity ratio.
    pub pss_ratio: f64,
    /// p99 invoke latency with inline host I/O, µs.
    pub p99_inline_us: f64,
    /// p99 invoke latency with DPU proxy offload, µs.
    pub p99_offload_us: f64,
    /// Offload requests issued but neither completed nor reclaimed.
    pub lost: u64,
    /// Virtual time of the dead-PU reclaim sweep, ms.
    pub sweep_ms: f64,
    /// Amortization bursts the sweep was chopped into.
    pub sweep_batches: u64,
}

/// Per-sandbox reservation, MiB — small enough that 10k sandboxes fit the
/// host's usable memory, the regime the dense profile exists for.
const SANDBOX_MIB: u64 = 4;

fn p99(lats: &mut [f64]) -> f64 {
    lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((lats.len() as f64) * 0.99).ceil() as usize;
    lats[idx.saturating_sub(1).min(lats.len() - 1)]
}

fn host_runtime(calib: &Calibration) -> RuncRuntime {
    // 48 GiB usable: 10k sandboxes at 4 MiB reservations fit with headroom.
    let os = LocalOs::boot(&PuSpec::xeon_host(PuId(0)), calib.cpu_os, 48 * 1024);
    RuncRuntime::new(os, calib)
}

fn sandbox_cfg() -> SandboxConfig {
    SandboxConfig::general("hd-func", LangRuntime::Python, SANDBOX_MIB)
}

/// Per-sandbox PSS (KiB) of a copy fleet vs a dense cfork fleet of `n`.
pub fn memory_point(n: u32) -> (f64, f64) {
    run_sim("density-mem", move |ctx| {
        let calib = Calibration::desktop();
        let cfg = sandbox_cfg();

        // Copy fleet: every sandbox booted independently.
        let copy = host_runtime(&calib);
        for i in 0..n {
            let id = SandboxId::new(format!("c{i}"));
            copy.create(ctx, &id, &cfg).unwrap();
            copy.start(ctx, &id).unwrap();
        }
        let copy_pss = copy.fleet_pss_bytes() / n as f64;

        // Dense fleet: one template, n dense cfork children. Fleet PSS
        // includes the template's share (§6.4 counts template resources).
        let dense = host_runtime(&calib);
        let template = dense.prepare_template(ctx, LangRuntime::Python, 64).unwrap();
        for i in 0..n {
            let id = SandboxId::new(format!("d{i}"));
            dense
                .cfork(ctx, &template, &id, &cfg, CforkOpts { dense: true, ..CforkOpts::default() })
                .unwrap();
        }
        let dense_pss = dense.fleet_pss_bytes() / n as f64;

        (copy_pss / 1024.0, dense_pss / 1024.0)
    })
}

/// p99 invoke latency (µs) inline vs offloaded at the concurrency this
/// density implies, plus lost offload requests.
pub fn invoke_point(n: u32) -> (f64, f64, u64) {
    run_sim("density-invoke", move |ctx| {
        let machine = Machine::builder().host_cpu().bluefield2_dpus(2).build();
        let cluster = ShimCluster::deploy(machine, ShimConfig::default());
        let host = cluster.machine().host_cpu();
        // Active invokers scale with resident density: ~0.6% of sandboxes
        // are mid-invoke at once.
        let workers = (n as usize / 160).clamp(2, 64);
        let per_worker = 15usize;
        let compute = SimDuration::from_micros(300);

        // Inline: the function's I/O phase shepherds bytes through one of
        // the host's two spare I/O slots — at high density the queue there
        // is the latency story.
        let host_io = ctx.semaphore(2);
        let io_service = SimDuration::from_micros(25);
        let mut handles = Vec::new();
        for w in 0..workers {
            let sem = host_io.clone();
            handles.push(ctx.spawn(&format!("inline-{w}"), move |wctx| {
                let mut lats = Vec::with_capacity(per_worker);
                for _ in 0..per_worker {
                    let t0 = wctx.now();
                    wctx.sleep(compute);
                    {
                        let _slot = sem.acquire(wctx, 1);
                        wctx.sleep(io_service);
                    }
                    lats.push((wctx.now() - t0).as_micros_f64());
                }
                lats
            }));
        }
        let mut inline_lats = Vec::new();
        for h in &handles {
            h.join(ctx);
            inline_lats.extend(h.take_result().unwrap());
        }

        // Offload: the same function hands its I/O to DPU proxies. Proxy
        // capacity is horizontal (16 per DPU x 2 DPUs), so the per-proxy
        // queue stays shallow even at 64 concurrent invokers.
        let pool = ProxyPool::deploy(
            ctx,
            &cluster,
            ProxyPoolConfig {
                proxies_per_dpu: 16,
                window: 8,
                device_service: SimDuration::from_micros(5),
                reply_timeout: SimDuration::from_millis(20),
            },
        )
        .unwrap();
        let mut handles = Vec::new();
        for w in 0..workers {
            let pool = pool.clone();
            handles.push(ctx.spawn(&format!("offload-{w}"), move |wctx| {
                let mut client = pool.client(wctx, host).unwrap();
                let mut lats = Vec::with_capacity(per_worker);
                for _ in 0..per_worker {
                    let t0 = wctx.now();
                    wctx.sleep(compute);
                    // 32 KiB body: above the 16 KiB threshold, so the bytes
                    // move as a zero-copy descriptor.
                    pool.offload(wctx, &mut client, Bytes::from(vec![0u8; 32 * 1024])).unwrap();
                    lats.push((wctx.now() - t0).as_micros_f64());
                }
                lats
            }));
        }
        let mut offload_lats = Vec::new();
        for h in &handles {
            h.join(ctx);
            offload_lats.extend(h.take_result().unwrap());
        }
        pool.shutdown(ctx);
        let stats = pool.stats();
        let lost = stats.issued - stats.completed - stats.reclaimed + stats.double_faults;
        (p99(&mut inline_lats), p99(&mut offload_lats), lost)
    })
}

/// Kills a DPU holding `n` resident processes (plus one FIFO per 20) and
/// measures the reclaim sweep: virtual-time cost (ms) and amortization
/// bursts.
pub fn sweep_point(n: u32) -> (f64, u64) {
    run_sim("density-sweep", move |ctx| {
        let machine = Machine::builder().host_cpu().bluefield2_dpus(1).build();
        let cluster = ShimCluster::deploy(machine, ShimConfig::default());
        let dpu = cluster.machine().pus_of_kind(PuKind::Dpu)[0];
        let shim = cluster.shim_on(dpu).unwrap();
        let mut fifos = Vec::new();
        for i in 0..n {
            let pid = shim.attach_process();
            if i % 20 == 0 {
                fifos.push(shim.xfifo_init(ctx, pid, format!("hd-fifo-{i}")).unwrap());
            }
        }
        cluster.machine().fault_plane().kill_pu(ctx.now(), dpu);
        let before = cluster.stats().reclaim_batches;
        let t0 = ctx.now();
        let report = cluster.reclaim_pu(ctx, dpu);
        assert_eq!(report.processes as u32, n);
        let sweep_ms = (ctx.now() - t0).as_millis_f64();
        (sweep_ms, cluster.stats().reclaim_batches - before)
    })
}

/// Runs the full sweep.
pub fn study() -> Vec<DensityRow> {
    DENSITIES
        .into_iter()
        .map(|n| {
            let (copy_pss_kib, dense_pss_kib) = memory_point(n);
            let (p99_inline_us, p99_offload_us, lost) = invoke_point(n);
            let (sweep_ms, sweep_batches) = sweep_point(n);
            DensityRow {
                sandboxes: n,
                copy_pss_kib,
                dense_pss_kib,
                pss_ratio: dense_pss_kib / copy_pss_kib,
                p99_inline_us,
                p99_offload_us,
                lost,
                sweep_ms,
                sweep_batches,
            }
        })
        .collect()
}

/// Prints the table and exports `BENCH_density.json`.
pub fn print() {
    let rows_data = study();
    let base_offload = rows_data[0].p99_offload_us;
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.sandboxes.to_string(),
                format!("{:.1}", r.copy_pss_kib),
                format!("{:.1}", r.dense_pss_kib),
                format!("{:.3}", r.pss_ratio),
                format!("{:.1}us", r.p99_inline_us),
                format!("{:.1}us", r.p99_offload_us),
                format!("{:.3}x", r.p99_offload_us / base_offload),
                r.lost.to_string(),
                format!("{:.3}ms", r.sweep_ms),
                r.sweep_batches.to_string(),
            ]
        })
        .collect();
    crate::export_table(
        "density",
        "High-density PUs: dense cfork PSS + DPU I/O offload p99 + reclaim sweeps",
        &[
            "sandboxes",
            "copy PSS KiB",
            "dense PSS KiB",
            "ratio",
            "p99 inline",
            "p99 offload",
            "vs 100",
            "lost",
            "sweep",
            "batches",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_pss_at_10k_is_under_a_quarter_of_copy() {
        let (copy, dense) = memory_point(10_000);
        let ratio = dense / copy;
        assert!(ratio <= 0.25, "PSS ratio {ratio} at 10k exceeds the 0.25 gate");
        // And sub-linear: the 100-point ratio is materially worse.
        let (copy100, dense100) = memory_point(100);
        assert!(dense100 / copy100 > ratio, "sharing should amortize with density");
    }

    #[test]
    fn offload_p99_stays_flat_while_inline_degrades() {
        let (inline_low, offload_low, lost_low) = invoke_point(100);
        let (inline_high, offload_high, lost_high) = invoke_point(10_000);
        assert_eq!(lost_low + lost_high, 0, "offload lost requests");
        assert!(
            offload_high <= 1.2 * offload_low,
            "offloaded p99 {offload_high}us at 10k vs {offload_low}us at 100"
        );
        assert!(
            inline_high > 1.5 * inline_low,
            "inline p99 should degrade with density: {inline_high} vs {inline_low}"
        );
        assert!(offload_high < inline_high, "offload should beat inline at 10k");
    }

    #[test]
    fn reclaim_sweep_amortizes_at_10k() {
        let (sweep_small, batches_small) = sweep_point(100);
        let (sweep_big, batches_big) = sweep_point(10_000);
        // 10_000 pids + 500 fifos at a 256 batch: at least 41 bursts.
        assert!(batches_big >= 41, "expected an amortized sweep, got {batches_big} bursts");
        assert!(batches_big > batches_small);
        assert!(sweep_big > sweep_small);
        // Bounded: the sweep stays well under a second of virtual time even
        // at 10k resources.
        assert!(sweep_big < 1_000.0, "sweep took {sweep_big}ms");
    }
}
