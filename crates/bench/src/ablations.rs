//! Ablation studies over the design choices DESIGN.md calls out — beyond
//! the paper's figures, these quantify *why* each mechanism is built the
//! way it is.
//!
//! * **Startup paths** — cold baseline vs snapshot restore vs cfork
//!   (Fig. 15's design space, measured on this stack);
//! * **Keep-alive policies** — FPGA image-cache hit rates under LRU /
//!   Greedy-Dual / fixed-window on a skewed workload;
//! * **XPUcall transports** — gateway-visible request latency as the shim
//!   transport changes;
//! * **Lazy-sync batching** — synchronization messages as the batch size
//!   grows.

use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::fpga_cache::FpgaCacheManager;
use molecule_core::function::{ExecModel, FunctionDef};
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::{FixedWindow, GreedyDual, KeepAlivePolicy, Lru};
use molecule_core::runtime::{Molecule, MoleculeConfig, StartupKind};
use molecule_core::schedule::Scheduler;
use vsandbox::spec::{FuncId, LangRuntime};
use xpu_shim::cluster::{ShimCluster, ShimConfig};
use xpu_shim::xcall::XcallTransport;

use crate::run_sim;

/// One startup-path ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupAblationRow {
    /// Path label.
    pub path: &'static str,
    /// First-request latency through the gateway.
    pub first_request: SimDuration,
    /// Average per-instance PSS afterwards, MiB (memory price of the path).
    pub pss_mib: f64,
}

fn ablation_function() -> FunctionDef {
    FunctionDef::builder("abl", LangRuntime::Python)
        .profiles(&[PuKind::Cpu])
        .exec_ms(10.0)
        .init_ms(6.0)
        .cfork_first_run_ms(1.0)
        .build()
}

/// Startup-path ablation: ColdBaseline vs Snapshot vs CforkLocal, measuring
/// both latency and the memory footprint each path leaves behind.
pub fn startup_paths() -> Vec<StartupAblationRow> {
    [
        ("cold-baseline", StartupKind::ColdBaseline),
        ("snapshot-restore", StartupKind::Snapshot),
        ("cfork", StartupKind::CforkLocal),
    ]
    .into_iter()
    .map(|(label, how)| {
        run_sim("abl-startup", move |ctx| {
            let molecule =
                Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
            molecule.register_function(ablation_function());
            molecule.bootstrap(ctx).unwrap();
            molecule.prepare_template(ctx, PuId(0), LangRuntime::Python).unwrap();
            let gw = ApiGateway::new(
                molecule.clone(),
                Scheduler::default(),
                GatewayConfig { scale_up: how, ..GatewayConfig::default() },
                Box::new(Lru::new()),
            );
            let report = gw.handle_request(ctx, &"abl".into(), 1024).unwrap();

            // Memory price: boot 8 concurrent instances via the same path
            // and read their PSS from the page ledger.
            let runc = molecule.runc(PuId(0)).unwrap().clone();
            let mut instances = Vec::new();
            for _ in 0..8 {
                instances.push(
                    molecule
                        .start_instance(ctx, &FuncId::new("abl"), PuId(0), how)
                        .unwrap()
                        .instance,
                );
            }
            let mut pss = 0.0;
            for inst in &instances {
                let sandbox = molecule.instance_sandbox(*inst).unwrap();
                pss += runc.pss_bytes(&sandbox).unwrap_or(0.0);
            }
            StartupAblationRow {
                path: label,
                first_request: report.latency,
                pss_mib: pss / instances.len() as f64 / (1024.0 * 1024.0),
            }
        })
    })
    .collect()
}

/// One keep-alive policy ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: &'static str,
    /// Image-cache hit rate on the skewed workload.
    pub hit_rate: f64,
    /// Images flashed.
    pub flashes: u64,
}

/// The skewed request pattern: three hot kernels, five cold ones.
fn skewed_pattern() -> Vec<usize> {
    let mut p = Vec::new();
    for round in 0..12 {
        p.extend_from_slice(&[0, 1, 2]);
        if round % 3 == 2 {
            p.push(3 + (round / 3) % 5);
        }
    }
    p
}

/// A factory producing a fresh keep-alive policy per run.
type PolicyFactory = Box<dyn Fn() -> Box<dyn KeepAlivePolicy>>;

/// Keep-alive policy ablation on the FPGA image cache.
pub fn keepalive_policies() -> Vec<PolicyRow> {
    let policies: Vec<(&'static str, PolicyFactory)> = vec![
        ("lru", Box::new(|| Box::new(Lru::new()))),
        ("greedy-dual", Box::new(|| Box::new(GreedyDual::new()))),
        ("fixed-10min", Box::new(|| Box::new(FixedWindow::new(SimDuration::from_secs(600))))),
    ];
    policies
        .into_iter()
        .map(|(label, mk)| {
            let policy = mk();
            run_sim("abl-keepalive", move |ctx| {
                let machine = Machine::paper_f1_instance();
                let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
                let molecule = Molecule::launch(machine, MoleculeConfig::default());
                let mut funcs = Vec::new();
                for i in 0..8 {
                    let name = format!("kern{i}");
                    molecule.register_function(
                        FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                            .profiles(&[PuKind::Fpga])
                            .fpga(
                                hetsim::fpga::KernelSpec {
                                    name: name.clone(),
                                    resources: hetsim::fpga::FpgaResources {
                                        luts: 5_000,
                                        regs: 8_000,
                                        brams: 20,
                                        dsps: 36,
                                    },
                                },
                                ExecModel::Fixed(SimDuration::from_micros(100)),
                            )
                            .build(),
                    );
                    funcs.push(FuncId::new(name));
                }
                let mgr = FpgaCacheManager::new(molecule, fpga, 4, policy);
                for i in skewed_pattern() {
                    mgr.request_batch(ctx, &[(funcs[i].clone(), 1024)]).unwrap();
                }
                let stats = mgr.stats();
                PolicyRow {
                    policy: label,
                    hit_rate: stats.hits as f64 / (stats.hits + stats.misses) as f64,
                    flashes: stats.flashes,
                }
            })
        })
        .collect()
}

/// One transport ablation row: gateway-visible latency of a cross-PU
/// `xfifo_write` round under each XPUcall transport.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportRow {
    /// Transport label.
    pub transport: String,
    /// DPU→CPU write latency at 256 B.
    pub write_latency: SimDuration,
}

/// Transport ablation (the Fig. 7 ladder at the system level).
pub fn transports() -> Vec<TransportRow> {
    XcallTransport::ALL
        .iter()
        .map(|&t| {
            let series = crate::fig08::nipc_series(t);
            TransportRow {
                transport: t.to_string(),
                write_latency: series.latency[4], // 256 B
            }
        })
        .collect()
}

/// One lazy-sync batching row.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRow {
    /// Batch size.
    pub batch: usize,
    /// Synchronization messages sent for 32 FIFO create/close pairs.
    pub sync_messages: u64,
    /// Lazy flushes performed.
    pub flushes: u64,
}

/// Lazy-synchronization batching ablation (§5's third strategy).
pub fn sync_batching() -> Vec<SyncRow> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|batch| {
            run_sim("abl-sync", move |ctx| {
                let config = ShimConfig { lazy_batch: batch, ..ShimConfig::default() };
                let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), config);
                let shim = cluster.shim_on(PuId(0)).unwrap();
                let me = shim.attach_process();
                for i in 0..32 {
                    let fifo = shim.xfifo_init(ctx, me, format!("s{i}")).unwrap();
                    fifo.close(ctx).unwrap();
                }
                let stats = cluster.stats();
                SyncRow { batch, sync_messages: stats.sync_messages, flushes: stats.lazy_flushes }
            })
        })
        .collect()
}

/// Prints every ablation.
pub fn print() {
    let rows: Vec<Vec<String>> = startup_paths()
        .iter()
        .map(|r| {
            vec![
                r.path.to_owned(),
                format!("{:.2}ms", r.first_request.as_millis_f64()),
                format!("{:.1} MiB", r.pss_mib),
            ]
        })
        .collect();
    crate::export_table(
        "ablation_startup",
        "Ablation: startup paths (first request through the gateway)",
        &["path", "first request", "per-instance PSS"],
        &rows,
    );

    let rows: Vec<Vec<String>> = keepalive_policies()
        .iter()
        .map(|r| {
            vec![r.policy.to_owned(), format!("{:.0}%", r.hit_rate * 100.0), r.flashes.to_string()]
        })
        .collect();
    crate::export_table(
        "ablation_keepalive",
        "Ablation: FPGA image-cache keep-alive policy (skewed workload)",
        &["policy", "hit rate", "flashes"],
        &rows,
    );

    let rows: Vec<Vec<String>> = transports()
        .iter()
        .map(|r| vec![r.transport.clone(), format!("{:.1}us", r.write_latency.as_micros_f64())])
        .collect();
    crate::export_table(
        "ablation_transport",
        "Ablation: XPUcall transport (DPU→CPU xfifo_write, 256B)",
        &["transport", "latency"],
        &rows,
    );

    let rows: Vec<Vec<String>> = sync_batching()
        .iter()
        .map(|r| vec![r.batch.to_string(), r.sync_messages.to_string(), r.flushes.to_string()])
        .collect();
    crate::export_table(
        "ablation_lazy_sync",
        "Ablation: lazy-sync batching (32 FIFO create/close pairs)",
        &["batch size", "sync messages", "flushes"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_ablation_orders_cold_snapshot_cfork() {
        let rows = startup_paths();
        let by = |p: &str| rows.iter().find(|r| r.path == p).unwrap().first_request;
        assert!(by("cold-baseline") > by("snapshot-restore"));
        assert!(by("snapshot-restore") > by("cfork"));
        // cfork is the only path that shares template pages.
        let pss = |p: &str| rows.iter().find(|r| r.path == p).unwrap().pss_mib;
        assert!(pss("cfork") < pss("snapshot-restore"));
    }

    #[test]
    fn keepalive_policies_all_keep_the_hot_set() {
        for row in keepalive_policies() {
            assert!(row.hit_rate >= 0.5, "{}: hit rate {}", row.policy, row.hit_rate);
            assert!(row.flashes >= 1);
        }
    }

    #[test]
    fn transport_ladder_is_monotone() {
        let rows = transports();
        assert!(rows[0].write_latency > rows[1].write_latency);
        assert!(rows[1].write_latency > rows[2].write_latency);
    }

    #[test]
    fn bigger_batches_mean_fewer_sync_messages() {
        let rows = sync_batching();
        for pair in rows.windows(2) {
            assert!(
                pair[1].sync_messages <= pair[0].sync_messages,
                "batch {} sent more messages than batch {}",
                pair[1].batch,
                pair[0].batch
            );
            assert!(pair[1].flushes <= pair[0].flushes);
        }
        // Batching actually batches: 16x fewer flushes from batch 1 to 16.
        assert_eq!(rows[0].flushes, 32);
        assert_eq!(rows.last().unwrap().flushes, 2);
    }
}
