//! Zero-copy descriptor hand-off racing UUID reclamation: DPU writers
//! stream large (descriptor-eligible) payloads at host FIFOs while reapers
//! reclaim the FIFOs' UUIDs mid-stream. Whatever the interleaving: no
//! descriptor may resolve after the close, no arena slot may leak, and
//! every payload that *is* delivered must be byte-identical to what the
//! writer sent.
//!
//! Three identical stream pipelines run side by side — same ops, same
//! charged costs — so they stay tied step for step, giving the explorer a
//! multi-way choice point at every instant.

use bytes::Bytes;
use hetsim::engine::Simulation;
use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_simcheck::explore::{explore, Check, ExploreOptions};
use molecule_simcheck::OracleConfig;
use xpu_shim::{Perm, ShimCluster, ShimConfig};

mod common;
use common::Watch;

/// Well past the zero-copy threshold (16 KiB), so every write places its
/// bytes in a shared-segment slot and ships a descriptor.
const PAYLOAD: usize = 64 * 1024;
const MESSAGES: u8 = 6;
const STREAMS: usize = 3;

fn big_payload(seq: u8) -> Bytes {
    Bytes::from(vec![seq; PAYLOAD])
}

fn descriptor_reclaim_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let machine = Machine::paper_cpu_dpu_server();
    let cluster = ShimCluster::deploy(machine, ShimConfig::default());
    let oracle = watch.cluster(sim, &cluster, OracleConfig::default());

    let mut readers = Vec::new();
    for stream in 0..STREAMS {
        let (uuid_tx, uuid_rx) = sim.channel();
        let cl = cluster.clone();
        readers.push(sim.spawn(&format!("reader-{stream}"), move |ctx| {
            let host_shim = cl.shim_on(PuId(0)).unwrap();
            let host = host_shim.attach_process();
            let fifo = host_shim.xfifo_init(ctx, host, format!("zero-copy-{stream}")).unwrap();
            let uuid = fifo.uuid().clone();
            let capv = [(fifo.obj(), Perm::WRITE)];
            let writer_cl = cl.clone();
            let writer_uuid = uuid.clone();
            host_shim
                .xspawn(ctx, host, PuId(1), "zc-writer", &capv, move |wctx, pid| {
                    let dpu = writer_cl.shim_on(PuId(1)).unwrap();
                    if let Ok(w) = dpu.xfifo_connect(wctx, pid, &writer_uuid) {
                        for seq in 0..MESSAGES {
                            // Reclamation can kill the FIFO mid-stream: a
                            // clean shim error is legal, corruption is not.
                            if w.write(wctx, big_payload(seq)).is_err() {
                                break;
                            }
                            wctx.sleep(SimDuration::from_micros(2));
                        }
                    }
                })
                .unwrap();
            uuid_tx.send(uuid).unwrap();

            let mut delivered = Vec::new();
            // A read error — timeout (stream dried up) or reclaim-induced
            // teardown — ends the stream cleanly.
            while let Ok(msg) = fifo.read_timeout(ctx, SimDuration::from_millis(2)) {
                // Byte-identical delivery: the whole payload is one
                // repeated stamp byte.
                let seq = msg[0];
                if msg.len() != PAYLOAD || msg.iter().any(|&b| b != seq) {
                    return Err(format!(
                        "corrupt delivery: seq {seq}, len {} (expected {PAYLOAD})",
                        msg.len()
                    ));
                }
                delivered.push(seq);
                if delivered.len() == MESSAGES as usize {
                    break;
                }
            }
            // Whatever made it through arrived in order, uncorrupted.
            if delivered.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("out-of-order delivery: {delivered:?}"));
            }
            Ok(())
        }));

        let cl = cluster.clone();
        sim.spawn(&format!("reaper-{stream}"), move |ctx| {
            let uuid = uuid_rx.recv(ctx).unwrap();
            // Land the reclaim mid-stream.
            ctx.sleep(SimDuration::from_micros(5));
            cl.reclaim_uuid(ctx, &uuid);
        });
    }

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for reader in readers {
            reader.take_result().expect("reader finished")?;
        }
        // Every placed segment slot must be resolved or reclaimed — a
        // parked slot after the FIFO is gone is a leak.
        oracle.verdict(true)
    })
}

#[test]
fn descriptor_handoff_vs_reclaim_leaks_nothing() {
    let opts = ExploreOptions { trials: 256, seed: 31, ..ExploreOptions::default() };
    let report = explore(&opts, |sim| descriptor_reclaim_scenario(sim, Watch::Gated));
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}

/// Epoch gating skips only steps that changed nothing the oracle reads,
/// and agrees with a full check on every verdict.
#[test]
fn epoch_gating_skips_only_unchanged_steps() {
    common::assert_gating_sound(descriptor_reclaim_scenario);
}
