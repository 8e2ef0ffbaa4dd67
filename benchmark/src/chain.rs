//! `chain`: the nIPC data plane under closed-loop DAG clients.
//!
//! Eight clients on the paper's CPU+DPU server each drive one direct-IPC
//! chain ([`run_chain`] with [`CommMethod::DirectIpc`]) round after round,
//! each round starting when the previous one returns. Four run the Alexa
//! skill with stages on PUs 0, 1, 0, 2, 0, so every stage-to-stage edge
//! crosses PCIe. Four run MapReduce variants whose stages emit 4, 16, 64
//! and 256 KiB, on PUs 1, 0, 2: edges below 16 KiB travel inline in the
//! xcall, larger ones as shared-segment descriptors. No scheduler and no
//! sandbox start sit on this path; the seed picks each client's request
//! size and start offset.

use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::dag::{run_chain, ChainOutcome, ChainSpec, ChainStage, CommMethod};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::FunctionDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsandbox::spec::FuncId;
use workloads::serverlessbench::{alexa_chain, mapreduce_chain};

use crate::{frac, ms, percentile, us, Outcome, Params, Probe, Row};

const ALEXA_PUS: [u16; 5] = [0, 1, 0, 2, 0];
const ALEXA_CLIENTS: usize = 4;
const MAPREDUCE_PUS: [u16; 3] = [1, 0, 2];
/// Stage output of each MapReduce client, in KiB.
const MAPREDUCE_OUTPUT_KIB: [u64; 4] = [4, 16, 64, 256];
/// Payloads at or above this travel as descriptors rather than inline.
const DESCRIPTOR_MIN_BYTES: u64 = 16 * 1024;

/// The MapReduce stages re-emitting `kib` KiB each, under their own ids.
fn mapreduce_variant(kib: u64) -> Vec<FunctionDef> {
    mapreduce_chain()
        .into_iter()
        .map(|mut def| {
            def.id = FuncId::from(format!("{}-{kib}k", def.id));
            def.output_bytes = kib * 1024;
            def
        })
        .collect()
}

fn spec(name: String, defs: &[FunctionDef], pus: &[u16], input: u64, rounds: usize) -> ChainSpec {
    let stages = defs.iter().zip(pus).map(|(d, &pu)| ChainStage::new(d.id.clone(), PuId(pu)));
    ChainSpec::new(name, stages.collect(), CommMethod::DirectIpc).input_bytes(input).rounds(rounds)
}

/// Per hop `i` of `spec`: the payload carried into stage `i` and whether
/// the hop crosses PUs (the driver sits on the host CPU).
fn hop_shapes(spec: &ChainSpec, defs: &[FunctionDef]) -> Vec<(u64, bool)> {
    let mut from = PuId::HOST_CPU;
    let mut payload = spec.input_bytes;
    spec.stages
        .iter()
        .zip(defs)
        .map(|(stage, def)| {
            let hop = (payload, stage.pu != from);
            from = stage.pu;
            payload = def.output_bytes;
            hop
        })
        .collect()
}

/// Runs every client once.
pub fn run(seed: u64, params: &Params, probe: &Probe) -> Outcome {
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0));
    let rounds = params.chain_rounds;
    let mut clients: Vec<(ChainSpec, Vec<FunctionDef>, SimDuration)> = Vec::new();
    let alexa = alexa_chain();
    for c in 0..ALEXA_CLIENTS {
        let input = rng.gen_range(512..=2048u64);
        let spec = spec(format!("alexa-c{c}"), &alexa, &ALEXA_PUS, input, rounds);
        clients.push((spec, alexa.clone(), SimDuration::from_micros(rng.gen_range(0..500u64))));
    }
    for kib in MAPREDUCE_OUTPUT_KIB {
        let defs = mapreduce_variant(kib);
        let input = rng.gen_range(512..=2048u64);
        let spec = spec(format!("mapreduce-{kib}k"), &defs, &MAPREDUCE_PUS, input, rounds);
        clients.push((spec, defs, SimDuration::from_micros(rng.gen_range(0..500u64))));
    }

    let to_run: Vec<(ChainSpec, SimDuration)> =
        clients.iter().map(|(s, _, stagger)| (s.clone(), *stagger)).collect();
    let mut defs: Vec<FunctionDef> = alexa.clone();
    defs.extend(MAPREDUCE_OUTPUT_KIB.into_iter().flat_map(mapreduce_variant));
    let driver_probe = probe.clone();
    let ((results, before, after), report) = crate::run_sim("chain-driver", move |ctx| {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        for def in defs {
            molecule.register_function(def);
        }
        let before = molecule.cluster().stats();
        driver_probe.arrived();
        let handles: Vec<_> = to_run
            .into_iter()
            .map(|(spec, stagger)| {
                let m = molecule.clone();
                ctx.spawn(&format!("client-{}", spec.name), move |cctx| {
                    cctx.sleep(stagger);
                    run_chain(&m, cctx, &spec).map_err(|e| e.to_string())
                })
            })
            .collect();
        let results: Vec<Result<ChainOutcome, String>> = handles
            .iter()
            .map(|h| {
                h.join(ctx);
                h.take_result().unwrap_or_else(|| Err("client vanished".into()))
            })
            .collect();
        (results, before, molecule.cluster().stats())
    });

    let mut out = Outcome { events: report.events_fired, ..Outcome::default() };
    let (mut alexa_latency, mut inline, mut descriptor) = (Vec::new(), Vec::new(), Vec::new());
    let mut completed = 0;
    for ((spec, defs, _), result) in clients.iter().zip(results) {
        let n = spec.stages.len();
        let mut row = Row {
            name: spec.name.clone(),
            issued: rounds as u64,
            completed: 0,
            shed: 0,
            rejected: 0,
            failed: 0,
            lost: 0,
        };
        match result {
            Ok(o) => {
                row.completed = o.end_to_end.len() as u64;
                row.lost = row.issued - row.completed.min(row.issued);
                if o.hops.len() != n || o.hops.iter().any(|h| h.len() != rounds) {
                    out.errors.push(format!(
                        "{}: expected {n} hops of {rounds} samples, got {:?}",
                        spec.name,
                        o.hops.iter().map(Vec::len).collect::<Vec<_>>()
                    ));
                }
                for ((payload, crosses), hop) in hop_shapes(spec, defs).into_iter().zip(&o.hops) {
                    if crosses {
                        let bucket = if payload >= DESCRIPTOR_MIN_BYTES {
                            &mut descriptor
                        } else {
                            &mut inline
                        };
                        bucket.extend_from_slice(hop);
                    }
                }
                completed += row.completed;
                if spec.name.starts_with("alexa") {
                    alexa_latency.extend(o.end_to_end);
                }
            }
            Err(e) => {
                row.failed = row.issued;
                out.errors.push(format!("{}: {e}", spec.name));
            }
        }
        out.rows.push(row);
    }
    alexa_latency.sort();
    inline.sort();
    descriptor.sort();
    let issued: u64 = out.rows.iter().map(|r| r.issued).sum();
    out.set("lat_p50_ms", ms(percentile(&alexa_latency, 0.50)));
    out.set("lat_p99_ms", ms(percentile(&alexa_latency, 0.99)));
    out.set("ok_frac", frac(completed, issued));
    out.set("nipc.hop_inline_us_p50", us(percentile(&inline, 0.50)));
    out.set("nipc.hop_descriptor_us_p50", us(percentile(&descriptor, 0.50)));
    crate::set_shim(&mut out, |f| f(&after) - f(&before));
    out
}
