//! Rack-scale benchmark (beyond the paper's figures): throughput scaling
//! of the sharded control plane across 1–16 nodes, plus the zero-copy
//! descriptor path on cross-node DAG edges.
//!
//! Part A sweeps node count under open-loop Poisson load offered *per
//! node*: the rack front consistent-hashes a 64-function population over
//! the nodes, forwards remote-owned requests over a real fabric probe, and
//! each node's gateway serves its own shard. The invariant is conservation
//! — zero lost requests at every point — and the headline is near-linear
//! scaling of the highest *sustained* total load (everything completes
//! with p99 under the SLO): 16 nodes must sustain at least 10x what one
//! node does.
//!
//! Part B measures one cross-node DAG edge at increasing payloads: below
//! the 16 KiB segment threshold the payload is staged over the fabric;
//! at and above it, the edge ships a descriptor and the payload bytes are
//! elided from the fabric hand-off (placed once in the writer node's
//! arena, resolved once by the reader).

use hetsim::engine::Simulation;
use hetsim::pu::{NodeId, PuId, PuKind};
use hetsim::time::{SimDuration, SimTime};
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_core::dag::{run_chain, ChainSpec, ChainStage, CommMethod};
use molecule_core::function::FunctionDef;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_rack::{RackConfig, RackFront};
use molecule_sched::{JobOutcome, SubmitOpts};
use vsandbox::spec::{FuncId, LangRuntime};
use workloads::generator::{drive_open_loop, open_loop_arrivals};

/// Node counts of the Part A sweep.
pub const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Offered load per node, in requests per second: the total offered load
/// at a point is `rate * nodes`, so a rack that scales linearly sustains
/// every point regardless of node count.
pub const PER_NODE_RATES: [f64; 2] = [60.0, 120.0];

/// Open-loop duration per load point, in simulated seconds.
pub const SWEEP_SECONDS: f64 = 3.0;

/// Arrival seed: the same seed per load point keeps the sweep paired.
pub const SEED: u64 = 7;

/// p99 service-level objective for calling a load point "sustained" —
/// generous enough to absorb per-function cold starts.
pub const SLO: SimDuration = SimDuration::from_millis(300);

/// Functions hashed over the ring: enough keys that every node owns a
/// share and the per-node load stays near fair.
pub const FUNCS: usize = 64;

/// One (node count, offered load) measurement of the Part A sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Rack size in nodes.
    pub nodes: usize,
    /// Total offered load in requests per second (per-node rate x nodes).
    pub rate: f64,
    /// Requests offered to `submit`.
    pub issued: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by deadline-aware dropping while queued.
    pub shed: u64,
    /// Requests refused at admission (backpressure).
    pub rejected: u64,
    /// Requests the runtime failed.
    pub failed: u64,
    /// Requests unaccounted for — must be zero, always.
    pub lost: u64,
    /// Requests forwarded across the fabric to a remote owner node.
    pub forwarded: u64,
    /// Median submit-to-completion latency.
    pub p50: SimDuration,
    /// 99th-percentile submit-to-completion latency.
    pub p99: SimDuration,
}

impl ScaleRow {
    /// A point is sustained when everything offered completed within SLO.
    pub fn sustained(&self) -> bool {
        self.completed == self.issued && self.p99 <= SLO
    }
}

fn spin_fn(name: &str) -> FunctionDef {
    FunctionDef::builder(name, LangRuntime::Python)
        .profiles(&[PuKind::Cpu, PuKind::Dpu])
        .exec_ms(1.0)
        .build()
}

/// Runs one open-loop load point against an `nodes`-node rack front and
/// returns its accounting.
pub fn run_scale_point(nodes: usize, per_node_rate: f64) -> ScaleRow {
    let rate = per_node_rate * nodes as f64;
    let n = (rate * SWEEP_SECONDS).round() as usize;
    let (outcomes, sched, rack) = crate::run_sim("fig-rack-scale", move |ctx| {
        let molecule = Molecule::launch(Machine::rack(nodes, 1), MoleculeConfig::default());
        let funcs: Vec<FuncId> = (0..FUNCS).map(|i| FuncId::from(format!("rack-fn-{i}"))).collect();
        for f in &funcs {
            molecule.register_function(spin_fn(f.as_str()));
        }
        let front = RackFront::deploy(molecule, RackConfig::default());
        front.bootstrap(ctx).unwrap();
        front.start(ctx);
        let arrivals = open_loop_arrivals(rate, n, SEED);
        let mut rxs = Vec::new();
        drive_open_loop(ctx, &arrivals, |ctx, i| {
            rxs.push(front.submit(ctx, &funcs[i % FUNCS], 1024, SubmitOpts::default()));
        });
        let outcomes: Vec<JobOutcome> =
            rxs.into_iter().filter_map(Result::ok).map(|rx| rx.recv(ctx).unwrap()).collect();
        let mut sched = molecule_sched::SchedStats::default();
        for gw in front.gateways() {
            let s = gw.stats();
            sched.submitted += s.submitted;
            sched.completed += s.completed;
            sched.shed += s.shed;
            sched.rejected += s.rejected;
            sched.failed += s.failed;
        }
        let rack = front.stats();
        front.shutdown();
        (outcomes, sched, rack)
    });
    let mut latencies: Vec<SimDuration> = outcomes
        .iter()
        .filter_map(|o| match o {
            JobOutcome::Completed { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    latencies.sort();
    let accounted = sched.completed + sched.shed + sched.rejected + sched.failed;
    ScaleRow {
        nodes,
        rate,
        issued: sched.submitted,
        completed: sched.completed,
        shed: sched.shed,
        rejected: sched.rejected,
        failed: sched.failed,
        lost: sched.submitted - accounted.min(sched.submitted),
        forwarded: rack.forwarded,
        p50: crate::percentile(&latencies, 0.50),
        p99: crate::percentile(&latencies, 0.99),
    }
}

/// The full Part A sweep: every node count at every per-node rate.
pub fn scale_rows() -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for &nodes in &NODE_COUNTS {
        for &rate in &PER_NODE_RATES {
            rows.push(run_scale_point(nodes, rate));
        }
    }
    rows
}

/// Highest total load an `nodes`-node rack sustained, if any.
pub fn max_sustained(rows: &[ScaleRow], nodes: usize) -> Option<f64> {
    rows.iter()
        .filter(|r| r.nodes == nodes && r.sustained())
        .map(|r| r.rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// One cross-node DAG-edge measurement of the Part B table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRow {
    /// Edge payload in bytes.
    pub payload: u64,
    /// Descriptor hand-offs the chain cost.
    pub handoffs: u64,
    /// Payload bytes elided from the hand-off by the descriptor path.
    pub elided: u64,
    /// Transfers that crossed the rack fabric (staged or descriptor).
    pub fabric: u64,
}

/// Edge payloads of the Part B table: below, at and above the 16 KiB
/// segment threshold.
pub const EDGE_PAYLOADS: [u64; 3] = [4 * 1024, 16 * 1024, 64 * 1024];

/// Runs a two-stage chain whose edge crosses the rack fabric and returns
/// the shim accounting deltas for one payload size.
pub fn run_edge_point(payload: u64) -> EdgeRow {
    crate::run_sim("fig-rack-edge", move |ctx| {
        let molecule = Molecule::launch(Machine::rack(2, 1), MoleculeConfig::default());
        let big = FunctionDef::builder("rack-edge-src", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(1.0)
            .output_bytes(payload)
            .build();
        let sink = FunctionDef::builder("rack-edge-sink", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(1.0)
            .output_bytes(64)
            .build();
        molecule.register_function(big.clone());
        molecule.register_function(sink.clone());
        // Stage 0 on node 0's DPU, stage 1 on node 1's DPU: every edge
        // round crosses the fabric.
        let spec = ChainSpec::new(
            "rack-edge",
            vec![
                ChainStage::new(big.id.clone(), PuId(1)),
                ChainStage::new(sink.id.clone(), PuId(3)),
            ],
            CommMethod::DirectIpc,
        )
        .input_bytes(payload)
        .rounds(2);
        molecule.bootstrap(ctx).unwrap();
        let before = molecule.cluster().stats();
        run_chain(&molecule, ctx, &spec).unwrap();
        let after = molecule.cluster().stats();
        EdgeRow {
            payload,
            handoffs: after.descriptor_handoffs - before.descriptor_handoffs,
            elided: after.bytes_elided - before.bytes_elided,
            fabric: after.fabric_transfers - before.fabric_transfers,
        }
    })
}

/// The full Part B table.
pub fn edge_rows() -> Vec<EdgeRow> {
    EDGE_PAYLOADS.iter().map(|&p| run_edge_point(p)).collect()
}

/// Seeded rack chaos probe for the cross-process determinism gate: a
/// node-kill fault plan against a 2-node rack front while a closed-loop
/// driver keeps invoking ring-hashed functions across the kill. Returns
/// the fault plane's ordered event log plus the front's final accounting
/// as strings — both must be byte-identical across re-executions.
pub fn node_kill_probe(seed: u64) -> (Vec<String>, Vec<String>) {
    let machine = Machine::rack(2, 1);
    let plan = FaultPlan::new(seed)
        .with(SimTime::ZERO + SimDuration::from_millis(40), FaultAction::KillNode(NodeId(1)));
    let mut sim = Simulation::new();
    molecule_chaos::spawn_injector(&mut sim, &machine, &plan);
    let m = machine.clone();
    let handle = sim.spawn("rack-probe", move |ctx| {
        let molecule = Molecule::launch(m, MoleculeConfig::default());
        let funcs: Vec<FuncId> = (0..8).map(|i| FuncId::from(format!("probe-fn-{i}"))).collect();
        for f in &funcs {
            molecule.register_function(spin_fn(f.as_str()));
        }
        let front = RackFront::deploy(molecule, RackConfig::default());
        front.bootstrap(ctx).unwrap();
        front.start(ctx);
        let (mut completed, mut other) = (0u64, 0u64);
        for _ in 0..20 {
            for f in &funcs {
                match front.invoke(ctx, f, 512, SubmitOpts::default()) {
                    Ok(JobOutcome::Completed { .. }) => completed += 1,
                    _ => other += 1,
                }
            }
            ctx.sleep(SimDuration::from_millis(5));
        }
        let stats = front.stats();
        front.shutdown();
        vec![
            format!("completed={completed}"),
            format!("other={other}"),
            format!("routed={}", stats.routed),
            format!("forwarded={}", stats.forwarded),
            format!("rerouted={}", stats.rerouted),
            format!("node_deaths={}", stats.node_deaths),
        ]
    });
    sim.run().unwrap_or_else(|e| panic!("rack probe failed: {e}"));
    let summary = handle.take_result().expect("probe returned no result");
    (machine.fault_plane().event_log(), summary)
}

fn fmt_ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Renders Part A rows the way `BENCH_rack.json` stores them.
pub fn scale_table(rows: &[ScaleRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.0}", r.rate),
                r.issued.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                r.rejected.to_string(),
                r.failed.to_string(),
                r.lost.to_string(),
                r.forwarded.to_string(),
                fmt_ms(r.p50),
                fmt_ms(r.p99),
                if r.sustained() { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect()
}

/// Column headers of `BENCH_rack.json`.
pub const SCALE_HEADER: [&str; 12] = [
    "nodes",
    "load (rps)",
    "issued",
    "completed",
    "shed",
    "rejected",
    "failed",
    "lost",
    "forwarded",
    "p50 (ms)",
    "p99 (ms)",
    "sustained",
];

/// Prints both tables and exports `BENCH_rack.json` +
/// `BENCH_rack_edges.json`.
pub fn print() {
    let rows = scale_rows();
    crate::export_table(
        "rack",
        "Open-loop rack scaling: sharded control plane, 1-16 nodes (p99 SLO 300ms)",
        &SCALE_HEADER,
        &scale_table(&rows),
    );
    for &nodes in &NODE_COUNTS {
        let best = max_sustained(&rows, nodes).unwrap_or(0.0);
        println!("[fig_rack] {nodes} node(s): max sustained {best:.0} rps");
    }

    let edges = edge_rows();
    let table: Vec<Vec<String>> = edges
        .iter()
        .map(|r| {
            vec![
                r.payload.to_string(),
                r.handoffs.to_string(),
                r.elided.to_string(),
                r.fabric.to_string(),
            ]
        })
        .collect();
    crate::export_table(
        "rack_edges",
        "Cross-node DAG edge: staged vs descriptor hand-off over the rack fabric",
        &["payload (B)", "descriptor hand-offs", "bytes elided", "fabric transfers"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_nodes_sustain_ten_times_one_node() {
        let rows = scale_rows();
        for r in &rows {
            assert_eq!(r.lost, 0, "requests lost at {} rps on {} nodes: {r:?}", r.rate, r.nodes);
        }
        let one = max_sustained(&rows, 1).expect("one node sustains the low point");
        let sixteen = max_sustained(&rows, 16).expect("16 nodes sustain the low point");
        assert!(
            sixteen >= 10.0 * one,
            "rack must scale near-linearly: 16 nodes sustain {sixteen} vs {one} on one"
        );
        let wide = rows.iter().find(|r| r.nodes == 16).unwrap();
        assert!(wide.forwarded > 0, "a 16-node sweep must forward across the fabric");
    }

    #[test]
    fn edge_descriptor_path_cuts_in_at_the_segment_threshold() {
        let below = run_edge_point(4 * 1024);
        assert_eq!(below.elided, 0, "sub-threshold edges stage their bytes: {below:?}");
        assert!(below.fabric > 0, "the edge must cross the fabric: {below:?}");
        let above = run_edge_point(64 * 1024);
        assert!(above.handoffs > 0, "large edges must hand off descriptors: {above:?}");
        assert!(above.elided > 0, "descriptors must elide payload bytes: {above:?}");
        assert!(above.fabric > 0, "the edge must cross the fabric: {above:?}");
    }

    #[test]
    fn node_kill_probe_is_deterministic_in_process() {
        assert_eq!(node_kill_probe(42), node_kill_probe(42));
    }
}
