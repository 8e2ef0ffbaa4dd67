//! Function-chain (serverless DAG) communication (paper §4.3).
//!
//! Most serverless applications are chains of functions, so inter-function
//! latency matters. This module implements the communication designs the
//! paper compares:
//!
//! * [`CommMethod::HttpGateway`] — the baseline: Node.js Express / Python
//!   Flask HTTP hops, as Molecule-homo and OpenWhisk do;
//! * [`CommMethod::DirectIpc`] — Molecule's direct-connect design: every
//!   function owns a `self_fifo` (an XPU-FIFO named by its UUID), Molecule
//!   injects peer UUIDs, and callers write the callee's FIFO directly —
//!   local IPC on the same PU, **nIPC** across PUs;
//! * [`CommMethod::FpgaCopy`] / [`CommMethod::FpgaShm`] — FPGA chains that
//!   copy through host DRAM versus the zero-copy DRAM-retention hand-off
//!   (Fig. 13).
//!
//! Chains are run as real simulated processes wired by FIFOs; every message
//! carries its send timestamp, so per-hop latencies (Fig. 12) fall out of
//! the virtual clock.

use bytes::Bytes;
use hetsim::engine::ProcCtx;
use hetsim::interconnect::Link;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::{SimDuration, SimTime};
use vsandbox::oci::OciRuntime;
use vsandbox::spec::{FuncId, SandboxId};
use xpu_shim::cap::Perm;

use crate::error::MoleculeError;
use crate::runtime::Molecule;

/// How the stages of a chain talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMethod {
    /// Framework HTTP hops through the gateway path (the baseline).
    HttpGateway,
    /// Molecule's direct-connect FIFOs: local IPC on one PU, nIPC across
    /// PUs. Cross-PU hops inherit the shim's adaptive data plane — large
    /// payloads ride shared-segment descriptors instead of being staged
    /// through the XPUcall transport (see `xpu_shim::segment`).
    DirectIpc,
    /// FPGA chain copying through host DRAM (caller copies out, callee
    /// copies back in).
    FpgaCopy,
    /// FPGA chain over retained device DRAM (zero-copy, §4.3).
    FpgaShm,
}

/// One stage of a chain: a function pinned to a PU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStage {
    /// The function to run.
    pub func: FuncId,
    /// The PU its instance runs on.
    pub pu: PuId,
}

impl ChainStage {
    /// Creates a stage.
    pub fn new(func: impl Into<FuncId>, pu: PuId) -> ChainStage {
        ChainStage { func: func.into(), pu }
    }
}

/// A chain specification.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Diagnostic name (e.g. `"alexa"`).
    pub name: String,
    /// The stages, in invocation order.
    pub stages: Vec<ChainStage>,
    /// The communication method.
    pub comm: CommMethod,
    /// Bytes of the request payload entering stage 0.
    pub input_bytes: u64,
    /// Number of requests to drive through the chain.
    pub rounds: usize,
}

impl ChainSpec {
    /// Creates a single-round chain spec.
    pub fn new(name: impl Into<String>, stages: Vec<ChainStage>, comm: CommMethod) -> ChainSpec {
        ChainSpec { name: name.into(), stages, comm, input_bytes: 1024, rounds: 1 }
    }

    /// Sets the request payload size.
    pub fn input_bytes(mut self, bytes: u64) -> ChainSpec {
        self.input_bytes = bytes;
        self
    }

    /// Sets the number of requests.
    pub fn rounds(mut self, rounds: usize) -> ChainSpec {
        self.rounds = rounds;
        self
    }
}

/// Measured results of a chain run.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// End-to-end latency of each round.
    pub end_to_end: Vec<SimDuration>,
    /// Per-hop communication latencies: `hops[i]` holds every measured
    /// latency of the hop *into* stage `i` (hop 0 is gateway → stage 0).
    pub hops: Vec<Vec<SimDuration>>,
}

impl ChainOutcome {
    /// Mean end-to-end latency.
    pub fn mean_end_to_end(&self) -> SimDuration {
        let total: SimDuration = self.end_to_end.iter().copied().sum();
        total / self.end_to_end.len().max(1) as u64
    }

    /// Mean latency of the hop into stage `i`.
    pub fn mean_hop(&self, i: usize) -> SimDuration {
        let hop = &self.hops[i];
        let total: SimDuration = hop.iter().copied().sum();
        total / hop.len().max(1) as u64
    }
}

const HEADER_BYTES: usize = 16;

/// Encodes a chain message — a 16-byte header (send time, hop) and a body
/// of `body_bytes` bytes of `0xA5` — into `buf`'s allocation when `buf` is
/// its only owner, or into a fresh buffer otherwise (`Bytes::new()` asks
/// for one). Only growth is filled, so `buf` must be empty or a chain
/// message: then the result equals a fresh encode byte for byte. Chains
/// re-encode each reply into the message it answers, so one buffer per
/// chain circulates instead of being allocated and freed every hop.
fn encode_msg(buf: Bytes, sent_at: SimTime, hop: u64, body_bytes: u64) -> Bytes {
    let mut buf = buf.try_into_mut().unwrap_or_default();
    buf.resize(HEADER_BYTES + body_bytes as usize, 0xA5);
    buf[0..8].copy_from_slice(&sent_at.as_nanos().to_le_bytes());
    buf[8..16].copy_from_slice(&hop.to_le_bytes());
    buf.freeze()
}

fn decode_msg(msg: &Bytes) -> (SimTime, u64) {
    let sent = u64::from_le_bytes(msg[0..8].try_into().expect("header"));
    let hop = u64::from_le_bytes(msg[8..16].try_into().expect("header"));
    (SimTime::from_nanos(sent), hop)
}

/// Runs a chain to completion from inside a simulated process (the API
/// gateway / request driver).
///
/// Instances are expected to be deployable: for [`CommMethod::DirectIpc`]
/// and [`CommMethod::HttpGateway`], templates must already exist on every
/// involved general-purpose PU (stages are pre-booted before timing begins,
/// matching the paper's §6.6 methodology); FPGA methods cache all stage
/// kernels in one vectorized image first.
///
/// # Errors
///
/// Unknown functions, missing templates, or shim/device failures.
pub fn run_chain(
    molecule: &Molecule,
    ctx: &mut ProcCtx,
    spec: &ChainSpec,
) -> Result<ChainOutcome, MoleculeError> {
    let t0 = ctx.now();
    let out = match spec.comm {
        CommMethod::DirectIpc => run_ipc_chain(molecule, ctx, spec),
        CommMethod::HttpGateway => run_http_chain(molecule, ctx, spec),
        CommMethod::FpgaCopy | CommMethod::FpgaShm => run_fpga_chain(molecule, ctx, spec),
    };
    telemetry::with(|r| {
        r.complete_span(
            ctx.lane(),
            t0.as_nanos(),
            ctx.now().as_nanos(),
            &format!("chain:{} ({:?})", spec.name, spec.comm),
            ctx.trace_ctx(),
        );
    });
    out
}

fn stage_exec(
    molecule: &Molecule,
    stage: &ChainStage,
    input_bytes: u64,
) -> Result<SimDuration, MoleculeError> {
    let def = molecule
        .registry()
        .get(&stage.func)
        .ok_or_else(|| MoleculeError::UnknownFunction(stage.func.clone()))?;
    let spec = molecule
        .machine()
        .pu(stage.pu)
        .ok_or_else(|| MoleculeError::Internal(format!("no such pu {}", stage.pu)))?;
    Ok(match spec.kind {
        PuKind::Fpga => def
            .fpga
            .as_ref()
            .ok_or(MoleculeError::UnsupportedPu { func: def.id.clone(), pu: stage.pu })?
            .exec
            .host_time(input_bytes),
        PuKind::Gpu => def
            .gpu
            .ok_or(MoleculeError::UnsupportedPu { func: def.id.clone(), pu: stage.pu })?
            .host_time(input_bytes),
        _ => def.exec.time_on(spec, input_bytes),
    })
}

/// Language-runtime cost of emitting one IPC message from a PU (§4.3: the
/// FIFO write still goes through the Node.js/Python runtime).
fn ipc_runtime_overhead(molecule: &Molecule, pu: PuId) -> SimDuration {
    let calib = molecule.machine().calibration();
    match molecule.machine().pu(pu).map(|p| p.kind) {
        Some(PuKind::Dpu) | Some(PuKind::SmartNic) => calib.http_dag.ipc_runtime_overhead_dpu,
        _ => calib.http_dag.ipc_runtime_overhead,
    }
}

fn output_bytes(molecule: &Molecule, func: &FuncId) -> Result<u64, MoleculeError> {
    molecule
        .registry()
        .get(func)
        .map(|d| d.output_bytes)
        .ok_or_else(|| MoleculeError::UnknownFunction(func.clone()))
}

/// Molecule's direct-connect chain: one simulated process per stage, wired
/// by XPU-FIFOs with capabilities granted hop by hop.
fn run_ipc_chain(
    molecule: &Molecule,
    ctx: &mut ProcCtx,
    spec: &ChainSpec,
) -> Result<ChainOutcome, MoleculeError> {
    let cluster = molecule.cluster().clone();
    let n = spec.stages.len();
    assert!(n > 0, "empty chain");
    let host = molecule.machine().host_cpu();
    let driver_shim = cluster.shim_on(host)?;
    let driver_pid = driver_shim.attach_process();

    // Every function creates a self_fifo named by its (globally unique)
    // UUID; Molecule injects the caller/callee UUIDs (§4.3).
    let mut pids = Vec::with_capacity(n);
    let mut shims = Vec::with_capacity(n);
    for stage in &spec.stages {
        let shim = cluster.shim_on(stage.pu)?;
        pids.push(shim.attach_process());
        shims.push(shim);
    }
    let mut readers = Vec::with_capacity(n);
    for (i, stage) in spec.stages.iter().enumerate() {
        let uuid = format!("{}-self-{}-{}", spec.name, i, stage.func);
        let fifo = shims[i].xfifo_init(ctx, pids[i], uuid)?;
        // Grant the upstream writer access to this stage's self_fifo.
        let writer = if i == 0 { driver_pid } else { pids[i - 1] };
        shims[i].grant_cap(ctx, pids[i], writer, fifo.obj(), Perm::WRITE)?;
        readers.push(fifo);
    }
    // The response FIFO back to the driver.
    let result_fifo = driver_shim.xfifo_init(ctx, driver_pid, format!("{}-result", spec.name))?;
    driver_shim.grant_cap(ctx, driver_pid, pids[n - 1], result_fifo.obj(), Perm::WRITE)?;

    // Connect writers: stage i writes stage i+1's FIFO (or the result FIFO).
    let entry_writer = driver_shim.xfifo_connect(ctx, driver_pid, &readers[0].uuid().clone())?;
    let mut next_writers = Vec::with_capacity(n);
    for i in 0..n {
        let w = if i + 1 < n {
            shims[i].xfifo_connect(ctx, pids[i], &readers[i + 1].uuid().clone())?
        } else {
            shims[i].xfifo_connect(ctx, pids[i], &result_fifo.uuid().clone())?
        };
        next_writers.push(w);
    }

    // Metrics: stages report (hop, latency) pairs.
    let (metrics_tx, metrics_rx) = ctx.channel::<(usize, SimDuration)>();

    // Spawn the pre-booted stage instances.
    let mut body_in = spec.input_bytes;
    for (i, stage) in spec.stages.iter().enumerate() {
        let exec = stage_exec(molecule, stage, body_in)?;
        let out_bytes = output_bytes(molecule, &stage.func)?;
        let serialize = ipc_runtime_overhead(molecule, stage.pu);
        let reader = readers.remove(0);
        let writer = next_writers[i].clone();
        let tx = metrics_tx.clone();
        let rounds = spec.rounds;
        let name = format!("{}-stage{}-{}", spec.name, i, stage.func);
        let pu = stage.pu;
        let sname = name.clone();
        ctx.spawn(&name, move |sctx| {
            // Stage processes execute on their placed PU: spans they emit
            // land on that PU's trace lane.
            sctx.set_lane(pu.0);
            for _ in 0..rounds {
                let Ok(msg) = reader.read(sctx) else { return };
                let (sent_at, hop) = decode_msg(&msg);
                let hop_lat = sctx.now() - sent_at;
                let _ = tx.send((hop as usize, hop_lat));
                let t_exec = sctx.now();
                sctx.sleep(exec);
                telemetry::with(|r| {
                    r.complete_span(
                        sctx.lane(),
                        t_exec.as_nanos(),
                        sctx.now().as_nanos(),
                        &format!("{sname} exec"),
                        sctx.trace_ctx(),
                    );
                });
                // Timestamp when the handler finishes; the language
                // runtime's serialization is part of the hop latency.
                let out = encode_msg(msg, sctx.now(), hop + 1, out_bytes);
                sctx.sleep(serialize);
                if writer.write(sctx, out).is_err() {
                    return;
                }
            }
        });
        body_in = out_bytes;
    }
    drop(metrics_tx);

    // Drive the rounds.
    let entry_serialize = ipc_runtime_overhead(molecule, host);
    let mut end_to_end = Vec::with_capacity(spec.rounds);
    // Each round's request is encoded into the previous round's reply.
    let mut reply = Bytes::new();
    for _ in 0..spec.rounds {
        let t0 = ctx.now();
        let msg = encode_msg(reply, t0, 0, spec.input_bytes);
        ctx.sleep(entry_serialize);
        entry_writer.write(ctx, msg)?;
        reply = result_fifo.read(ctx)?;
        let (_sent, hop) = decode_msg(&reply);
        debug_assert_eq!(hop as usize, n);
        end_to_end.push(ctx.now() - t0);
    }

    let mut hops: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
    while let Ok((hop, lat)) = metrics_rx.try_recv() {
        if hop < n {
            hops[hop].push(lat);
        }
    }
    Ok(ChainOutcome { end_to_end, hops })
}

/// The cost the *sender* pays for one framework HTTP hop, and the in-flight
/// delay before the receiver sees the message.
pub fn http_hop_cost(
    molecule: &Molecule,
    from: PuId,
    to: PuId,
    bytes: u64,
) -> (SimDuration, SimDuration) {
    let calib = molecule.machine().calibration();
    let sender = molecule.machine().pu(from).expect("pu exists");
    let base = match sender.kind {
        PuKind::Dpu | PuKind::SmartNic => calib.http_dag.request_overhead_dpu,
        _ => calib.http_dag.request_overhead,
    };
    let overhead =
        base + SimDuration::from_nanos((calib.http_dag.per_byte_ns * bytes as f64) as u64);
    let in_flight = if from == to {
        // Loopback TCP through the local kernel.
        SimDuration::from_micros(25)
    } else {
        // The baseline assumes a network between PUs ("the wrong assumption
        // of the underlying hardware", §1).
        Link::network().transfer_time(bytes)
    };
    (overhead, in_flight)
}

/// The baseline chain: Express/Flask HTTP hops, no XPU-Shim.
fn run_http_chain(
    molecule: &Molecule,
    ctx: &mut ProcCtx,
    spec: &ChainSpec,
) -> Result<ChainOutcome, MoleculeError> {
    let n = spec.stages.len();
    assert!(n > 0, "empty chain");
    let host = molecule.machine().host_cpu();

    let mut stage_txs = Vec::with_capacity(n);
    let mut stage_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = ctx.channel::<Bytes>();
        stage_txs.push(tx);
        stage_rxs.push(rx);
    }
    let (result_tx, result_rx) = ctx.channel::<Bytes>();
    let (metrics_tx, metrics_rx) = ctx.channel::<(usize, SimDuration)>();

    let mut body_in = spec.input_bytes;
    for (i, stage) in spec.stages.iter().enumerate() {
        let exec = stage_exec(molecule, stage, body_in)?;
        let out_bytes = output_bytes(molecule, &stage.func)?;
        let reader = stage_rxs.remove(0);
        let next_tx = if i + 1 < n { stage_txs[i + 1].clone() } else { result_tx.clone() };
        let tx = metrics_tx.clone();
        let rounds = spec.rounds;
        let (hop_overhead, hop_flight) = if i + 1 < n {
            http_hop_cost(
                molecule,
                stage.pu,
                spec.stages[i + 1].pu,
                out_bytes + HEADER_BYTES as u64,
            )
        } else {
            http_hop_cost(molecule, stage.pu, host, out_bytes + HEADER_BYTES as u64)
        };
        let name = format!("{}-http-stage{}-{}", spec.name, i, stage.func);
        let pu = stage.pu;
        let sname = name.clone();
        ctx.spawn(&name, move |sctx| {
            sctx.set_lane(pu.0);
            for _ in 0..rounds {
                let Ok(msg) = reader.recv(sctx) else { return };
                let (sent_at, hop) = decode_msg(&msg);
                let hop_lat = sctx.now() - sent_at;
                let _ = tx.send((hop as usize, hop_lat));
                let t_exec = sctx.now();
                sctx.sleep(exec);
                telemetry::with(|r| {
                    r.complete_span(
                        sctx.lane(),
                        t_exec.as_nanos(),
                        sctx.now().as_nanos(),
                        &format!("{sname} exec"),
                        sctx.trace_ctx(),
                    );
                });
                // Timestamp at hand-off; the Express/Flask overhead is part
                // of the hop latency.
                let out = encode_msg(msg, sctx.now(), hop + 1, out_bytes);
                sctx.sleep(hop_overhead);
                if next_tx.send_delayed(hop_flight, out).is_err() {
                    return;
                }
            }
        });
        body_in = out_bytes;
    }
    drop(metrics_tx);
    drop(result_tx);

    let (entry_overhead, entry_flight) =
        http_hop_cost(molecule, host, spec.stages[0].pu, spec.input_bytes + HEADER_BYTES as u64);
    let mut end_to_end = Vec::with_capacity(spec.rounds);
    // Each round's request is encoded into the previous round's reply.
    let mut reply = Bytes::new();
    for _ in 0..spec.rounds {
        let t0 = ctx.now();
        let msg = encode_msg(reply, t0, 0, spec.input_bytes);
        ctx.sleep(entry_overhead);
        stage_txs[0]
            .send_delayed(entry_flight, msg)
            .map_err(|_| MoleculeError::Internal("stage 0 hung up".to_owned()))?;
        reply =
            result_rx.recv(ctx).map_err(|_| MoleculeError::Internal("chain died".to_owned()))?;
        end_to_end.push(ctx.now() - t0);
    }

    let mut hops: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
    while let Ok((hop, lat)) = metrics_rx.try_recv() {
        if hop < n {
            hops[hop].push(lat);
        }
    }
    Ok(ChainOutcome { end_to_end, hops })
}

/// FPGA chains: all stages cached in one vectorized image; data moves either
/// by copying through host DRAM or by the retention hand-off.
fn run_fpga_chain(
    molecule: &Molecule,
    ctx: &mut ProcCtx,
    spec: &ChainSpec,
) -> Result<ChainOutcome, MoleculeError> {
    let n = spec.stages.len();
    assert!(n > 0, "empty chain");
    let pu = spec.stages[0].pu;
    assert!(
        spec.stages.iter().all(|s| s.pu == pu),
        "FPGA chains run within one device in this reproduction"
    );
    let runf = molecule
        .runf(pu)
        .ok_or_else(|| MoleculeError::Internal(format!("no runf on {pu}")))?
        .clone();
    let host = molecule.machine().host_cpu();
    let dma = molecule.machine().route(host, pu);
    let shm = Link::shared_mem();
    let cpu_coord = molecule.machine().calibration().cpu_os.ipc_segment; // host-side coordination of the copy path

    // Cache the whole chain in one image (keep-alive chain affinity, §5)
    // and start every sandbox. Functions already packed by a previous run
    // stay cached.
    let missing: Vec<FuncId> = spec
        .stages
        .iter()
        .map(|s| s.func.clone())
        .filter(|f| runf.state(ctx, &SandboxId::new(f.as_str())).is_err())
        .collect();
    if !missing.is_empty() {
        molecule.cache_fpga_functions(ctx, pu, &missing)?;
    }
    for stage in &spec.stages {
        let sandbox = SandboxId::new(stage.func.as_str());
        if runf.state(ctx, &sandbox).map_err(MoleculeError::Sandbox)?
            != vsandbox::spec::SandboxState::Running
        {
            runf.start(ctx, &sandbox).map_err(MoleculeError::Sandbox)?;
        }
    }

    let mut end_to_end = Vec::with_capacity(spec.rounds);
    let mut hops: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
    for _ in 0..spec.rounds {
        let t0 = ctx.now();
        let mut bytes = spec.input_bytes;
        for (i, stage) in spec.stages.iter().enumerate() {
            let hop_start = ctx.now();
            if i == 0 {
                // Request data enters the device once, over DMA.
                ctx.sleep(dma.transfer_time(bytes));
            } else {
                match spec.comm {
                    CommMethod::FpgaCopy => {
                        // Caller copies to host DRAM, host coordinates, the
                        // callee copies back to device DRAM.
                        ctx.sleep(dma.transfer_time(bytes));
                        ctx.sleep(cpu_coord);
                        ctx.sleep(dma.transfer_time(bytes));
                    }
                    CommMethod::FpgaShm => {
                        // Zero-copy: the data stayed in a retained DRAM bank.
                        runf.device()
                            .retained_buffer(0, &format!("{}-hop", spec.name))
                            .map_err(|e| MoleculeError::Internal(e.to_string()))?;
                        ctx.sleep(shm.transfer_time(bytes));
                    }
                    _ => unreachable!("checked in run_chain"),
                }
            }
            hops[i].push(ctx.now() - hop_start);
            let exec = stage_exec(molecule, stage, bytes)?;
            let sandbox = SandboxId::new(stage.func.as_str());
            runf.invoke(ctx, &sandbox, exec).map_err(MoleculeError::Sandbox)?;
            bytes = output_bytes(molecule, &stage.func)?;
            // The producer leaves its output in a DRAM bank for the next
            // stage (retention keeps it across any image operations).
            runf.device()
                .retain_buffer(0, &format!("{}-hop", spec.name), bytes)
                .map_err(|e| MoleculeError::Internal(e.to_string()))?;
        }
        // Final result returns to the host over DMA.
        ctx.sleep(dma.transfer_time(bytes));
        end_to_end.push(ctx.now() - t0);
    }
    Ok(ChainOutcome { end_to_end, hops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{ExecModel, FunctionDef};
    use crate::runtime::{MoleculeConfig, StartupKind};
    use hetsim::engine::Simulation;
    use hetsim::fpga::{FpgaResources, KernelSpec};
    use hetsim::topology::Machine;
    use vsandbox::spec::LangRuntime;

    fn noop_fn(name: &str) -> FunctionDef {
        FunctionDef::builder(name, LangRuntime::NodeJs)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec(ExecModel::Fixed(SimDuration::ZERO))
            .output_bytes(512)
            .build()
    }

    fn molecule_cpu_dpu() -> Molecule {
        let m = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        for name in ["front", "interact"] {
            m.register_function(noop_fn(name));
        }
        m
    }

    #[test]
    fn ipc_edge_is_10x_to_18x_faster_than_http() {
        // Fig. 12's headline: IPC-based DAG beats the Express baseline by
        // 10-18x on every edge.
        let m = molecule_cpu_dpu();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let h = sim.spawn("driver", move |ctx| {
            let mk = |comm| {
                ChainSpec::new(
                    format!("edge-{comm:?}"),
                    vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(0))],
                    comm,
                )
                .input_bytes(1024)
            };
            let ipc = run_chain(&m2, ctx, &mk(CommMethod::DirectIpc)).unwrap();
            let http = run_chain(&m2, ctx, &mk(CommMethod::HttpGateway)).unwrap();
            (ipc.mean_hop(1), http.mean_hop(1))
        });
        sim.run().unwrap();
        let (ipc, http) = h.take_result().unwrap();
        let ratio = http.ratio(ipc);
        assert!((8.0..=25.0).contains(&ratio), "http {http} / ipc {ipc} = {ratio}");
    }

    #[test]
    fn cross_pu_nipc_works_and_costs_more_than_local() {
        let m = molecule_cpu_dpu();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let h = sim.spawn("driver", move |ctx| {
            let local = ChainSpec::new(
                "local",
                vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(0))],
                CommMethod::DirectIpc,
            );
            let cross = ChainSpec::new(
                "cross",
                vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(1))],
                CommMethod::DirectIpc,
            );
            let l = run_chain(&m2, ctx, &local).unwrap();
            let c = run_chain(&m2, ctx, &cross).unwrap();
            (l.mean_hop(1), c.mean_hop(1))
        });
        sim.run().unwrap();
        let (local, cross) = h.take_result().unwrap();
        assert!(cross > local, "nIPC ({cross}) must cost more than local IPC ({local})");
        // But both stay well under a millisecond (Fig. 12 Molecule bars).
        assert!(cross < SimDuration::from_millis(1));
    }

    #[test]
    fn large_payload_cross_pu_chain_uses_descriptors() {
        // A 64 KiB hop across the CPU→DPU leg must ride the shared-segment
        // descriptor path (the generalized DRAM-retention hand-off), and the
        // elided staging must buy at least 2x over the pinned data plane
        // that copies every byte through the XPUcall transport.
        use xpu_shim::cluster::ShimConfig;
        const BIG: u64 = 64 * 1024;
        let big_fn = |name: &str| {
            FunctionDef::builder(name, LangRuntime::NodeJs)
                .profiles(&[PuKind::Cpu, PuKind::Dpu])
                .exec(ExecModel::Fixed(SimDuration::ZERO))
                .output_bytes(BIG)
                .build()
        };
        let run = |shim: ShimConfig| {
            let config = MoleculeConfig { shim, ..MoleculeConfig::default() };
            let m = Molecule::launch(Machine::paper_cpu_dpu_server(), config);
            for name in ["front", "interact"] {
                m.register_function(big_fn(name));
            }
            let mut sim = Simulation::new();
            let m2 = m.clone();
            let h = sim.spawn("driver", move |ctx| {
                let spec = ChainSpec::new(
                    "big",
                    vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(1))],
                    CommMethod::DirectIpc,
                )
                .input_bytes(BIG);
                run_chain(&m2, ctx, &spec).unwrap().mean_hop(1)
            });
            sim.run().unwrap();
            (h.take_result().unwrap(), m.cluster().stats())
        };
        let (fast, fast_stats) = run(ShimConfig::default());
        let (slow, slow_stats) = run(ShimConfig::pinned());
        assert!(
            fast_stats.descriptor_handoffs > 0,
            "large cross-PU hops must hand off descriptors: {fast_stats:?}"
        );
        assert_eq!(slow_stats.descriptor_handoffs, 0, "pinned config must stage every byte");
        // Both hops pay the same constant language-runtime serialization;
        // the 2x claim is about the transport leg underneath it.
        let serialize = Machine::paper_cpu_dpu_server().calibration().http_dag.ipc_runtime_overhead;
        assert!(
            (fast - serialize) * 2 <= slow - serialize,
            "descriptor hand-off ({fast}) must be >=2x faster than staging ({slow}) \
             net of the {serialize} runtime overhead"
        );
    }

    #[test]
    fn multi_round_chains_report_all_rounds() {
        let m = molecule_cpu_dpu();
        let mut sim = Simulation::new();
        let h = sim.spawn("driver", move |ctx| {
            let spec = ChainSpec::new(
                "rounds",
                vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(1))],
                CommMethod::DirectIpc,
            )
            .rounds(5);
            run_chain(&m, ctx, &spec).unwrap()
        });
        sim.run().unwrap();
        let outcome = h.take_result().unwrap();
        assert_eq!(outcome.end_to_end.len(), 5);
        assert_eq!(outcome.hops[0].len(), 5);
        assert_eq!(outcome.hops[1].len(), 5);
    }

    #[test]
    fn fpga_shm_chain_beats_copying() {
        // Fig. 13: the retention-based chain wins, about 1.95x at 5 stages.
        let machine = Machine::paper_f1_instance();
        let fpga = machine.pus_of_kind(PuKind::Fpga)[0];
        let m = Molecule::launch(machine, MoleculeConfig::default());
        let mut stages = Vec::new();
        for i in 0..5 {
            let name = format!("vec{i}");
            let kernel = KernelSpec {
                name: name.clone(),
                resources: FpgaResources { luts: 5_000, regs: 8_000, brams: 20, dsps: 36 },
            };
            m.register_function(
                FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                    .profiles(&[PuKind::Fpga])
                    .fpga(kernel, ExecModel::Fixed(SimDuration::from_micros(77)))
                    .output_bytes(65536)
                    .build(),
            );
            stages.push(ChainStage::new(name, fpga));
        }
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let stages2 = stages.clone();
        let h = sim.spawn("driver", move |ctx| {
            let copy =
                ChainSpec::new("copy", stages2.clone(), CommMethod::FpgaCopy).input_bytes(65536);
            let shm = ChainSpec::new("shm", stages2, CommMethod::FpgaShm).input_bytes(65536);
            let c = run_chain(&m2, ctx, &copy).unwrap();
            let s = run_chain(&m2, ctx, &shm).unwrap();
            (c.mean_end_to_end(), s.mean_end_to_end())
        });
        sim.run().unwrap();
        let (copy, shm) = h.take_result().unwrap();
        let ratio = copy.ratio(shm);
        assert!((1.6..=2.3).contains(&ratio), "copy {copy} / shm {shm} = {ratio}");
    }

    #[test]
    fn warm_gp_instances_can_be_prebooted_before_chains() {
        // The §6.6 methodology pre-boots instances; make sure the startup
        // and chain paths compose on the same Molecule deployment.
        let m = molecule_cpu_dpu();
        let mut sim = Simulation::new();
        let h = sim.spawn("driver", move |ctx| {
            m.bootstrap(ctx).unwrap();
            m.prepare_template(ctx, PuId(0), LangRuntime::NodeJs).unwrap();
            m.start_instance(ctx, &"front".into(), PuId(0), StartupKind::CforkLocal).unwrap();
            let spec = ChainSpec::new(
                "mixed",
                vec![ChainStage::new("front", PuId(0)), ChainStage::new("interact", PuId(0))],
                CommMethod::DirectIpc,
            );
            run_chain(&m, ctx, &spec).unwrap().mean_end_to_end()
        });
        sim.run().unwrap();
        assert!(h.take_result().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn re_encoding_a_message_equals_a_fresh_encode() {
        let t = SimTime::from_nanos(123_456_789);
        let fresh = |hop, body| encode_msg(Bytes::new(), t, hop, body);
        for (from, to) in [(64, 4096), (4096, 64), (512, 512), (0, 16), (16, 0)] {
            let input = encode_msg(Bytes::new(), SimTime::from_nanos(7), 3, from);
            let out = encode_msg(input, t, 4, to);
            assert_eq!(out, fresh(4, to), "unique {from} -> {to}");

            let input = encode_msg(Bytes::new(), SimTime::from_nanos(7), 3, from);
            let other = input.clone();
            let out = encode_msg(input, t, 4, to);
            assert_eq!(out, fresh(4, to), "shared {from} -> {to}");
            assert_eq!(other, encode_msg(Bytes::new(), SimTime::from_nanos(7), 3, from));
        }
        assert_eq!(decode_msg(&fresh(9, 32)), (t, 9));
    }

    #[test]
    fn re_encoding_a_unique_message_reuses_its_allocation() {
        let input = encode_msg(Bytes::new(), SimTime::ZERO, 0, 4096);
        let ptr = input.as_ptr();
        let shrunk = encode_msg(input, SimTime::from_nanos(5), 1, 1024);
        assert_eq!(shrunk.as_ptr(), ptr);
        let regrown = encode_msg(shrunk, SimTime::from_nanos(9), 2, 4096);
        assert_eq!(regrown.as_ptr(), ptr);
    }
}
