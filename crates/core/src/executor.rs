//! Live executors (paper Fig. 6 / §4.1).
//!
//! "Molecule will launch executors on other PUs through xSpawn, which are
//! responsible for managing local function instances using the vectorized
//! sandbox abstraction. The executor receives commands from Molecule
//! (through nIPC), executes the commands on the local OS, and returns the
//! results."
//!
//! This module implements that loop for real: each executor is a simulated
//! process on its PU, blocked on its command XPU-FIFO; the manager writes
//! length-prefixed [`ExecutorCommand`] frames over nIPC and reads
//! [`ExecutorReply`] frames back. Every byte of control traffic therefore
//! pays the measured nIPC costs — no modelled shortcut.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hetsim::engine::ProcCtx;
use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use telemetry::SpanContext;
use vsandbox::spec::FuncId;
use xpu_shim::cap::Perm;
use xpu_shim::cluster::RETRY_MAX_ATTEMPTS;
use xpu_shim::fifo::XpuFifoWriter;
use xpu_shim::id::GlobalUuid;

use crate::error::MoleculeError;
use crate::runtime::{InstanceId, Molecule, StartupKind};

/// A command the manager sends to an executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorCommand {
    /// Liveness probe.
    Ping,
    /// cfork an instance of `func` from the PU-local template.
    Cfork {
        /// The function to instantiate.
        func: FuncId,
    },
    /// Cold-boot an instance of `func` (the baseline path).
    ColdStart {
        /// The function to instantiate.
        func: FuncId,
    },
    /// Retire a previously started instance.
    Retire {
        /// The instance to retire.
        instance: u64,
    },
    /// Stop the executor loop.
    Shutdown,
}

/// A reply an executor sends back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorReply {
    /// `Ping` answered.
    Pong,
    /// An instance was started.
    Started {
        /// The new instance id.
        instance: u64,
        /// Startup latency on the executor's side, nanoseconds.
        startup_ns: u64,
    },
    /// An instance was retired.
    Retired,
    /// The command failed.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// The executor acknowledged shutdown.
    ShuttingDown,
}

/// Frame tag marking a reply that echoes its command's idempotency key.
/// Distinct from every [`ExecutorReply::encode`] variant tag.
const KEYED_REPLY_TAG: u8 = 0xFF;

/// Frame tag marking a vectorized frame: several command frames packed into
/// one nIPC message, sharing a single doorbell. Distinct from every command
/// frame tag (0..=4) and from [`KEYED_REPLY_TAG`].
const BATCH_FRAME_TAG: u8 = 0xFE;

/// Packs several already-encoded command frames into one vectorized frame.
/// The whole batch travels as a single `xfifo_write` — one XPUcall, one
/// doorbell — and the executor unpacks and serves each sub-frame in order.
pub fn encode_batch(frames: &[Bytes]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(BATCH_FRAME_TAG);
    buf.put_u32_le(frames.len() as u32);
    for frame in frames {
        buf.put_u32_le(frame.len() as u32);
        buf.put_slice(frame);
    }
    buf.freeze()
}

/// Unpacks a frame produced by [`encode_batch`]. Returns `None` for anything
/// that is not a well-formed batch frame (the caller then treats the bytes
/// as a single command frame).
pub fn decode_batch(bytes: &Bytes) -> Option<Vec<Bytes>> {
    let mut buf = bytes.clone();
    if buf.remaining() < 5 || buf.get_u8() != BATCH_FRAME_TAG {
        return None;
    }
    let count = buf.get_u32_le() as usize;
    let mut frames = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 4 {
            return None;
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return None;
        }
        frames.push(buf.split_to(len));
    }
    Some(frames)
}

/// Fixed-capacity served-reply cache with O(1) lookup and insert: a hash
/// index for the dedup hit path plus an insertion-order ring for eviction.
/// Eviction is oldest-inserted-first — the same policy the previous
/// `BTreeMap::pop_first` pruning gave (idempotency keys are handed out
/// monotonically), without the per-insert tree rebalance.
#[derive(Debug)]
pub struct ReplyCache {
    cap: usize,
    ring: std::collections::VecDeque<u64>,
    map: std::collections::HashMap<u64, Bytes>,
}

impl ReplyCache {
    /// Creates a cache holding at most `cap` replies (minimum 1).
    pub fn new(cap: usize) -> ReplyCache {
        let cap = cap.max(1);
        ReplyCache {
            cap,
            ring: std::collections::VecDeque::with_capacity(cap + 1),
            map: std::collections::HashMap::with_capacity(cap + 1),
        }
    }

    /// The cached reply for `key`, if it has not been evicted.
    pub fn get(&self, key: u64) -> Option<&Bytes> {
        self.map.get(&key)
    }

    /// Caches `reply` under `key`, evicting the oldest entry when full.
    /// Re-inserting an existing key refreshes the reply without growing the
    /// ring.
    pub fn insert(&mut self, key: u64, reply: Bytes) {
        if self.map.insert(key, reply).is_none() {
            self.ring.push_back(key);
            if self.ring.len() > self.cap {
                if let Some(oldest) = self.ring.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Option<String> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return None;
    }
    let bytes = buf.split_to(len);
    String::from_utf8(bytes.to_vec()).ok()
}

impl ExecutorCommand {
    /// Encodes the command to its wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ExecutorCommand::Ping => buf.put_u8(0),
            ExecutorCommand::Cfork { func } => {
                buf.put_u8(1);
                put_str(&mut buf, func.as_str());
            }
            ExecutorCommand::ColdStart { func } => {
                buf.put_u8(2);
                put_str(&mut buf, func.as_str());
            }
            ExecutorCommand::Retire { instance } => {
                buf.put_u8(3);
                buf.put_u64_le(*instance);
            }
            ExecutorCommand::Shutdown => buf.put_u8(4),
        }
        buf.freeze()
    }

    /// Decodes a command from its wire format.
    pub fn decode(mut bytes: Bytes) -> Option<ExecutorCommand> {
        if bytes.remaining() < 1 {
            return None;
        }
        match bytes.get_u8() {
            0 => Some(ExecutorCommand::Ping),
            1 => Some(ExecutorCommand::Cfork { func: FuncId::new(get_str(&mut bytes)?) }),
            2 => Some(ExecutorCommand::ColdStart { func: FuncId::new(get_str(&mut bytes)?) }),
            3 => {
                if bytes.remaining() < 8 {
                    return None;
                }
                Some(ExecutorCommand::Retire { instance: bytes.get_u64_le() })
            }
            4 => Some(ExecutorCommand::Shutdown),
            _ => None,
        }
    }

    /// Encodes the command as an executor frame: a tag byte, the
    /// idempotency `key`, an optional 16-byte trace context, then the
    /// command. The key lets the executor recognise a duplicated or re-sent
    /// command and serve it exactly once; the embedded context continues
    /// the manager's trace on the remote PU, even over transports that
    /// don't piggyback contexts themselves.
    pub fn encode_keyed(&self, key: u64, span: Option<SpanContext>) -> Bytes {
        let mut buf = BytesMut::new();
        match span {
            Some(s) => {
                buf.put_u8(3);
                buf.put_u64_le(key);
                buf.put_slice(&s.to_wire());
            }
            None => {
                buf.put_u8(2);
                buf.put_u64_le(key);
            }
        }
        buf.put_slice(&self.encode());
        buf.freeze()
    }

    /// Decodes a frame produced by [`encode_keyed`](Self::encode_keyed).
    /// A frame without a key (or otherwise malformed) decodes to `None`.
    pub fn decode_framed(mut bytes: Bytes) -> Option<(ExecutorCommand, Option<SpanContext>, u64)> {
        if bytes.remaining() < 9 {
            return None;
        }
        let tag = bytes.get_u8();
        if tag != 2 && tag != 3 {
            return None;
        }
        let key = bytes.get_u64_le();
        let span = if tag == 3 {
            if bytes.remaining() < 16 {
                return None;
            }
            SpanContext::from_wire(&bytes.split_to(16))
        } else {
            None
        };
        Some((ExecutorCommand::decode(bytes)?, span, key))
    }
}

impl ExecutorReply {
    /// Encodes the reply to its wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ExecutorReply::Pong => buf.put_u8(0),
            ExecutorReply::Started { instance, startup_ns } => {
                buf.put_u8(1);
                buf.put_u64_le(*instance);
                buf.put_u64_le(*startup_ns);
            }
            ExecutorReply::Retired => buf.put_u8(2),
            ExecutorReply::Failed { reason } => {
                buf.put_u8(3);
                put_str(&mut buf, reason);
            }
            ExecutorReply::ShuttingDown => buf.put_u8(4),
        }
        buf.freeze()
    }

    /// Encodes the reply with the command's idempotency `key` echoed in
    /// front (a sentinel tag byte, then the key, then the reply), so the
    /// manager can match a reply to the exact command it answers and discard
    /// stragglers from earlier timed-out calls.
    pub fn encode_keyed(&self, key: u64) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(KEYED_REPLY_TAG);
        buf.put_u64_le(key);
        buf.put_slice(&self.encode());
        buf.freeze()
    }

    /// Decodes a frame produced by [`encode_keyed`](Self::encode_keyed),
    /// returning the echoed key.
    pub fn decode_framed(mut bytes: Bytes) -> Option<(ExecutorReply, u64)> {
        if bytes.remaining() < 9 || bytes.get_u8() != KEYED_REPLY_TAG {
            return None;
        }
        let key = bytes.get_u64_le();
        Some((ExecutorReply::decode(bytes)?, key))
    }

    /// Decodes a reply from its wire format.
    pub fn decode(mut bytes: Bytes) -> Option<ExecutorReply> {
        if bytes.remaining() < 1 {
            return None;
        }
        match bytes.get_u8() {
            0 => Some(ExecutorReply::Pong),
            1 => {
                if bytes.remaining() < 16 {
                    return None;
                }
                Some(ExecutorReply::Started {
                    instance: bytes.get_u64_le(),
                    startup_ns: bytes.get_u64_le(),
                })
            }
            2 => Some(ExecutorReply::Retired),
            3 => Some(ExecutorReply::Failed { reason: get_str(&mut bytes)? }),
            4 => Some(ExecutorReply::ShuttingDown),
            _ => None,
        }
    }
}

/// A manager-side handle to a live executor on a neighbour PU.
#[derive(Debug)]
pub struct ExecutorHandle {
    /// The PU the executor runs on.
    pub pu: PuId,
    cluster: xpu_shim::cluster::ShimCluster,
    command_writer: XpuFifoWriter,
    reply_fifo: xpu_shim::fifo::XpuFifoReader,
}

impl ExecutorHandle {
    /// Sends one command and waits for the matching reply. The command
    /// carries an idempotency key, the reply wait is bounded by `timeout`,
    /// and a lost command or reply triggers a bounded re-send under the
    /// cluster's retry policy. The key makes re-sends exactly-once on the
    /// executor side (so a re-issued `Cfork` never starts a second
    /// instance), and the executor echoes it in the reply, so a straggling
    /// reply from an earlier timed-out call is discarded rather than
    /// mistaken for this one's.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::PuUnavailable`] when the executor's PU is dead or
    /// stays unresponsive past every retry; shim failures; or
    /// [`MoleculeError::Internal`] on protocol errors and executor-reported
    /// failures.
    pub fn call(
        &self,
        ctx: &mut ProcCtx,
        command: ExecutorCommand,
        timeout: SimDuration,
    ) -> Result<ExecutorReply, MoleculeError> {
        use xpu_shim::error::ShimError;
        // Drop replies orphaned by earlier timeouts or duplicated delivery;
        // the key match below catches any straggler still in flight.
        while self.reply_fifo.try_read(ctx).is_ok() {}
        let key = self.cluster.fresh_idempotency_key();
        let frame = command.encode_keyed(key, ctx.trace_ctx());
        for attempt in 0..RETRY_MAX_ATTEMPTS {
            match self.command_writer.write_with_retry(ctx, frame.clone()) {
                Ok(()) => {}
                Err(ShimError::PeerDead(pu)) => return Err(MoleculeError::PuUnavailable(pu)),
                Err(e) if e.is_retryable() && attempt + 1 < RETRY_MAX_ATTEMPTS => continue,
                Err(e) => return Err(e.into()),
            }
            let deadline = ctx.now() + timeout;
            // Wait out this attempt's window, discarding replies whose key
            // does not echo this command's (stragglers from timed-out calls
            // or duplicated deliveries).
            loop {
                if ctx.now() >= deadline {
                    break;
                }
                match self.reply_fifo.read_timeout(ctx, deadline - ctx.now()) {
                    Ok(raw) => {
                        let (reply, rkey) = ExecutorReply::decode_framed(raw).ok_or_else(|| {
                            MoleculeError::Internal("malformed executor reply".to_owned())
                        })?;
                        if rkey != key {
                            continue;
                        }
                        if let ExecutorReply::Failed { reason } = &reply {
                            return Err(MoleculeError::Internal(format!(
                                "executor failed: {reason}"
                            )));
                        }
                        return Ok(reply);
                    }
                    Err(ShimError::FifoTimeout) => break,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Err(MoleculeError::PuUnavailable(self.pu))
    }

    /// Sends several commands as **one** vectorized nIPC frame — a single
    /// `xfifo_write`, so the whole batch shares one XPUcall/doorbell — and
    /// waits for every reply. Each command carries its own idempotency key;
    /// the executor unpacks the frame and serves each sub-command through
    /// the same dedup path as a lone [`call`](Self::call), so
    /// exactly-once semantics survive batching, re-sends and duplicated
    /// delivery. Unanswered commands are re-sent (only the missing subset,
    /// re-packed as a fresh batch) under the cluster's retry policy.
    ///
    /// Replies come back in command order. Per-command failures surface as
    /// [`ExecutorReply::Failed`] entries rather than failing the batch.
    ///
    /// # Errors
    ///
    /// [`MoleculeError::PuUnavailable`] when the executor's PU is dead or
    /// some command stays unanswered past every retry; shim/protocol errors
    /// as [`call`](Self::call).
    pub fn call_batch(
        &self,
        ctx: &mut ProcCtx,
        commands: &[ExecutorCommand],
        timeout: SimDuration,
    ) -> Result<Vec<ExecutorReply>, MoleculeError> {
        use xpu_shim::error::ShimError;
        if commands.is_empty() {
            return Ok(Vec::new());
        }
        // Drop replies orphaned by earlier timeouts or duplicated delivery.
        while self.reply_fifo.try_read(ctx).is_ok() {}
        let keys: Vec<u64> =
            commands.iter().map(|_| self.cluster.fresh_idempotency_key()).collect();
        let frames: Vec<Bytes> =
            commands.iter().zip(&keys).map(|(c, &k)| c.encode_keyed(k, ctx.trace_ctx())).collect();
        let mut replies: std::collections::HashMap<u64, ExecutorReply> =
            std::collections::HashMap::new();
        let t0 = ctx.now();
        for attempt in 0..RETRY_MAX_ATTEMPTS {
            // Re-send only what is still unanswered, re-packed as one frame.
            let missing: Vec<Bytes> = keys
                .iter()
                .zip(&frames)
                .filter(|(k, _)| !replies.contains_key(k))
                .map(|(_, f)| f.clone())
                .collect();
            match self.command_writer.write_with_retry(ctx, encode_batch(&missing)) {
                Ok(()) => {}
                Err(ShimError::PeerDead(pu)) => return Err(MoleculeError::PuUnavailable(pu)),
                Err(e) if e.is_retryable() && attempt + 1 < RETRY_MAX_ATTEMPTS => continue,
                Err(e) => return Err(e.into()),
            }
            let deadline = ctx.now() + timeout;
            while replies.len() < commands.len() && ctx.now() < deadline {
                match self.reply_fifo.read_timeout(ctx, deadline - ctx.now()) {
                    Ok(raw) => {
                        let (reply, rkey) = ExecutorReply::decode_framed(raw).ok_or_else(|| {
                            MoleculeError::Internal("malformed executor reply".to_owned())
                        })?;
                        if keys.contains(&rkey) {
                            replies.insert(rkey, reply);
                        }
                    }
                    Err(ShimError::FifoTimeout) => break,
                    Err(e) => return Err(e.into()),
                }
            }
            if replies.len() == commands.len() {
                break;
            }
        }
        if replies.len() < commands.len() {
            return Err(MoleculeError::PuUnavailable(self.pu));
        }
        telemetry::with(|r| {
            r.complete_span(
                ctx.lane(),
                t0.as_nanos(),
                ctx.now().as_nanos(),
                &format!("executor:call_batch pu{} n={}", self.pu.0, commands.len()),
                ctx.trace_ctx(),
            );
        });
        let mut out = Vec::with_capacity(commands.len());
        for k in &keys {
            out.push(replies.remove(k).expect("every key answered"));
        }
        Ok(out)
    }

    /// Liveness probe with a deadline: true iff the executor answered the
    /// ping within `timeout`.
    pub fn ping(&self, ctx: &mut ProcCtx, timeout: SimDuration) -> bool {
        matches!(self.call(ctx, ExecutorCommand::Ping, timeout), Ok(ExecutorReply::Pong))
    }

    /// Convenience: cfork `func` on the executor's PU and return the
    /// instance with its remote startup latency.
    ///
    /// # Errors
    ///
    /// Same as [`call`](Self::call).
    pub fn cfork(
        &self,
        ctx: &mut ProcCtx,
        func: &FuncId,
        timeout: SimDuration,
    ) -> Result<(InstanceId, SimDuration), MoleculeError> {
        match self.call(ctx, ExecutorCommand::Cfork { func: func.clone() }, timeout)? {
            ExecutorReply::Started { instance, startup_ns } => {
                Ok((InstanceId(instance), SimDuration::from_nanos(startup_ns)))
            }
            other => Err(MoleculeError::Internal(format!("unexpected reply {other:?}"))),
        }
    }

    /// Stops the executor loop.
    ///
    /// # Errors
    ///
    /// Same as [`call`](Self::call).
    pub fn shutdown(&self, ctx: &mut ProcCtx, timeout: SimDuration) -> Result<(), MoleculeError> {
        match self.call(ctx, ExecutorCommand::Shutdown, timeout)? {
            ExecutorReply::ShuttingDown => Ok(()),
            other => Err(MoleculeError::Internal(format!("unexpected reply {other:?}"))),
        }
    }
}

/// Whether the serve loop keeps going after handling one command frame.
enum Served {
    Continue,
    Stop,
}

/// Serves one command frame: decode, dedup against the served-reply cache,
/// execute, reply. Shared by the single-frame path and the vectorized-batch
/// path, so exactly-once semantics are identical under batching.
fn serve_one(
    molecule: &Molecule,
    ectx: &mut ProcCtx,
    pu: PuId,
    reply_writer: &XpuFifoWriter,
    served: &mut ReplyCache,
    raw: Bytes,
) -> Served {
    let Some((command, span, key)) = ExecutorCommand::decode_framed(raw) else {
        // No key (or no decodable command): no caller can match a reply to
        // it, so it is dropped unanswered.
        return Served::Continue;
    };
    if let Some(cached) = served.get(key) {
        return match reply_writer.write(ectx, cached.clone()) {
            Ok(()) => Served::Continue,
            Err(_) => Served::Stop,
        };
    }
    // Adopt the manager's frame-embedded context: commands served here show
    // up under the manager's request trace.
    if span.is_some() {
        ectx.set_trace_ctx(span);
    }
    let reply = match command {
        ExecutorCommand::Ping => ExecutorReply::Pong,
        ExecutorCommand::Shutdown => {
            let _ = reply_writer.write(ectx, ExecutorReply::ShuttingDown.encode_keyed(key));
            return Served::Stop;
        }
        ExecutorCommand::Cfork { func } => {
            // Executors run the *local* startup path; the manager already
            // paid the nIPC hop to reach us.
            start_and_report(molecule, ectx, &func, pu, StartupKind::CforkLocal)
        }
        ExecutorCommand::ColdStart { func } => {
            start_and_report(molecule, ectx, &func, pu, StartupKind::ColdBaseline)
        }
        ExecutorCommand::Retire { instance } => {
            match molecule.retire_instance(ectx, InstanceId(instance)) {
                Ok(()) => ExecutorReply::Retired,
                Err(e) => ExecutorReply::Failed { reason: e.to_string() },
            }
        }
    };
    let encoded = reply.encode_keyed(key);
    served.insert(key, encoded.clone());
    match reply_writer.write(ectx, encoded) {
        Ok(()) => Served::Continue,
        Err(_) => Served::Stop,
    }
}

/// Starts an instance on the executor's PU and packages the outcome as a
/// wire reply.
fn start_and_report(
    molecule: &Molecule,
    ectx: &mut ProcCtx,
    func: &FuncId,
    pu: PuId,
    how: StartupKind,
) -> ExecutorReply {
    let t0 = ectx.now();
    match molecule.start_instance(ectx, func, pu, how) {
        Ok(report) => ExecutorReply::Started {
            instance: report.instance.0,
            startup_ns: (ectx.now() - t0).as_nanos(),
        },
        Err(e) => ExecutorReply::Failed { reason: e.to_string() },
    }
}

/// Launches a *live* executor on `pu`: xSpawns the executor process, wires
/// command/reply XPU-FIFOs with exactly the needed capabilities, and returns
/// the manager-side handle.
///
/// The executor serves commands using the local `runc` until told to shut
/// down. All control traffic flows over nIPC and pays its measured costs.
///
/// # Errors
///
/// Shim failures (unknown PU, capability errors).
pub fn launch_executor(
    molecule: &Molecule,
    ctx: &mut ProcCtx,
    pu: PuId,
) -> Result<ExecutorHandle, MoleculeError> {
    let cluster = molecule.cluster().clone();
    let host = molecule.machine().host_cpu();
    let manager_shim = cluster.shim_on(host)?;
    let manager = manager_shim.attach_process();

    // The manager owns the reply FIFO; the executor owns the command FIFO.
    let reply_fifo = manager_shim.xfifo_init(ctx, manager, format!("exec-reply-{}", pu.raw()))?;
    let reply_uuid = reply_fifo.uuid().clone();
    let reply_obj = reply_fifo.obj();

    let exec_shim = cluster.shim_on(pu)?;
    let exec_pid = exec_shim.attach_process();
    let command_fifo = exec_shim.xfifo_init(ctx, exec_pid, format!("exec-cmd-{}", pu.raw()))?;
    let command_uuid = command_fifo.uuid().clone();
    manager_shim.grant_cap(ctx, manager, exec_pid, reply_obj, Perm::WRITE)?;
    exec_shim.grant_cap(ctx, exec_pid, manager, command_fifo.obj(), Perm::WRITE)?;

    let molecule_for_exec = molecule.clone();
    let cluster_for_exec = cluster.clone();
    let reply_uuid_for_exec: GlobalUuid = reply_uuid;
    manager_shim.xspawn(ctx, manager, pu, "molecule-executor", &[], move |ectx, _pid| {
        let shim = cluster_for_exec.shim_on(pu).expect("executor PU exists");
        let reply_writer =
            shim.xfifo_connect(ectx, exec_pid, &reply_uuid_for_exec).expect("reply fifo granted");
        // Commands already served, with their replies: a duplicated or
        // re-sent command replays the cached reply instead of re-executing
        // (exactly-once under at-least-once delivery). Bounded: keys are
        // handed out monotonically and `call` drains stragglers, so entries
        // far behind the newest key can never be replayed again.
        const SERVED_CACHE_CAP: usize = 128;
        let mut served = ReplyCache::new(SERVED_CACHE_CAP);
        loop {
            let Ok(raw) = command_fifo.read(ectx) else { return };
            // A vectorized frame carries several commands behind one
            // doorbell; each sub-frame goes through the same dedup/reply
            // path as a lone command.
            let frames = decode_batch(&raw).unwrap_or_else(|| vec![raw]);
            for frame in frames {
                match serve_one(&molecule_for_exec, ectx, pu, &reply_writer, &mut served, frame) {
                    Served::Continue => {}
                    Served::Stop => return,
                }
            }
        }
    })?;

    let command_writer = manager_shim.xfifo_connect(ctx, manager, &command_uuid)?;
    Ok(ExecutorHandle { pu, cluster, command_writer, reply_fifo })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionDef;
    use crate::runtime::MoleculeConfig;
    use hetsim::engine::Simulation;
    use hetsim::pu::PuKind;
    use hetsim::topology::Machine;
    use vsandbox::spec::LangRuntime;

    #[test]
    fn command_and_reply_codecs_roundtrip() {
        let commands = [
            ExecutorCommand::Ping,
            ExecutorCommand::Cfork { func: FuncId::new("image-resize") },
            ExecutorCommand::ColdStart { func: FuncId::new("x") },
            ExecutorCommand::Retire { instance: 42 },
            ExecutorCommand::Shutdown,
        ];
        for c in commands {
            assert_eq!(ExecutorCommand::decode(c.encode()), Some(c));
        }
        let replies = [
            ExecutorReply::Pong,
            ExecutorReply::Started { instance: 7, startup_ns: 6_400_000 },
            ExecutorReply::Retired,
            ExecutorReply::Failed { reason: "no template".to_owned() },
            ExecutorReply::ShuttingDown,
        ];
        for r in replies {
            assert_eq!(ExecutorReply::decode(r.encode()), Some(r));
        }
    }

    /// An unkeyed command frame: tag 0 (no key, no trace context), then
    /// the command.
    fn unkeyed_frame(cmd: &ExecutorCommand) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_slice(&cmd.encode());
        buf.freeze()
    }

    #[test]
    fn keyed_frames_roundtrip_and_unkeyed_frames_are_rejected() {
        let cmd = ExecutorCommand::Cfork { func: FuncId::new("img") };
        let keyed = cmd.encode_keyed(0xDEAD_BEEF, None);
        assert_eq!(ExecutorCommand::decode_framed(keyed), Some((cmd.clone(), None, 0xDEAD_BEEF)));
        let span = SpanContext::root();
        let traced = cmd.encode_keyed(1, Some(span));
        assert_eq!(ExecutorCommand::decode_framed(traced), Some((cmd.clone(), Some(span), 1)));
        assert_eq!(ExecutorCommand::decode_framed(unkeyed_frame(&cmd)), None);
    }

    #[test]
    fn keyed_replies_echo_the_command_key() {
        let reply = ExecutorReply::Started { instance: 7, startup_ns: 1 };
        let keyed = reply.encode_keyed(0xABCD);
        assert_eq!(ExecutorReply::decode_framed(keyed), Some((reply.clone(), 0xABCD)));
        // A frame without the echoed key is not a reply any caller can match.
        assert_eq!(ExecutorReply::decode_framed(reply.encode()), None);
        // A truncated keyed frame is malformed, not misread as plain.
        let cut = ExecutorReply::Pong.encode_keyed(9).slice(0..5);
        assert_eq!(ExecutorReply::decode_framed(cut), None);
    }

    #[test]
    fn reply_cache_dedups_exactly_at_the_eviction_boundary() {
        // Regression for the fixed-capacity ring: with capacity N, a key
        // must stay cached through the next N-1 inserts and be gone after
        // the Nth — off-by-one here would either break dedup (evict too
        // early) or let the cache grow unbounded.
        let cap = 128;
        let mut cache = ReplyCache::new(cap);
        cache.insert(1, Bytes::from_static(b"first"));
        for k in 2..(cap as u64 + 1) {
            cache.insert(k, Bytes::from_static(b"filler"));
            assert!(cache.get(1).is_some(), "key 1 evicted early at insert {k}");
        }
        assert_eq!(cache.len(), cap);
        // The (N+1)th distinct key pushes the oldest out — and only it.
        cache.insert(cap as u64 + 1, Bytes::from_static(b"overflow"));
        assert!(cache.get(1).is_none(), "oldest key must be evicted");
        assert!(cache.get(2).is_some(), "second-oldest must survive");
        assert_eq!(cache.len(), cap);
        // Refreshing an existing key must not evict anything.
        cache.insert(2, Bytes::from_static(b"refreshed"));
        assert_eq!(cache.len(), cap);
        assert_eq!(cache.get(2).map(|b| &b[..]), Some(&b"refreshed"[..]));
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn batch_frames_roundtrip_and_reject_garbage() {
        let frames = vec![
            ExecutorCommand::Ping.encode_keyed(1, None),
            ExecutorCommand::Cfork { func: FuncId::new("img") }.encode_keyed(2, None),
            ExecutorCommand::Retire { instance: 9 }.encode_keyed(3, None),
        ];
        let packed = encode_batch(&frames);
        assert_eq!(decode_batch(&packed), Some(frames.clone()));
        // A lone command frame is not a batch.
        assert_eq!(decode_batch(&frames[0]), None);
        // Truncated batches are malformed, never partially decoded.
        for cut in 1..packed.len() {
            assert_eq!(decode_batch(&packed.slice(0..cut)), None, "truncated at {cut}");
        }
        assert_eq!(decode_batch(&encode_batch(&[])), Some(Vec::new()));
    }

    #[test]
    fn truncated_frames_decode_to_none() {
        let frame = ExecutorCommand::Cfork { func: FuncId::new("abcdef") }.encode();
        for cut in 1..frame.len() {
            assert_eq!(ExecutorCommand::decode(frame.slice(0..cut)), None, "truncated at {cut}");
        }
        assert_eq!(ExecutorCommand::decode(Bytes::from_static(&[99])), None);
        assert_eq!(ExecutorReply::decode(Bytes::new()), None);
    }

    /// Reply deadline for calls that must succeed: far beyond any cold
    /// start these tests trigger.
    const TIMEOUT: SimDuration = SimDuration::from_secs(10);

    fn molecule() -> Molecule {
        let m = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        m.register_function(
            FunctionDef::builder("img", LangRuntime::Python)
                .profiles(&[PuKind::Cpu, PuKind::Dpu])
                .exec_ms(5.0)
                .build(),
        );
        m
    }

    #[test]
    fn live_executor_serves_cfork_over_nipc() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        let out = sim.spawn("manager", move |ctx| {
            m2.bootstrap(ctx).unwrap(); // pre-initializes function containers
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            assert_eq!(
                exec.call(ctx, ExecutorCommand::Ping, TIMEOUT).unwrap(),
                ExecutorReply::Pong
            );
            let t0 = ctx.now();
            let (instance, remote_startup) = exec.cfork(ctx, &"img".into(), TIMEOUT).unwrap();
            let end_to_end = ctx.now() - t0;
            exec.shutdown(ctx, TIMEOUT).unwrap();
            (instance, remote_startup, end_to_end)
        });
        sim.run().unwrap();
        let (instance, remote_startup, end_to_end) = out.take_result().unwrap();
        assert_eq!(m.instance_pu(instance), Some(PuId(1)));
        // The remote (executor-side) startup is the BF-1 cfork (~40ms); the
        // manager additionally pays two nIPC hops.
        assert!((35.0..=45.0).contains(&remote_startup.as_millis_f64()));
        assert!(end_to_end > remote_startup);
        let overhead = (end_to_end - remote_startup).as_micros_f64();
        assert!((10.0..=500.0).contains(&overhead), "nIPC command+reply overhead was {overhead}us");
    }

    #[test]
    fn cold_start_command_uses_the_baseline_path() {
        let m = molecule();
        let mut sim = Simulation::new();
        let out = sim.spawn("manager", move |ctx| {
            m.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m, ctx, PuId(1)).unwrap();
            let cold = match exec
                .call(ctx, ExecutorCommand::ColdStart { func: FuncId::new("img") }, TIMEOUT)
                .unwrap()
            {
                ExecutorReply::Started { startup_ns, .. } => startup_ns,
                other => panic!("unexpected {other:?}"),
            };
            let (_, cfork) = exec.cfork(ctx, &"img".into(), TIMEOUT).unwrap();
            exec.shutdown(ctx, TIMEOUT).unwrap();
            (cold, cfork.as_nanos())
        });
        sim.run().unwrap();
        let (cold, cfork) = out.take_result().unwrap();
        // BF-1 baseline boot (~1.1s) dwarfs the cfork (~40-280ms without a
        // warm preinit pool).
        assert!(cold > 1_000_000_000, "cold start {cold}ns");
        assert!(cfork < cold / 3, "cfork {cfork}ns vs cold {cold}ns");
    }

    #[test]
    fn executor_reports_failures_without_dying() {
        let m = molecule();
        let mut sim = Simulation::new();
        let out = sim.spawn("manager", move |ctx| {
            // No template prepared: the cfork must fail but the executor
            // must keep serving.
            let exec = launch_executor(&m, ctx, PuId(1)).unwrap();
            let err = exec.cfork(ctx, &"img".into(), TIMEOUT).unwrap_err();
            let pong = exec.call(ctx, ExecutorCommand::Ping, TIMEOUT).unwrap();
            exec.shutdown(ctx, TIMEOUT).unwrap();
            (err, pong)
        });
        sim.run().unwrap();
        let (err, pong) = out.take_result().unwrap();
        assert!(matches!(err, MoleculeError::Internal(_)));
        assert_eq!(pong, ExecutorReply::Pong);
    }

    #[test]
    fn call_resends_after_a_dropped_command() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            let machine = m2.machine().clone();
            // Every host->DPU frame vanishes on the wire (the shim still
            // reports a successful fire-and-forget send) until the healer
            // clears the fault mid-call.
            machine.fault_plane().set_fifo_loss(ctx.now(), PuId(0), PuId(1), 1.0);
            let plane_machine = machine.clone();
            ctx.spawn("healer", move |hctx| {
                hctx.sleep(SimDuration::from_micros(500));
                plane_machine.fault_plane().set_fifo_loss(hctx.now(), PuId(0), PuId(1), 0.0);
            });
            let reply = exec.call(ctx, ExecutorCommand::Ping, SimDuration::from_millis(1)).unwrap();
            assert_eq!(reply, ExecutorReply::Pong, "the re-sent command reached the executor");
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
        assert!(m.cluster().stats().dropped_messages >= 1, "the first attempt was dropped");
    }

    #[test]
    fn call_discards_stale_replies_by_key() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            // A timeout shorter than the nIPC round trip: every attempt's
            // Pong is still in flight when the call gives up, leaving
            // stragglers the next call must not mistake for its own reply.
            let err =
                exec.call(ctx, ExecutorCommand::Ping, SimDuration::from_nanos(1)).unwrap_err();
            assert!(matches!(err, MoleculeError::PuUnavailable(_)), "got {err:?}");
            let reply = exec
                .call(
                    ctx,
                    ExecutorCommand::Cfork { func: FuncId::new("img") },
                    SimDuration::from_millis(100),
                )
                .unwrap();
            assert!(
                matches!(reply, ExecutorReply::Started { .. }),
                "stale Pong accepted as the Cfork reply: {reply:?}"
            );
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn call_batch_serves_every_command_in_order_over_one_frame() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            let before = m2.cluster().stats().xpucalls;
            let replies = exec
                .call_batch(
                    ctx,
                    &[
                        ExecutorCommand::Ping,
                        ExecutorCommand::Cfork { func: FuncId::new("img") },
                        ExecutorCommand::Ping,
                    ],
                    SimDuration::from_millis(500),
                )
                .unwrap();
            let writer_xcalls = m2.cluster().stats().xpucalls - before;
            assert_eq!(replies.len(), 3);
            assert_eq!(replies[0], ExecutorReply::Pong);
            assert!(matches!(replies[1], ExecutorReply::Started { .. }), "{:?}", replies[1]);
            assert_eq!(replies[2], ExecutorReply::Pong);
            // One vectorized frame = one command-side xfifo_write = one
            // XPUcall, instead of three command writes (replies still pay
            // their own writes on the executor side).
            assert!(
                writer_xcalls <= 4,
                "batch should collapse command xcalls, saw {writer_xcalls}"
            );
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(m.instance_count(), 1);
    }

    #[test]
    fn exactly_once_survives_batching_under_duplicated_delivery() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            m2.bootstrap(ctx).unwrap();
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            // Every host->DPU frame is delivered twice: the executor sees the
            // whole batch again and must replay cached replies, not re-run.
            m2.machine().fault_plane().set_fifo_dup(ctx.now(), PuId(0), PuId(1), 1.0);
            let replies = exec
                .call_batch(
                    ctx,
                    &[ExecutorCommand::Cfork { func: FuncId::new("img") }, ExecutorCommand::Ping],
                    SimDuration::from_millis(500),
                )
                .unwrap();
            assert!(matches!(replies[0], ExecutorReply::Started { .. }));
            m2.machine().fault_plane().set_fifo_dup(ctx.now(), PuId(0), PuId(1), 0.0);
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(m.instance_count(), 1, "the duplicated Cfork must not start a second instance");
        assert!(m.cluster().stats().duplicated_messages >= 1, "the fault actually fired");
    }

    #[test]
    fn retire_round_trips_through_the_executor() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            let (instance, _) = exec.cfork(ctx, &"img".into(), TIMEOUT).unwrap();
            assert_eq!(m2.instance_count(), 1);
            let reply =
                exec.call(ctx, ExecutorCommand::Retire { instance: instance.0 }, TIMEOUT).unwrap();
            assert_eq!(reply, ExecutorReply::Retired);
            assert_eq!(m2.instance_count(), 0);
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn unkeyed_command_frames_are_dropped_unanswered() {
        let m = molecule();
        let mut sim = Simulation::new();
        let m2 = m.clone();
        sim.spawn("manager", move |ctx| {
            m2.prepare_template(ctx, PuId(1), LangRuntime::Python).unwrap();
            let exec = launch_executor(&m2, ctx, PuId(1)).unwrap();
            let cfork = ExecutorCommand::Cfork { func: FuncId::new("img") };
            exec.command_writer.write(ctx, unkeyed_frame(&cfork)).unwrap();
            // Long enough for the frame to arrive, be served and answered.
            ctx.sleep(SimDuration::from_millis(500));
            assert_eq!(m2.instance_count(), 0, "an unkeyed Cfork started an instance");
            assert_eq!(exec.reply_fifo.pending(), 0, "an unkeyed command was answered");
            assert_eq!(
                exec.call(ctx, ExecutorCommand::Ping, TIMEOUT).unwrap(),
                ExecutorReply::Pong
            );
            exec.shutdown(ctx, TIMEOUT).unwrap();
        });
        sim.run().unwrap();
    }
}
