//! XPU-FIFO handles (paper §3.3).
//!
//! An XPU-FIFO is a FIFO with a *globally unique* UUID: any process on any
//! PU that holds the right capability can connect and write to it, while the
//! owner reads from it locally. Same-PU writes cost a local FIFO hop;
//! cross-PU writes go through an XPUcall plus the interconnect (nIPC).

use std::fmt;

use bytes::Bytes;
use hetsim::engine::{ProcCtx, RecvError, RecvTimeoutError, SimReceiver, TryRecvError};
use hetsim::time::SimDuration;
use telemetry::SpanContext;

use crate::cluster::ShimCluster;
use crate::error::ShimError;
use crate::id::{GlobalUuid, ObjId, XpuPid};
use crate::segment::SegDescriptor;

/// What a FIFO message carries: the payload inline, or — for large writes on
/// the zero-copy path — a capability-guarded descriptor pointing at a
/// shared-segment slot the reader's shim resolves on consumption.
#[derive(Debug, Clone)]
pub(crate) enum FifoPayload {
    Inline(Bytes),
    Descriptor(SegDescriptor),
}

/// The unit travelling through an XPU-FIFO: the payload plus the telemetry
/// span context piggybacked on every nIPC message, so a trace follows the
/// request across PUs.
#[derive(Debug, Clone)]
pub(crate) struct FifoMsg {
    pub payload: FifoPayload,
    pub span: Option<SpanContext>,
}

/// Reading end of an XPU-FIFO, held by the process that called `xfifo_init`.
pub struct XpuFifoReader {
    pub(crate) cluster: ShimCluster,
    pub(crate) uuid: GlobalUuid,
    pub(crate) obj: ObjId,
    pub(crate) owner: XpuPid,
    pub(crate) rx: SimReceiver<FifoMsg>,
}

impl fmt::Debug for XpuFifoReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XpuFifoReader")
            .field("uuid", &self.uuid)
            .field("obj", &self.obj)
            .field("owner", &self.owner)
            .finish()
    }
}

impl XpuFifoReader {
    /// The FIFO's global UUID.
    pub fn uuid(&self) -> &GlobalUuid {
        &self.uuid
    }

    /// The distributed object backing this FIFO (grant capabilities on it).
    pub fn obj(&self) -> ObjId {
        self.obj
    }

    /// `xfifo_read`: blocks until a message arrives.
    ///
    /// A message carrying a piggybacked span context adopts it as the
    /// reader's ambient trace context, continuing the sender's trace.
    ///
    /// # Errors
    ///
    /// [`ShimError::FifoClosed`] when every writer is gone and the queue is
    /// drained.
    pub fn read(&self, ctx: &mut ProcCtx) -> Result<Bytes, ShimError> {
        match self.rx.recv(ctx) {
            Ok(msg) => self.finish_read(ctx, msg),
            Err(RecvError::Disconnected) => Err(ShimError::FifoClosed),
        }
    }

    /// `xfifo_read` with a virtual-time deadline.
    ///
    /// # Errors
    ///
    /// [`ShimError::FifoTimeout`] on expiry, [`ShimError::FifoClosed`] when
    /// every writer is gone.
    pub fn read_timeout(
        &self,
        ctx: &mut ProcCtx,
        timeout: SimDuration,
    ) -> Result<Bytes, ShimError> {
        match self.rx.recv_timeout(ctx, timeout) {
            Ok(msg) => self.finish_read(ctx, msg),
            Err(RecvTimeoutError::Timeout) => Err(ShimError::FifoTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ShimError::FifoClosed),
        }
    }

    /// Non-blocking `xfifo_read`: returns immediately.
    ///
    /// # Errors
    ///
    /// [`ShimError::WouldBlock`] when nothing is queued (the FIFO is still
    /// open — retry later), [`ShimError::FifoClosed`] when every writer is
    /// gone and the queue is drained.
    pub fn try_read(&self, ctx: &mut ProcCtx) -> Result<Bytes, ShimError> {
        match self.rx.try_recv() {
            Ok(msg) => self.finish_read(ctx, msg),
            Err(TryRecvError::Empty) => Err(ShimError::WouldBlock),
            Err(TryRecvError::Disconnected) => Err(ShimError::FifoClosed),
        }
    }

    fn finish_read(&self, ctx: &mut ProcCtx, msg: FifoMsg) -> Result<Bytes, ShimError> {
        ctx.sleep(self.cluster.os_costs_of(self.owner.pu).syscall);
        let payload = match msg.payload {
            FifoPayload::Inline(bytes) => bytes,
            // Zero-copy hand-off: the message carried a descriptor; attach
            // the shared-segment slot (cheaper than an ipc_segment delivery)
            // and consume it. A forged or replayed descriptor fails here.
            FifoPayload::Descriptor(desc) => {
                ctx.sleep(self.cluster.segment_costs().map);
                self.cluster.resolve_descriptor(&self.uuid, &desc)?
            }
        };
        if msg.span.is_some() {
            ctx.set_trace_ctx(msg.span);
        }
        telemetry::with(|r| {
            r.instant(
                self.owner.pu.0,
                ctx.now().as_nanos(),
                &format!("xfifo-read {}", self.uuid),
                msg.span,
            );
        });
        Ok(payload)
    }

    /// `xfifo_close` from the owner side: destroys the FIFO object.
    ///
    /// Resources are revoked immediately; the UUID reclamation is
    /// synchronized *lazily* to other PUs (batched — §5 "Lazy
    /// synchronization").
    ///
    /// # Errors
    ///
    /// [`ShimError::UnknownUuid`] if the FIFO was already closed.
    pub fn close(self, ctx: &mut ProcCtx) -> Result<(), ShimError> {
        self.cluster.close_fifo(ctx, &self.uuid, self.owner)
    }

    /// Number of buffered messages.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

/// Writing end of an XPU-FIFO, obtained via `xfifo_connect`.
#[derive(Clone)]
pub struct XpuFifoWriter {
    pub(crate) cluster: ShimCluster,
    pub(crate) uuid: GlobalUuid,
    pub(crate) obj: ObjId,
    /// The connected (writing) process.
    pub(crate) connected_as: XpuPid,
    /// The PU where the FIFO (and its reader) lives.
    pub(crate) owner_pu: hetsim::pu::PuId,
}

impl fmt::Debug for XpuFifoWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XpuFifoWriter")
            .field("uuid", &self.uuid)
            .field("connected_as", &self.connected_as)
            .field("owner_pu", &self.owner_pu)
            .finish()
    }
}

impl XpuFifoWriter {
    /// The FIFO's global UUID.
    pub fn uuid(&self) -> &GlobalUuid {
        &self.uuid
    }

    /// The distributed object backing this FIFO.
    pub fn obj(&self) -> ObjId {
        self.obj
    }

    /// `xfifo_write`: sends `payload` into the FIFO.
    ///
    /// Same-PU writes cost one local FIFO hop; cross-PU writes cost an
    /// XPUcall on the writer's PU plus the interconnect transfer and the
    /// remote shim's delivery (this is nIPC, Fig. 4). Permissions are
    /// re-checked on every write so revocation takes effect immediately.
    ///
    /// # Errors
    ///
    /// [`ShimError::Cap`] on permission failure, [`ShimError::FifoClosed`]
    /// if the FIFO's reader is gone.
    pub fn write(&self, ctx: &mut ProcCtx, payload: Bytes) -> Result<(), ShimError> {
        self.cluster.write_fifo(ctx, self, payload)
    }

    /// `xfifo_write` with exponential backoff.
    ///
    /// Retryable failures (xcall timeouts from a hung or partitioned peer)
    /// are retried up to [`RETRY_MAX_ATTEMPTS`] times in all, with a 50 µs
    /// backoff that doubles after each retry. Delivery stays
    /// fire-and-forget: `Ok` means sent, not arrived, and re-sending the
    /// same payload is always allowed — so the protocol is at-least-once.
    /// Callers that need exactly-once embed an idempotency key (from
    /// [`ShimCluster::fresh_idempotency_key`]) in the payload and let the
    /// receiver dedup on it.
    ///
    /// [`RETRY_MAX_ATTEMPTS`]: crate::cluster::RETRY_MAX_ATTEMPTS
    /// [`ShimCluster::fresh_idempotency_key`]: crate::cluster::ShimCluster::fresh_idempotency_key
    ///
    /// # Errors
    ///
    /// [`ShimError::PeerDead`] (not retried — fail over instead), or the
    /// last retryable error once attempts are exhausted.
    pub fn write_with_retry(&self, ctx: &mut ProcCtx, payload: Bytes) -> Result<(), ShimError> {
        self.cluster.write_fifo_retrying(ctx, self, payload)
    }
}
