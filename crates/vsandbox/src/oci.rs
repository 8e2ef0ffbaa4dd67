//! The OCI runtime abstraction (paper Table 3, upper half) and its
//! vectorized extension (lower half).
//!
//! Five verbs — `state`, `create`, `start`, `kill`, `delete` — are enough to
//! abstract containers, gVisor, Kata and microVMs. The *vectorized* forms
//! extend them for accelerators: `create vector<sandbox, func-id>` packs many
//! sandboxes into one FPGA image, `start vector<...>` runs them concurrently,
//! and `delete` becomes lazy.

use core::fmt;

use hetsim::engine::ProcCtx;

use crate::spec::{SandboxConfig, SandboxId, SandboxState, Signal};

/// Runs one OCI verb under a telemetry span on the calling process's lane.
///
/// Every runtime (`runc`/`runf`/`rung`) funnels its five verbs through this,
/// so traces show each sandbox transition. Free when telemetry is disabled.
pub(crate) fn verb_span<T>(
    ctx: &mut ProcCtx,
    runtime: &'static str,
    verb: &'static str,
    id: &SandboxId,
    f: impl FnOnce(&mut ProcCtx) -> Result<T, SandboxError>,
) -> Result<T, SandboxError> {
    let t0 = ctx.now();
    let out = f(ctx);
    telemetry::with(|r| {
        r.complete_span(
            ctx.lane(),
            t0.as_nanos(),
            ctx.now().as_nanos(),
            &format!("{runtime}:{verb} {id}"),
            ctx.trace_ctx(),
        );
    });
    out
}

/// Like [`verb_span`], for the vectorized forms (span name carries the
/// vector length instead of a sandbox id).
pub(crate) fn vec_span<T>(
    ctx: &mut ProcCtx,
    verb: &'static str,
    n: usize,
    f: impl FnOnce(&mut ProcCtx) -> Result<T, SandboxError>,
) -> Result<T, SandboxError> {
    let t0 = ctx.now();
    let out = f(ctx);
    telemetry::with(|r| {
        r.complete_span(
            ctx.lane(),
            t0.as_nanos(),
            ctx.now().as_nanos(),
            &format!("oci:{verb}[{n}]"),
            ctx.trace_ctx(),
        );
    });
    out
}

/// Errors from sandbox runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum SandboxError {
    /// The sandbox id is unknown to this runtime.
    Unknown(SandboxId),
    /// A sandbox with this id already exists.
    AlreadyExists(SandboxId),
    /// The requested state transition is not allowed by the OCI lifecycle.
    InvalidTransition {
        /// The sandbox in question.
        id: SandboxId,
        /// Its current state.
        from: SandboxState,
        /// The attempted target state.
        to: SandboxState,
    },
    /// The underlying OS rejected the operation.
    Os(String),
    /// The underlying accelerator rejected the operation.
    Device(String),
    /// The runtime cannot host this configuration (e.g. an FPGA kernel given
    /// to `runc`).
    UnsupportedConfig(String),
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::Unknown(id) => write!(f, "unknown sandbox: {id}"),
            SandboxError::AlreadyExists(id) => write!(f, "sandbox already exists: {id}"),
            SandboxError::InvalidTransition { id, from, to } => {
                write!(f, "sandbox {id}: invalid transition {from} -> {to}")
            }
            SandboxError::Os(msg) => write!(f, "os error: {msg}"),
            SandboxError::Device(msg) => write!(f, "device error: {msg}"),
            SandboxError::UnsupportedConfig(msg) => write!(f, "unsupported config: {msg}"),
        }
    }
}

impl std::error::Error for SandboxError {}

impl From<hetsim::os::OsError> for SandboxError {
    fn from(e: hetsim::os::OsError) -> SandboxError {
        SandboxError::Os(e.to_string())
    }
}

impl From<hetsim::fpga::FpgaError> for SandboxError {
    fn from(e: hetsim::fpga::FpgaError) -> SandboxError {
        SandboxError::Device(e.to_string())
    }
}

impl From<hetsim::gpu::GpuError> for SandboxError {
    fn from(e: hetsim::gpu::GpuError) -> SandboxError {
        SandboxError::Device(e.to_string())
    }
}

/// The five OCI runtime verbs (paper Table 3, upper half).
///
/// Implementations: [`RuncRuntime`](crate::runc::RuncRuntime) for CPU/DPU
/// containers, [`RunfRuntime`](crate::runf::RunfRuntime) for FPGAs and
/// [`RungRuntime`](crate::rung::RungRuntime) for GPUs.
pub trait OciRuntime {
    /// `state <sandbox-id>` — queries a sandbox's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] for ids this runtime never created.
    fn state(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<SandboxState, SandboxError>;

    /// `create <sandbox-id> <func-id>` — creates a sandbox for `config`.
    ///
    /// # Errors
    ///
    /// [`SandboxError::AlreadyExists`] on id reuse, plus runtime-specific
    /// resource errors.
    fn create(
        &self,
        ctx: &mut ProcCtx,
        id: &SandboxId,
        config: &SandboxConfig,
    ) -> Result<(), SandboxError>;

    /// `start <sandbox-id>` — makes a created sandbox runnable.
    ///
    /// # Errors
    ///
    /// [`SandboxError::InvalidTransition`] unless the sandbox is `Created`
    /// or `Stopped`.
    fn start(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError>;

    /// `kill <sandbox-id> <signal>` — delivers a signal.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] / [`SandboxError::InvalidTransition`].
    fn kill(&self, ctx: &mut ProcCtx, id: &SandboxId, signal: Signal) -> Result<(), SandboxError>;

    /// `delete <sandbox-id>` — removes the sandbox (lazily, for `runf`).
    ///
    /// # Errors
    ///
    /// [`SandboxError::Unknown`] / [`SandboxError::InvalidTransition`].
    fn delete(&self, ctx: &mut ProcCtx, id: &SandboxId) -> Result<(), SandboxError>;
}

/// The vectorized sandbox abstraction (paper Table 3, lower half).
///
/// Every method has a default implementation that loops over the scalar OCI
/// verbs — that is exactly how `runc` implements vectorization ("by always
/// passing one-sized vector", §5). `runf` overrides [`create_vec`] to pack
/// all sandboxes into one FPGA image.
///
/// [`create_vec`]: VectorizedRuntime::create_vec
pub trait VectorizedRuntime: OciRuntime {
    /// `state vector<sandbox-id>`.
    ///
    /// # Errors
    ///
    /// Fails on the first id whose scalar `state` fails.
    fn state_vec(
        &self,
        ctx: &mut ProcCtx,
        ids: &[SandboxId],
    ) -> Result<Vec<SandboxState>, SandboxError> {
        vec_span(ctx, "state_vec", ids.len(), |ctx| {
            ids.iter().map(|id| self.state(ctx, id)).collect()
        })
    }

    /// `create vector<sandbox, func-id>`.
    ///
    /// # Errors
    ///
    /// Fails on the first entry whose scalar `create` fails.
    fn create_vec(
        &self,
        ctx: &mut ProcCtx,
        entries: &[(SandboxId, SandboxConfig)],
    ) -> Result<(), SandboxError> {
        vec_span(ctx, "create_vec", entries.len(), |ctx| {
            for (id, config) in entries {
                self.create(ctx, id, config)?;
            }
            Ok(())
        })
    }

    /// `start vector<sandbox-id>` — starts the sandboxes concurrently.
    ///
    /// # Errors
    ///
    /// Fails on the first id whose scalar `start` fails.
    fn start_vec(&self, ctx: &mut ProcCtx, ids: &[SandboxId]) -> Result<(), SandboxError> {
        vec_span(ctx, "start_vec", ids.len(), |ctx| {
            for id in ids {
                self.start(ctx, id)?;
            }
            Ok(())
        })
    }

    /// `kill vector<sandbox-id, signal>`.
    ///
    /// # Errors
    ///
    /// Fails on the first entry whose scalar `kill` fails.
    fn kill_vec(
        &self,
        ctx: &mut ProcCtx,
        entries: &[(SandboxId, Signal)],
    ) -> Result<(), SandboxError> {
        vec_span(ctx, "kill_vec", entries.len(), |ctx| {
            for (id, sig) in entries {
                self.kill(ctx, id, *sig)?;
            }
            Ok(())
        })
    }

    /// `delete vector<sandbox-id>`.
    ///
    /// # Errors
    ///
    /// Fails on the first id whose scalar `delete` fails.
    fn delete_vec(&self, ctx: &mut ProcCtx, ids: &[SandboxId]) -> Result<(), SandboxError> {
        vec_span(ctx, "delete_vec", ids.len(), |ctx| {
            for id in ids {
                self.delete(ctx, id)?;
            }
            Ok(())
        })
    }
}
