//! Cross-PU observability for the Molecule reproduction.
//!
//! Molecule's core claim is that serverless abstractions can span
//! heterogeneous PUs (CPUs, DPUs, FPGAs) behind one OS-like interface; this
//! crate makes that visible. It provides, in virtual time:
//!
//! * **Distributed tracing** — [`TraceId`]/[`SpanId`] contexts that
//!   piggyback on XPUcall requests, nIPC FIFO messages and xSpawn capability
//!   vectors, so a single request is one trace even as it hops CPU → DPU →
//!   FPGA. Each PU records into its own lane buffer; [`Recorder::events`]
//!   merges the lanes deterministically by `(virtual time, lane, sequence)`.
//! * **Exporters** — Chrome `trace_event` JSON (one lane per PU, see
//!   [`chrome`]) and the machine-readable bench summaries every figure
//!   binary writes as `BENCH_<figure>.json` (see [`bench`](mod@bench)).
//! * **A flight recorder** — a bounded ring of recent structured events,
//!   dumped on test failure or executor crash (see [`flight`]).
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! times are plain `u64` nanoseconds of virtual time and PUs are `u16`
//! lane ids, so every layer of the stack (including `hetsim` itself) can
//! depend on it without cycles.
//!
//! # Recording
//!
//! Instrumentation points never talk to a recorder directly; they go
//! through the process-global slot:
//!
//! ```
//! let recorder = molecule_telemetry::install_default();
//! molecule_telemetry::with(|r| {
//!     let ctx = r.complete_span(0, 100, 250, "exec", None);
//!     r.instant(1, 250, "fifo-write", Some(ctx));
//! });
//! let events = recorder.events();
//! assert_eq!(events.len(), 2);
//! molecule_telemetry::uninstall();
//! ```
//!
//! When no recorder is installed (the default), [`with`] is a single
//! relaxed atomic load and the closure never runs: the disabled hot path
//! performs **no allocation and no locking**, and — because recording never
//! sleeps or schedules — virtual-time results are identical either way.

#![forbid(unsafe_code)]

pub mod bench;
pub mod chrome;
pub mod flight;
mod json;
pub mod recorder;

pub use bench::BenchSummary;
pub use flight::{FlightEvent, FlightRecorder};
pub use recorder::{Event, EventKind, Recorder};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Lane id used for events recorded by the simulation engine itself rather
/// than any particular PU (scheduler wake-ups, dispatches).
pub const ENGINE_LANE: u16 = u16::MAX;

/// Identifier of one distributed trace (one end-to-end request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// Allocates a fresh, process-unique trace id.
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }
}

impl SpanId {
    /// Allocates a fresh, process-unique span id.
    pub fn next() -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:08x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:08x}", self.0)
    }
}

/// The propagated half of a trace: which trace a message belongs to and
/// which span caused it.
///
/// `SpanContext` is `Copy` and 16 bytes, cheap enough to piggyback on every
/// XPUcall, FIFO message and xSpawn capability vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span that produced it.
    pub span: SpanId,
}

impl SpanContext {
    /// Starts a new trace with a fresh root span.
    pub fn root() -> SpanContext {
        SpanContext { trace: TraceId::next(), span: SpanId::next() }
    }

    /// A child context in the same trace with a fresh span id.
    pub fn child(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: SpanId::next() }
    }

    /// Wire encoding for byte-level protocols (16 little-endian bytes).
    pub fn to_wire(&self) -> [u8; 16] {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&self.trace.0.to_le_bytes());
        buf[8..].copy_from_slice(&self.span.0.to_le_bytes());
        buf
    }

    /// Decodes a context produced by [`to_wire`](Self::to_wire).
    /// Returns `None` on short input or an all-zero (absent) context.
    pub fn from_wire(bytes: &[u8]) -> Option<SpanContext> {
        if bytes.len() < 16 {
            return None;
        }
        let trace = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let span = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        if trace == 0 {
            return None;
        }
        Some(SpanContext { trace: TraceId(trace), span: SpanId(span) })
    }
}

impl fmt::Display for SpanContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.trace, self.span)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-global recorder and enables recording.
pub fn install(recorder: Arc<Recorder>) {
    *GLOBAL.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Creates a fresh [`Recorder`], installs it globally, and returns it.
pub fn install_default() -> Arc<Recorder> {
    let recorder = Arc::new(Recorder::new());
    install(Arc::clone(&recorder));
    recorder
}

/// Disables recording and drops the global recorder (any [`Arc`] handles
/// returned by [`install_default`] keep the recorded data alive).
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *GLOBAL.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// True if a global recorder is installed and enabled.
///
/// The engine checks this before it formats its per-event "wake"/"dispatch"
/// lane instants, so the disabled path is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the global recorder, or does nothing when disabled.
///
/// This is the only entry point instrumentation sites use. Disabled, it is
/// one relaxed atomic load: the closure (and any formatting inside it) is
/// never evaluated, keeping the hot path allocation-free.
#[inline]
pub fn with<F: FnOnce(&Recorder)>(f: F) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let guard = GLOBAL.read().unwrap_or_else(|e| e.into_inner());
    if let Some(recorder) = guard.as_deref() {
        f(recorder);
    }
}

/// Records a completed span on lane `pu`; returns its context when enabled.
#[inline]
pub fn span(
    pu: u16,
    t0_ns: u64,
    t1_ns: u64,
    name: &str,
    parent: Option<SpanContext>,
) -> Option<SpanContext> {
    let mut out = None;
    with(|r| out = Some(r.complete_span(pu, t0_ns, t1_ns, name, parent)));
    out
}

/// Records an instantaneous event on lane `pu` (no-op when disabled).
#[inline]
pub fn instant(pu: u16, t_ns: u64, name: &str, ctx: Option<SpanContext>) {
    with(|r| r.instant(pu, t_ns, name, ctx));
}

/// Dumps the flight-recorder ring, if a recorder is installed.
pub fn flight_dump() -> Option<String> {
    let mut out = None;
    with(|r| out = Some(r.flight().dump()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert!(b.0 > a.0);
        let s1 = SpanId::next();
        let s2 = SpanId::next();
        assert_ne!(s1, s2);
    }

    #[test]
    fn child_keeps_the_trace() {
        let root = SpanContext::root();
        let child = root.child();
        assert_eq!(child.trace, root.trace);
        assert_ne!(child.span, root.span);
    }

    #[test]
    fn wire_roundtrip() {
        let ctx = SpanContext::root();
        let wire = ctx.to_wire();
        assert_eq!(SpanContext::from_wire(&wire), Some(ctx));
        assert_eq!(SpanContext::from_wire(&wire[..8]), None);
        assert_eq!(SpanContext::from_wire(&[0u8; 16]), None);
    }

    #[test]
    fn disabled_with_never_runs_the_closure() {
        // The global is process-wide; this test must not observe an install
        // from a concurrent test, so it only asserts the closure is skipped
        // while we know nothing is installed.
        if !enabled() {
            let mut ran = false;
            with(|_| ran = true);
            assert!(!ran);
        }
    }

    #[test]
    fn display_formats() {
        let ctx = SpanContext { trace: TraceId(0x2a), span: SpanId(7) };
        assert_eq!(ctx.to_string(), "t0000002a/s00000007");
    }
}
