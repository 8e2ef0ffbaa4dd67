//! Per-PU event buffers and the deterministic merge.
//!
//! Each PU (and the engine itself, [`crate::ENGINE_LANE`]) records into its
//! own lane: a `Vec` of events plus a per-lane sequence counter. Because
//! the simulation engine resumes exactly one process at a time, the
//! `(virtual time, lane, sequence)` triple totally orders every event the
//! same way on every run — [`Recorder::events`] merges the lanes by that
//! key, so the merged trace is bit-for-bit reproducible.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::flight::FlightRecorder;
use crate::{SpanContext, SpanId};

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span whose start and end were both known when it was recorded
    /// (`t_ns` is the start; `dur_ns` the virtual-time extent).
    Span {
        /// The span's context.
        ctx: SpanContext,
        /// The span that caused it, if any.
        parent: Option<SpanId>,
        /// Virtual-time extent in nanoseconds.
        dur_ns: u64,
    },
    /// An open-ended span start (paired with [`EventKind::End`] by span id).
    Begin {
        /// The span's context.
        ctx: SpanContext,
        /// The span that caused it, if any.
        parent: Option<SpanId>,
    },
    /// Closes a span opened by [`EventKind::Begin`].
    End {
        /// The context of the span being closed.
        ctx: SpanContext,
    },
    /// A point event (a message send, a wake-up, an admission decision).
    Instant {
        /// The context the event happened under, if known.
        ctx: Option<SpanContext>,
    },
}

/// One recorded telemetry event on one PU lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event (start time for spans), in nanoseconds.
    pub t_ns: u64,
    /// The PU lane the event was recorded on.
    pub pu: u16,
    /// Per-lane sequence number (assigned at record time; tie-breaker).
    pub seq: u64,
    /// Event name (e.g. `"exec:resize"`, `"xpucall"`, `"dispatch"`).
    pub name: String,
    /// Payload.
    pub kind: EventKind,
}

#[derive(Default)]
struct Lane {
    seq: u64,
    events: Vec<Event>,
}

#[derive(Default)]
struct Inner {
    lanes: BTreeMap<u16, Lane>,
    lane_names: BTreeMap<u16, String>,
}

/// Collects events from every PU into per-lane buffers and merges them
/// deterministically. See the [module docs](self).
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
    flight: FlightRecorder,
}

impl Recorder {
    /// An empty recorder with the default flight-ring capacity.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// An empty recorder whose flight ring keeps the last `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Recorder {
        Recorder { inner: Mutex::default(), flight: FlightRecorder::with_capacity(capacity) }
    }

    /// The flight-recorder ring that rides along with this recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Names lane `pu` for exporters (e.g. `"cpu0"`, `"dpu1"`, `"fpga2"`).
    pub fn set_lane_name(&self, pu: u16, name: impl Into<String>) {
        self.lock().lane_names.insert(pu, name.into());
    }

    /// Records a completed span and returns its freshly allocated context
    /// (a child of `parent` when given, a new root trace otherwise).
    pub fn complete_span(
        &self,
        pu: u16,
        t0_ns: u64,
        t1_ns: u64,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanContext {
        let ctx = parent.map_or_else(SpanContext::root, |p| p.child());
        let kind = EventKind::Span {
            ctx,
            parent: parent.map(|p| p.span),
            dur_ns: t1_ns.saturating_sub(t0_ns),
        };
        self.push(pu, t0_ns, name, kind);
        ctx
    }

    /// Opens a span (close it with [`end_span`](Self::end_span)).
    pub fn begin_span(
        &self,
        pu: u16,
        t_ns: u64,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanContext {
        let ctx = parent.map_or_else(SpanContext::root, |p| p.child());
        self.push(pu, t_ns, name, EventKind::Begin { ctx, parent: parent.map(|p| p.span) });
        ctx
    }

    /// Closes a span previously opened with [`begin_span`](Self::begin_span).
    pub fn end_span(&self, pu: u16, t_ns: u64, ctx: SpanContext) {
        self.push(pu, t_ns, "", EventKind::End { ctx });
    }

    /// Records a point event.
    pub fn instant(&self, pu: u16, t_ns: u64, name: &str, ctx: Option<SpanContext>) {
        self.push(pu, t_ns, name, EventKind::Instant { ctx });
    }

    fn push(&self, pu: u16, t_ns: u64, name: &str, kind: EventKind) {
        self.flight.note_event(t_ns, pu, name, &kind);
        let mut inner = self.lock();
        let lane = inner.lanes.entry(pu).or_default();
        let seq = lane.seq;
        lane.seq += 1;
        lane.events.push(Event { t_ns, pu, seq, name: name.to_owned(), kind });
    }

    /// All events, merged across lanes and ordered by
    /// `(virtual time, lane, per-lane sequence)` — deterministic for a
    /// deterministic simulation.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.lock();
        let mut all: Vec<Event> =
            inner.lanes.values().flat_map(|lane| lane.events.iter().cloned()).collect();
        all.sort_by_key(|e| (e.t_ns, e.pu, e.seq));
        all
    }

    /// The lanes that recorded at least one event, in lane order.
    pub fn lanes(&self) -> Vec<u16> {
        self.lock().lanes.keys().copied().collect()
    }

    /// Exporter names for lanes (see [`set_lane_name`](Self::set_lane_name)).
    pub fn lane_names(&self) -> BTreeMap<u16, String> {
        self.lock().lane_names.clone()
    }

    /// Renders the merged trace as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        crate::chrome::trace_json(&self.events(), &self.lane_names())
    }

    /// Writes the Chrome trace to `path` (open with `chrome://tracing` or
    /// <https://ui.perfetto.dev>).
    pub fn export_chrome_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }

    /// Drops every recorded event and lane (the flight ring stays).
    pub fn clear(&self) {
        self.lock().lanes.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_lane_then_seq() {
        let r = Recorder::new();
        r.instant(1, 50, "b", None);
        r.instant(0, 50, "a", None);
        r.instant(0, 10, "first", None);
        r.instant(0, 50, "c", None);
        let names: Vec<_> = r.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["first", "a", "c", "b"]);
    }

    #[test]
    fn complete_span_parents_correctly() {
        let r = Recorder::new();
        let root = r.complete_span(0, 0, 100, "root", None);
        let child = r.complete_span(1, 10, 20, "child", Some(root));
        assert_eq!(child.trace, root.trace);
        let events = r.events();
        match events[1].kind {
            EventKind::Span { parent, .. } => assert_eq!(parent, Some(root.span)),
            ref other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn begin_end_share_a_context() {
        let r = Recorder::new();
        let ctx = r.begin_span(2, 5, "proc", None);
        r.end_span(2, 50, ctx);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::Begin { ctx: c, .. } if c == ctx));
        assert!(matches!(events[1].kind, EventKind::End { ctx: c } if c == ctx));
    }

    #[test]
    fn lanes_and_names() {
        let r = Recorder::new();
        r.set_lane_name(0, "cpu0");
        r.instant(0, 0, "x", None);
        r.instant(3, 0, "y", None);
        assert_eq!(r.lanes(), vec![0, 3]);
        assert_eq!(r.lane_names().get(&0).map(String::as_str), Some("cpu0"));
    }

    #[test]
    fn events_feed_the_flight_ring() {
        let r = Recorder::with_flight_capacity(2);
        r.instant(0, 1, "one", None);
        r.instant(0, 2, "two", None);
        r.instant(0, 3, "three", None);
        let dump = r.flight().dump();
        assert!(!dump.contains("one"), "oldest event should have been evicted:\n{dump}");
        assert!(dump.contains("two") && dump.contains("three"));
    }
}
