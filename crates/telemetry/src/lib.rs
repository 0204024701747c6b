//! `hyrd-telemetry`: virtual-clock tracing and metrics for the HyRD stack.
//!
//! The central type is [`Collector`] — a cheaply cloneable handle that is
//! either *disabled* (the default; every call is a no-op and allocates
//! nothing) or *enabled*, in which case it stamps structured spans and
//! events with a [`TelemetryClock`] and fans them out to sinks:
//!
//! * a JSONL trace writer ([`TraceWriter`]: one line per record, or per
//!   provider op, schema [`TRACE_SCHEMA_VERSION`]),
//! * an in-memory ring buffer for tests ([`Collector::ring_records`]),
//! * an aggregated flame-style summary ([`Collector::summary`]).
//!
//! Alongside the trace it keeps a [`Registry`] of counters, gauges and
//! bounded log₂ [`Histogram`]s.
//!
//! Determinism is a design invariant, not an accident: with a fixed seed
//! and the simulator's virtual clock, two identical runs emit
//! byte-identical traces (timestamps included), so CI can diff them.
//!
//! ```
//! use hyrd_telemetry::{Collector, ManualClock, SharedBuf};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(ManualClock::new());
//! let buf = SharedBuf::new();
//! let c = Collector::builder(clock.clone()).jsonl(buf.clone()).ring(64).build();
//!
//! let span = c.span("read_file");
//! clock.advance(1_000);
//! c.event("retry.backoff").field("delay_ns", 1_000u64).emit();
//! drop(span);
//! c.flush(); // the span end was held back, to see what followed it
//! assert!(buf.text().lines().count() == 4); // meta, start, event, end
//! ```

#![forbid(unsafe_code)]

mod hist;
pub mod json;
mod parse;
mod record;
mod registry;
mod summary;
mod writer;

pub use hist::{Histogram, HIST_BUCKETS};
pub use parse::{
    for_each_record, parse_document, parse_jsonl, parse_line, Document, LineParser, ParseError,
    Records,
};
pub use record::{
    Field, Fields, IntoValue, Record, RecordKind, RecordRef, TraceRecord, Value, ValueRef,
    TRACE_SCHEMA_VERSION,
};
pub use registry::{Counter, Gauge, HistogramSeries, HistogramSummary, MetricsSnapshot, Registry};
pub use summary::{fmt_ns, SlowSpan};
pub use writer::TraceWriter;

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use record::FieldBuf;
use registry::with_labeled;
use summary::{slow_span_order, SpanAgg, PATH_SEP};

/// Clock a collector stamps records with. Simulation code implements this
/// for its virtual clock; [`WallClock`] is provided for real-time use.
pub trait TelemetryClock: Send + Sync {
    fn now_nanos(&self) -> u64;
}

/// A hand-cranked clock for tests.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::SeqCst);
    }

    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::SeqCst);
    }
}

impl TelemetryClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

impl TelemetryClock for Arc<ManualClock> {
    fn now_nanos(&self) -> u64 {
        self.as_ref().now_nanos()
    }
}

/// Wall-clock time, anchored at construction. Traces stamped with this are
/// *not* reproducible; the simulator uses its virtual clock instead.
#[derive(Debug, Clone)]
pub struct WallClock(std::time::Instant);

impl WallClock {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        WallClock(std::time::Instant::now())
    }
}

impl TelemetryClock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Number of completed spans retained for [`Collector::slowest_spans`].
const SLOW_CAP: usize = 32;

/// Lock that shrugs off poisoning: telemetry must never turn a panicking
/// test into a deadlocked one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The span tree seen so far, one node per distinct flame path. A span
/// finds its node by walking from its parent's node to the child with its
/// name — an interned name id, so the walk compares integers — and opening
/// and closing spans on known paths formats and allocates nothing: a path
/// is rendered once, when its node is made.
#[derive(Default)]
struct Flame {
    /// Span names by id, and ids by name; a [`SpanName`] holds an id.
    names: Vec<Box<str>>,
    ids: BTreeMap<Box<str>, u32>,
    nodes: Vec<FlameNode>,
    /// `(name id, node)` of the roots.
    roots: Vec<(u32, usize)>,
}

struct FlameNode {
    /// Full flame path including ancestors, e.g. `read_file → ec.decode`.
    path: String,
    /// Where the span's own name starts in `path`.
    name_at: usize,
    /// `(name id, node)` of the children; a node has a handful.
    children: Vec<(u32, usize)>,
    /// Completed spans on this path.
    agg: SpanAgg,
}

impl FlameNode {
    fn name(&self) -> &str {
        &self.path[self.name_at..]
    }
}

impl Flame {
    /// The id of span name `name`, made on first sight.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 span names");
        self.names.push(name.into());
        self.ids.insert(name.into(), id);
        id
    }

    /// The node for a span with name id `name` under `parent` (`None`: a
    /// root).
    fn child(&mut self, parent: Option<usize>, name: u32) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&(_, node)) = siblings.iter().find(|&&(id, _)| id == name) {
            return node;
        }
        let leaf = &self.names[name as usize];
        let path = match parent {
            Some(p) => format!("{}{PATH_SEP}{leaf}", self.nodes[p].path),
            None => leaf.to_string(),
        };
        let node = self.nodes.len();
        self.nodes.push(FlameNode {
            name_at: path.len() - leaf.len(),
            path,
            children: Vec::new(),
            agg: SpanAgg::default(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push((name, node)),
            None => self.roots.push((name, node)),
        }
        node
    }
}

struct OpenSpan {
    id: u64,
    /// The span's node in [`Flame`].
    node: usize,
    start: u64,
}

/// A completed span in the slowest-spans ranking.
struct Slow {
    dur_ns: u64,
    start_ns: u64,
    node: usize,
}

struct Ring {
    cap: usize,
    buf: VecDeque<TraceRecord>,
}

/// Where records go. A record reaches every sink as the same borrowed
/// [`RecordRef`]; only the ring, which keeps records, makes an owned copy.
struct Sinks {
    jsonl: Option<TraceWriter<Box<dyn Write + Send>>>,
    ring: Option<Ring>,
    /// Online observer invoked with every record, in emission order and
    /// under the collector lock — the deterministic feed the availability
    /// observatory ingests without waiting for the JSONL trace.
    tap: Option<Tap>,
}

type Tap = Box<dyn FnMut(&RecordRef<'_>) + Send>;

impl Sinks {
    fn emit(&mut self, rec: &RecordRef<'_>) {
        if let Some(tap) = self.tap.as_mut() {
            tap(rec);
        }
        if let Some(w) = self.jsonl.as_mut() {
            w.write(rec);
        }
        if let Some(ring) = self.ring.as_mut() {
            if ring.buf.len() == ring.cap {
                ring.buf.pop_front();
            }
            ring.buf.push_back(rec.to_owned());
        }
    }
}

struct State {
    next_id: u64,
    sinks: Sinks,
    /// Open spans, innermost last (the instrumented request path is
    /// single-threaded; events attribute to the innermost open span).
    open: Vec<OpenSpan>,
    flame: Flame,
    /// The [`SLOW_CAP`] slowest completed spans, in [`slow_span_order`].
    slowest: Vec<Slow>,
    spans_ended: u64,
}

struct Inner {
    clock: Box<dyn TelemetryClock>,
    state: Mutex<State>,
    registry: Registry,
}

/// Telemetry handle. `Collector::default()` / [`Collector::disabled`] is
/// the no-op collector: every method returns immediately without touching a
/// lock or allocating, so instrumentation can stay unconditionally in place
/// on hot paths.
///
/// An enabled collector allocates only for what it has not seen before — a
/// new span path, a new metric series, a record with more fields than a
/// builder holds inline — and for what a sink keeps (the ring's owned
/// records, the JSONL writer's own buffering). Emitting on known paths
/// with a JSONL sink and a tap attached allocates nothing.
#[derive(Clone, Default)]
pub struct Collector(Option<Arc<Inner>>);

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("enabled", &self.enabled()).finish()
    }
}

impl Collector {
    /// The no-op collector.
    pub fn disabled() -> Self {
        Collector(None)
    }

    /// Start building an enabled collector stamping records with `clock`.
    pub fn builder(clock: impl TelemetryClock + 'static) -> CollectorBuilder {
        CollectorBuilder {
            clock: Box::new(clock),
            clock_label: "virtual",
            jsonl: None,
            ring: None,
            tap: None,
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span. Close it by dropping the guard (or calling
    /// [`SpanGuard::end`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.start_span(Named::Text(name), &[])
    }

    /// Open a span named `name[label]` — the conventional shape for
    /// per-provider phases, e.g. `fetch_fragment[aliyun]`. A call site
    /// that opens the same one again and again resolves it once with
    /// [`Collector::span_name`].
    pub fn span_labeled(&self, name: &str, label: impl Display) -> SpanGuard {
        if self.0.is_none() {
            return SpanGuard::inert();
        }
        with_labeled(name, label, |full| self.start_span(Named::Text(full), &[]))
    }

    /// The span name `name[label]`, resolved once: [`SpanName::start`]
    /// then opens the span [`Collector::span_labeled`] would, rendering
    /// and looking up nothing. Inert on a disabled collector.
    pub fn span_name(&self, name: &str, label: impl Display) -> SpanName {
        match &self.0 {
            None => SpanName::default(),
            Some(i) => {
                let id = with_labeled(name, label, |full| lock(&i.state).flame.intern(full));
                SpanName { collector: self.clone(), id }
            }
        }
    }

    /// Span builder, for attaching fields to the start record.
    #[inline]
    pub fn span_with<'a>(&'a self, name: &'a str) -> SpanBuilder<'a> {
        SpanBuilder(self.pending(name))
    }

    /// Point event, attributed to the innermost open span.
    #[inline]
    pub fn event<'a>(&'a self, name: &'a str) -> EventBuilder<'a> {
        EventBuilder(self.pending(name))
    }

    #[inline]
    fn pending<'a>(&'a self, name: &'a str) -> Pending<'a> {
        Pending { collector: self, name, fields: self.0.as_ref().map(|_| FieldBuf::default()) }
    }

    /// Increment counter `name`.
    #[inline]
    pub fn inc(&self, name: &str, by: u64) {
        if let Some(i) = &self.0 {
            i.registry.inc(name, by);
        }
    }

    /// Increment counter `name[label]`.
    pub fn inc_labeled(&self, name: &str, label: impl Display, by: u64) {
        if let Some(i) = &self.0 {
            with_labeled(name, label, |series| i.registry.inc(series, by));
        }
    }

    /// Record `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(i) = &self.0 {
            i.registry.observe(name, v);
        }
    }

    /// Record `v` into histogram `name[label]`.
    pub fn observe_labeled(&self, name: &str, label: impl Display, v: u64) {
        if let Some(i) = &self.0 {
            with_labeled(name, label, |series| i.registry.observe(series, v));
        }
    }

    pub fn set_gauge(&self, name: &str, v: i64) {
        if let Some(i) = &self.0 {
            i.registry.set_gauge(name, v);
        }
    }

    /// Set gauge `name[label]`.
    pub fn set_gauge_labeled(&self, name: &str, label: impl Display, v: i64) {
        if let Some(i) = &self.0 {
            with_labeled(name, label, |series| i.registry.set_gauge(series, v));
        }
    }

    /// The handle of counter `name[label]`, resolved once for a call site
    /// that updates it again and again: [`Counter::inc`] is
    /// [`Collector::inc_labeled`] without the name. Inert when disabled.
    pub fn counter_series(&self, name: &str, label: impl Display) -> Counter {
        self.0.as_ref().map_or_else(Counter::default, |i| {
            with_labeled(name, label, |series| i.registry.counter_series(series))
        })
    }

    /// The handle of histogram `name[label]` (see [`Self::counter_series`]).
    pub fn histogram_series(&self, name: &str, label: impl Display) -> HistogramSeries {
        self.0.as_ref().map_or_else(HistogramSeries::default, |i| {
            with_labeled(name, label, |series| i.registry.histogram_series(series))
        })
    }

    /// The handle of gauge `name[label]` (see [`Self::counter_series`]).
    pub fn gauge_series(&self, name: &str, label: impl Display) -> Gauge {
        self.0.as_ref().map_or_else(Gauge::default, |i| {
            with_labeled(name, label, |series| i.registry.gauge_series(series))
        })
    }

    /// Counter value (0 when disabled or never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.as_ref().map_or(0, |i| i.registry.counter(name))
    }

    /// Clone of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.0.as_ref().and_then(|i| i.registry.histogram(name))
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.0.as_ref().map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// Contents of the ring-buffer sink, oldest first (empty when disabled
    /// or no ring was configured).
    pub fn ring_records(&self) -> Vec<TraceRecord> {
        match &self.0 {
            None => Vec::new(),
            Some(i) => {
                let state = lock(&i.state);
                state.sinks.ring.as_ref().map_or_else(Vec::new, |r| r.buf.iter().cloned().collect())
            }
        }
    }

    /// The `k` slowest completed spans (deterministic order; at most
    /// `SLOW_CAP` retained).
    pub fn slowest_spans(&self, k: usize) -> Vec<SlowSpan> {
        match &self.0 {
            None => Vec::new(),
            Some(i) => {
                let state = lock(&i.state);
                let slow_span = |s: &Slow| SlowSpan {
                    path: state.flame.nodes[s.node].path.clone(),
                    dur_ns: s.dur_ns,
                    start_ns: s.start_ns,
                };
                state.slowest.iter().take(k).map(slow_span).collect()
            }
        }
    }

    /// Render the flame-style summary of where (trace-clock) time went.
    pub fn summary(&self) -> String {
        match &self.0 {
            None => String::new(),
            Some(i) => {
                let snapshot = i.registry.snapshot();
                let state = lock(&i.state);
                // Keyed by rendered path: two nodes can render alike when a
                // span name itself contains the separator.
                let mut agg: BTreeMap<String, SpanAgg> = BTreeMap::new();
                for node in state.flame.nodes.iter().filter(|n| n.agg.count > 0) {
                    let a = agg.entry(node.path.clone()).or_default();
                    a.count += node.agg.count;
                    a.total_ns += node.agg.total_ns;
                }
                summary::render(&agg, state.spans_ended, &snapshot)
            }
        }
    }

    /// Flush the JSONL sink, writing first the records the writer holds
    /// back to see whether the next one shares their line.
    pub fn flush(&self) {
        if let Some(i) = &self.0 {
            let mut state = lock(&i.state);
            if let Some(w) = state.sinks.jsonl.as_mut() {
                let _ = w.flush();
            }
        }
    }

    /// Current trace-clock reading, when enabled. Lets instrumented code
    /// measure durations on the same clock records are stamped with.
    pub fn now_nanos(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.clock.now_nanos())
    }

    fn start_span(&self, name: Named<'_>, fields: &[Field<'_>]) -> SpanGuard {
        let inner = match &self.0 {
            None => return SpanGuard::inert(),
            Some(i) => i,
        };
        let t = inner.clock.now_nanos();
        let mut state = lock(&inner.state);
        let state = &mut *state;
        state.next_id += 1;
        let id = state.next_id;
        let name = match name {
            Named::Text(text) => state.flame.intern(text),
            Named::Id(name) => name,
        };
        let parent = state.open.last();
        let node = state.flame.child(parent.map(|p| p.node), name);
        let parent = parent.map(|p| p.id);
        state.open.push(OpenSpan { id, node, start: t });
        let name = &state.flame.names[name as usize];
        state.sinks.emit(&RecordRef::SpanStart { id, parent, name, t, fields });
        SpanGuard { collector: self.clone(), id }
    }

    fn end_span(&self, id: u64) {
        let inner = match &self.0 {
            None => return,
            Some(i) => i,
        };
        let t = inner.clock.now_nanos();
        let mut state = lock(&inner.state);
        let state = &mut *state;
        // Normally LIFO; search by id to stay correct if guards are dropped
        // out of order.
        let span = match state.open.iter().rposition(|s| s.id == id) {
            None => return, // already ended explicitly
            Some(at) => state.open.remove(at),
        };
        let dur_ns = t.saturating_sub(span.start);
        let nodes = &mut state.flame.nodes;
        nodes[span.node].agg.count += 1;
        nodes[span.node].agg.total_ns += dur_ns;
        state.spans_ended += 1;

        let key = |s: &Slow| (s.dur_ns, s.start_ns, nodes[s.node].path.as_str());
        let slow = Slow { dur_ns, start_ns: span.start, node: span.node };
        // Behind every retained span that ranks no later, as a push and a
        // stable sort would leave it. Most spans rank behind all of them,
        // which the last one settles.
        let ranks_after = |s: &Slow| slow_span_order(key(s), key(&slow)).is_le();
        let full_and_behind =
            state.slowest.len() == SLOW_CAP && state.slowest.last().is_some_and(ranks_after);
        if !full_and_behind {
            let rank = state.slowest.partition_point(ranks_after);
            state.slowest.truncate(SLOW_CAP - 1);
            state.slowest.insert(rank, slow);
        }

        let name = nodes[span.node].name();
        state.sinks.emit(&RecordRef::SpanEnd { id, name, t, dur_ns, fields: &[] });
    }

    fn emit_event(&self, name: &str, fields: &[Field<'_>]) {
        let inner = match &self.0 {
            None => return,
            Some(i) => i,
        };
        let t = inner.clock.now_nanos();
        let mut state = lock(&inner.state);
        let span = state.open.last().map(|s| s.id);
        state.sinks.emit(&RecordRef::Event { span, name, t, fields });
    }
}

/// How a span being opened is named: by text, interned on the way in, or
/// by the id a [`SpanName`] resolved.
enum Named<'a> {
    Text(&'a str),
    Id(u32),
}

/// A span name resolved once by [`Collector::span_name`], for a call site
/// that opens it again and again. The default is inert.
#[derive(Clone, Default)]
pub struct SpanName {
    collector: Collector,
    /// The name's id in the collector's flame tree.
    id: u32,
}

impl SpanName {
    /// Open a span under this name (see [`Collector::span`]).
    #[inline]
    pub fn start(&self) -> SpanGuard {
        self.collector.start_span(Named::Id(self.id), &[])
    }
}

/// Builder for an enabled [`Collector`].
pub struct CollectorBuilder {
    clock: Box<dyn TelemetryClock>,
    clock_label: &'static str,
    jsonl: Option<Box<dyn Write + Send>>,
    ring: Option<usize>,
    tap: Option<Tap>,
}

impl CollectorBuilder {
    /// Attach a JSONL trace sink.
    pub fn jsonl(mut self, w: impl Write + Send + 'static) -> Self {
        self.jsonl = Some(Box::new(w));
        self
    }

    /// Attach an in-memory ring buffer keeping the last `cap` records.
    pub fn ring(mut self, cap: usize) -> Self {
        self.ring = Some(cap.max(1));
        self
    }

    /// Attach an online record observer: `f` sees every record (the
    /// leading meta line included) in emission order, under the collector
    /// lock. Streaming consumers — the availability observatory — hang
    /// off this instead of re-parsing the JSONL sink. The record is lent
    /// for the call; a tap that keeps one calls [`RecordRef::to_owned`].
    pub fn tap(mut self, f: impl FnMut(&RecordRef<'_>) + Send + 'static) -> Self {
        self.tap = Some(Box::new(f));
        self
    }

    /// Label for the clock domain in the trace's meta record (default
    /// `"virtual"`; pass `"wall"` with [`WallClock`]).
    pub fn clock_label(mut self, label: &'static str) -> Self {
        self.clock_label = label;
        self
    }

    /// Build the collector and emit the leading meta record.
    pub fn build(self) -> Collector {
        let t = self.clock.now_nanos();
        let mut sinks = Sinks {
            jsonl: self.jsonl.map(TraceWriter::new),
            ring: self.ring.map(|cap| Ring { cap, buf: VecDeque::with_capacity(cap.min(1024)) }),
            tap: self.tap,
        };
        sinks.emit(&RecordRef::Meta { schema: TRACE_SCHEMA_VERSION, clock: self.clock_label, t });
        Collector(Some(Arc::new(Inner {
            clock: self.clock,
            state: Mutex::new(State {
                next_id: 0,
                sinks,
                open: Vec::new(),
                flame: Flame::default(),
                slowest: Vec::with_capacity(SLOW_CAP),
                spans_ended: 0,
            }),
            registry: Registry::default(),
        })))
    }
}

/// RAII guard closing its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    collector: Collector,
    id: u64,
}

impl SpanGuard {
    /// The guard a disabled collector hands out.
    fn inert() -> Self {
        SpanGuard { collector: Collector(None), id: 0 }
    }

    /// The span id (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now.
    pub fn end(self) {
        drop(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.collector.0.is_some() {
            self.collector.end_span(self.id);
        }
    }
}

/// A span start or event under construction. The name and field values
/// stay borrowed from the call site until the record has been handed to
/// the sinks; on a disabled collector there is nowhere to put a field and
/// every call falls through.
///
/// The builders are filled in place (`&mut self` all the way to the
/// closing call) because they hold their fields inline: passing one along
/// a by-value chain would copy the lot at every step.
struct Pending<'a> {
    collector: &'a Collector,
    name: &'a str,
    /// `None` on a disabled collector, and once the record is out.
    fields: Option<FieldBuf<'a>>,
}

/// Builder attaching fields to a span-start record.
pub struct SpanBuilder<'a>(Pending<'a>);

impl<'a> SpanBuilder<'a> {
    #[inline]
    pub fn field(&mut self, key: &'static str, v: impl IntoValue<'a>) -> &mut Self {
        if let Some(fields) = &mut self.0.fields {
            fields.insert(key, v.into_value());
        }
        self
    }

    /// Open the span. A builder opens one span: a second call returns the
    /// guard a disabled collector would.
    #[inline]
    pub fn start(&mut self) -> SpanGuard {
        let guard = match &self.0.fields {
            None => SpanGuard::inert(),
            Some(fields) => {
                self.0.collector.start_span(Named::Text(self.0.name), fields.as_slice())
            }
        };
        self.0.fields = None;
        guard
    }
}

/// Builder attaching fields to a point event.
pub struct EventBuilder<'a>(Pending<'a>);

impl<'a> EventBuilder<'a> {
    #[inline]
    pub fn field(&mut self, key: &'static str, v: impl IntoValue<'a>) -> &mut Self {
        if let Some(fields) = &mut self.0.fields {
            fields.insert(key, v.into_value());
        }
        self
    }

    /// Emit the event. A builder emits once: a second call does nothing.
    #[inline]
    pub fn emit(&mut self) {
        if let Some(fields) = &self.0.fields {
            self.0.collector.emit_event(self.0.name, fields.as_slice());
            self.0.fields = None;
        }
    }
}

/// Cloneable in-memory byte sink for JSONL traces in tests and drills.
///
/// Bytes are kept in chunks of [`SharedBuf::CHUNK`] rather than one
/// growing `Vec`: a trace of tens of megabytes is then never copied while
/// it is written (a doubling `Vec` copies it about once over, through
/// ever larger fresh allocations), and reading it out copies it exactly
/// once.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<Vec<u8>>>>);

impl SharedBuf {
    const CHUNK: usize = 1 << 20;

    pub fn new() -> Self {
        Self::default()
    }

    pub fn contents(&self) -> Vec<u8> {
        lock(&self.0).concat()
    }

    pub fn text(&self) -> String {
        String::from_utf8(self.contents())
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut chunks = lock(&self.0);
        // A write is never split: when the last chunk cannot take it
        // whole, the next one is made large enough.
        match chunks.last_mut() {
            Some(last) if last.len() + buf.len() <= last.capacity() => last.extend_from_slice(buf),
            _ => {
                let mut next = Vec::with_capacity(Self::CHUNK.max(buf.len()));
                next.extend_from_slice(buf);
                chunks.push(next);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Arc<ManualClock>, Collector, SharedBuf) {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::new();
        let c = Collector::builder(clock.clone()).jsonl(buf.clone()).ring(128).build();
        (clock, c, buf)
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        assert!(!c.enabled());
        let g = c.span("nothing");
        c.event("nope").field("k", 1u64).emit();
        c.inc("n", 1);
        c.inc_labeled("n", "l", 1);
        c.observe("h", 5);
        drop(g);
        assert_eq!(c.counter("n"), 0);
        assert!(c.ring_records().is_empty());
        assert!(c.metrics().counters.is_empty());
        assert_eq!(c.summary(), "");
        assert!(c.slowest_spans(5).is_empty());
        assert_eq!(c.now_nanos(), None);
    }

    #[test]
    fn meta_record_carries_schema_version() {
        let (_, c, _) = manual();
        let recs = c.ring_records();
        assert!(matches!(
            &recs[0],
            TraceRecord::Meta { schema, clock, .. }
                if *schema == TRACE_SCHEMA_VERSION && clock == "virtual"
        ));
    }

    #[test]
    fn span_nesting_links_parents_and_paths() {
        let (clock, c, _) = manual();
        let outer = c.span("read_file");
        clock.advance(10);
        {
            let _inner = c.span_labeled("fetch_fragment", "aliyun");
            clock.advance(5);
        }
        clock.advance(1);
        drop(outer);

        let recs = c.ring_records();
        // meta, start(outer), start(inner), end(inner), end(outer)
        assert_eq!(recs.len(), 5);
        let outer_id = match &recs[1] {
            TraceRecord::SpanStart { id, parent: None, name, .. } if name == "read_file" => *id,
            r => panic!("unexpected: {r:?}"),
        };
        match &recs[2] {
            TraceRecord::SpanStart { parent, name, .. } => {
                assert_eq!(*parent, Some(outer_id));
                assert_eq!(name, "fetch_fragment[aliyun]");
            }
            r => panic!("unexpected: {r:?}"),
        }
        match &recs[3] {
            TraceRecord::SpanEnd { dur_ns, .. } => assert_eq!(*dur_ns, 5),
            r => panic!("unexpected: {r:?}"),
        }
        match &recs[4] {
            TraceRecord::SpanEnd { name, dur_ns, .. } => {
                assert_eq!(name, "read_file");
                assert_eq!(*dur_ns, 16);
            }
            r => panic!("unexpected: {r:?}"),
        }

        let summary = c.summary();
        assert!(summary.contains("read_file"), "{summary}");
        assert!(summary.contains("→ fetch_fragment[aliyun]"), "{summary}");
    }

    #[test]
    fn events_attribute_to_innermost_span() {
        let (_, c, _) = manual();
        c.event("outside").emit();
        let g = c.span("op");
        c.event("inside").field("attempt", 2u64).emit();
        drop(g);
        let recs = c.ring_records();
        assert!(matches!(&recs[1], TraceRecord::Event { span: None, .. }));
        match &recs[3] {
            TraceRecord::Event { span, name, fields, .. } => {
                assert!(span.is_some());
                assert_eq!(name, "inside");
                assert_eq!(fields.get("attempt"), Some(&Value::U64(2)));
            }
            r => panic!("unexpected: {r:?}"),
        }
    }

    #[test]
    fn same_inputs_byte_identical_jsonl() {
        let run = || {
            let (clock, c, buf) = manual();
            let g = c.span_with("write").field("bytes", 4096u64).start();
            clock.advance(1_000);
            c.event("retry.backoff").field("delay_ns", 250u64).emit();
            clock.advance(250);
            drop(g);
            c.flush();
            buf.contents()
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn ring_buffer_caps_and_evicts_oldest() {
        let clock = Arc::new(ManualClock::new());
        let c = Collector::builder(clock).ring(3).build();
        for i in 0..10u64 {
            c.event("e").field("i", i).emit();
        }
        let recs = c.ring_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].field_u64("i"), Some(9));
        assert_eq!(recs[0].field_u64("i"), Some(7));
    }

    #[test]
    fn slowest_spans_deterministic_and_capped() {
        let (clock, c, _) = manual();
        for i in 0..40u64 {
            let g = c.span("op");
            clock.advance(100 * (i % 7 + 1));
            drop(g);
        }
        let top = c.slowest_spans(5);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].dur_ns >= w[1].dur_ns));
        assert_eq!(top[0].dur_ns, 700);
        assert_eq!(c.slowest_spans(1000).len(), SLOW_CAP);
    }

    #[test]
    fn metrics_round_trip() {
        let (_, c, _) = manual();
        c.inc("ops", 3);
        c.inc_labeled("provider.faults", "azure", 2);
        c.observe("lat_ns", 1_500);
        c.observe("lat_ns", 3_000);
        c.set_gauge("open_spans", 1);
        let m = c.metrics();
        assert_eq!(m.counter("ops"), 3);
        assert_eq!(m.counters_labeled("provider.faults"), vec![("azure".to_string(), 2)]);
        assert_eq!(m.histograms["lat_ns"].count, 2);
        assert_eq!(m.gauges["open_spans"], 1);
        assert_eq!(c.histogram("lat_ns").unwrap().sum(), 4_500);
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let (clock, c, _) = manual();
        let a = c.span("a");
        let b = c.span("b");
        clock.advance(5);
        drop(a); // dropped before inner span `b`
        drop(b);
        let recs = c.ring_records();
        assert_eq!(recs.iter().filter(|r| matches!(r, TraceRecord::SpanEnd { .. })).count(), 2);
        // A fresh span after the mess still opens at the root.
        let g = c.span("c");
        drop(g);
        match c.ring_records().last().unwrap() {
            TraceRecord::SpanEnd { name, .. } => assert_eq!(name, "c"),
            r => panic!("unexpected: {r:?}"),
        }
    }

    #[test]
    fn shared_buf_reads_back_what_was_written_across_chunks() {
        let mut buf = SharedBuf::new();
        let mut want = Vec::new();
        // Lines that do not divide a chunk, one write larger than a chunk,
        // an empty write.
        let big = "x".repeat(SharedBuf::CHUNK + 17);
        let line = "a line of trace, π included\n".repeat(100);
        for piece in [line.as_str(), "", big.as_str()].iter().cycle().take(3 * 10) {
            buf.write_all(piece.as_bytes()).unwrap();
            want.extend_from_slice(piece.as_bytes());
        }
        assert!(lock(&buf.0).len() >= 10, "the walk crossed chunks");
        assert_eq!(buf.contents(), want);
        assert_eq!(buf.text().as_bytes(), want);
        // Bytes that are not UTF-8 are replaced, not refused.
        buf.write_all(b"\xff!").unwrap();
        assert!(buf.text().ends_with("\u{fffd}!"));
        assert_eq!(SharedBuf::new().text(), "");
    }

    #[test]
    fn explicit_end_is_idempotent_with_drop() {
        let (_, c, _) = manual();
        let g = c.span("once");
        g.end();
        let ends =
            c.ring_records().iter().filter(|r| matches!(r, TraceRecord::SpanEnd { .. })).count();
        assert_eq!(ends, 1);
    }
}
