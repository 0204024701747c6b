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
//! * an online observer ([`CollectorBuilder::tap`]) that sees each record
//!   in the order it was emitted.
//!
//! The sinks run on a writer thread of the collector's own: emitting a
//! record stamps it and copies it into a batch, and every read of what a
//! sink holds ([`Collector::flush`], [`Collector::ring_records`],
//! [`SharedBuf::contents`], dropping the collector) first waits for the
//! writer to catch up, so it reads what a sink fed on the emitting thread
//! would hold.
//!
//! It aggregates no spans: a flame, a ranking or a waterfall is folded
//! from the trace by whoever reads it. Alongside the trace it keeps a
//! [`Registry`] of counters, gauges and bounded log₂ [`Histogram`]s.
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

mod feed;
mod hist;
pub mod json;
mod parse;
mod record;
mod registry;
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
pub use writer::TraceWriter;

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use feed::Feed;
use record::FieldBuf;
use registry::with_labeled;

/// Clock a collector stamps records with. Simulation code implements this
/// for its virtual clock; [`ManualClock`] is a hand-cranked one.
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

/// Lock that shrugs off poisoning: telemetry must never turn a panicking
/// test into a deadlocked one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Span names by id, and ids by name; a [`SpanName`] holds an id, and an
/// open span its name's. Opening and closing spans with known names
/// allocates nothing.
#[derive(Default)]
struct Names {
    names: Vec<Box<str>>,
    ids: BTreeMap<Box<str>, u32>,
}

impl Names {
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
}

struct OpenSpan {
    id: u64,
    /// The span's name id in [`Names`].
    name: u32,
    start: u64,
}

struct Ring {
    cap: usize,
    buf: VecDeque<TraceRecord>,
}

/// Where records go, on the collector's writer thread. A record reaches
/// every sink as the same borrowed [`RecordRef`]; only the ring, which
/// keeps records, makes an owned copy.
struct Sinks {
    jsonl: Option<TraceWriter<Box<dyn Write + Send>>>,
    ring: Option<Ring>,
    /// Online observer invoked with every record, in emission order — the
    /// deterministic feed the availability observatory ingests without
    /// parsing the JSONL trace.
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
    /// The way to the sinks' writer thread; `None` when no sink is
    /// attached, and then records go nowhere.
    feed: Option<Feed>,
    /// Open spans, innermost last (the instrumented request path is
    /// single-threaded; events attribute to the innermost open span).
    open: Vec<OpenSpan>,
    names: Names,
}

struct Inner {
    clock: Box<dyn TelemetryClock>,
    state: Mutex<State>,
    registry: Registry,
}

impl Inner {
    /// Waits until the sinks hold every record emitted so far, then
    /// lends them to `read`; `None` when no sink is attached.
    fn drained<T>(&self, read: impl FnOnce(&mut Sinks) -> T) -> Option<T> {
        let mut state = lock(&self.state);
        let feed = state.feed.as_mut()?;
        feed.drain();
        let mut sinks = feed.sinks();
        Some(read(&mut sinks))
    }
}

/// Telemetry handle. `Collector::default()` / [`Collector::disabled`] is
/// the no-op collector: every method returns immediately without touching a
/// lock or allocating, so instrumentation can stay unconditionally in place
/// on hot paths.
///
/// An enabled collector allocates only for what it has not seen before — a
/// new span name, a new metric series, a record with more fields than a
/// builder holds inline — and for what a sink keeps (the ring's owned
/// records, the JSONL writer's own buffering). Emitting on known paths
/// with a JSONL sink and a tap attached allocates nothing, on the
/// emitting thread or on the writer thread.
///
/// A collector with a sink runs its sinks on a thread of its own, which
/// dropping the last clone joins. A panic in a sink or the tap is resumed
/// on the thread that next flushes, reads the ring or the linked
/// [`SharedBuf`], or drops the last clone.
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
            jsonl: None,
            linked: None,
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
                let id = with_labeled(name, label, |full| lock(&i.state).names.intern(full));
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
    /// or no ring was configured), once it holds every record emitted so
    /// far.
    pub fn ring_records(&self) -> Vec<TraceRecord> {
        let ring = |sinks: &mut Sinks| {
            sinks.ring.as_ref().map_or_else(Vec::new, |r| r.buf.iter().cloned().collect())
        };
        self.0.as_ref().and_then(|i| i.drained(ring)).unwrap_or_default()
    }

    /// Flush the JSONL sink once it has every record emitted so far,
    /// writing first the records the writer holds back to see whether the
    /// next one shares their line.
    pub fn flush(&self) {
        if let Some(i) = &self.0 {
            i.drained(|sinks| sinks.jsonl.as_mut().map(TraceWriter::flush));
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
            Named::Text(text) => state.names.intern(text),
            Named::Id(name) => name,
        };
        let parent = state.open.last().map(|p| p.id);
        state.open.push(OpenSpan { id, name, start: t });
        if let Some(feed) = &mut state.feed {
            feed.span_start(&state.names.names, id, parent, name, t, fields);
        }
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
        if let Some(feed) = &mut state.feed {
            feed.span_end(&state.names.names, id, span.name, t, dur_ns);
        }
    }

    fn emit_event(&self, name: &str, fields: &[Field<'_>]) {
        let inner = match &self.0 {
            None => return,
            Some(i) => i,
        };
        let t = inner.clock.now_nanos();
        let mut state = lock(&inner.state);
        let state = &mut *state;
        let span = state.open.last().map(|s| s.id);
        if let Some(feed) = &mut state.feed {
            feed.event(span, name, t, fields);
        }
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
    /// The name's id in the collector's name table.
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
    jsonl: Option<Box<dyn Write + Send>>,
    /// The JSONL sink, when it is a [`SharedBuf`]: linked to the
    /// collector at build, so that reading it drains the writer thread.
    linked: Option<SharedBuf>,
    ring: Option<usize>,
    tap: Option<Tap>,
}

impl CollectorBuilder {
    /// Attach a JSONL trace sink. A [`SharedBuf`] given here is linked to
    /// the collector: reading it ([`SharedBuf::contents`]) first waits for
    /// the writer thread, so it holds every line written so far. The
    /// records the writer holds back, to see whether the next one shares
    /// their line, wait for [`Collector::flush`] or the last drop.
    pub fn jsonl(mut self, w: impl Write + Send + 'static) -> Self {
        self.linked = (&w as &dyn Any).downcast_ref::<SharedBuf>().cloned();
        self.jsonl = Some(Box::new(w));
        self
    }

    /// Attach an in-memory ring buffer keeping the last `cap` records.
    pub fn ring(mut self, cap: usize) -> Self {
        self.ring = Some(cap.max(1));
        self
    }

    /// Attach an online record observer: `f` sees every record (the
    /// leading meta line included) in emission order, on the collector's
    /// writer thread. Streaming consumers — the availability observatory —
    /// hang off this instead of re-parsing the JSONL sink; they read what
    /// it folded after a [`Collector::flush`]. The record is lent for the
    /// call; a tap that keeps one calls [`RecordRef::to_owned`].
    ///
    /// A tap (or a sink) must not read the trace it feeds — flush the
    /// collector, read its ring or its linked [`SharedBuf`]: that read
    /// waits for the writer thread the tap runs on, and never returns.
    pub fn tap(mut self, f: impl FnMut(&RecordRef<'_>) + Send + 'static) -> Self {
        self.tap = Some(Box::new(f));
        self
    }

    /// Build the collector, start its writer thread if it has a sink and
    /// emit the leading meta record.
    pub fn build(self) -> Collector {
        let t = self.clock.now_nanos();
        let feed = (self.jsonl.is_some() || self.ring.is_some() || self.tap.is_some()).then(|| {
            let mut feed = Feed::start(Sinks {
                jsonl: self.jsonl.map(TraceWriter::new),
                ring: self
                    .ring
                    .map(|cap| Ring { cap, buf: VecDeque::with_capacity(cap.min(1024)) }),
                tap: self.tap,
            });
            feed.meta(TRACE_SCHEMA_VERSION, "virtual", t);
            feed
        });
        let inner = Arc::new(Inner {
            clock: self.clock,
            state: Mutex::new(State {
                next_id: 0,
                feed,
                open: Vec::new(),
                names: Names::default(),
            }),
            registry: Registry::default(),
        });
        if let Some(buf) = self.linked {
            *lock(&buf.0.feeder) = Arc::downgrade(&inner);
        }
        Collector(Some(inner))
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
/// Bytes are kept in chunks of a mebibyte rather than one
/// growing `Vec`: a trace of tens of megabytes is then never copied while
/// it is written (a doubling `Vec` copies it about once over, through
/// ever larger fresh allocations), and reading it out copies it exactly
/// once.
///
/// Given to [`CollectorBuilder::jsonl`], the buffer is linked to that
/// collector, and a read first waits for the collector's writer thread to
/// write every record emitted so far (see [`CollectorBuilder::jsonl`]).
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<BufState>);

#[derive(Default)]
struct BufState {
    chunks: Mutex<Vec<Vec<u8>>>,
    /// The collector whose JSONL sink this is, if any.
    feeder: Mutex<Weak<Inner>>,
}

impl SharedBuf {
    const CHUNK: usize = 1 << 20;

    pub fn new() -> Self {
        Self::default()
    }

    /// Every byte written so far, once the linked collector's writer
    /// thread has caught up.
    pub fn contents(&self) -> Vec<u8> {
        let feeder = lock(&self.0.feeder).upgrade();
        if let Some(inner) = feeder {
            inner.drained(|_| ());
        }
        lock(&self.0.chunks).concat()
    }

    pub fn text(&self) -> String {
        String::from_utf8(self.contents())
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut chunks = lock(&self.0.chunks);
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
            clock.advance(2);
            let _leaf = c.span_name("ec.decode", "x").start();
            clock.advance(3);
        }
        clock.advance(1);
        drop(outer);

        let recs = c.ring_records();
        // meta, start(outer), start(inner), start(leaf), end(leaf),
        // end(inner), end(outer)
        assert_eq!(recs.len(), 7);
        let mut parents = BTreeMap::new();
        let mut names = BTreeMap::new();
        for r in &recs[1..4] {
            match r {
                TraceRecord::SpanStart { id, parent, name, .. } => {
                    parents.insert(*id, *parent);
                    names.insert(*id, name.as_str());
                }
                r => panic!("unexpected: {r:?}"),
            }
        }
        // The path a reader folds from the parent links, leaf first.
        let leaf = *names.keys().max().unwrap();
        let mut path = vec![names[&leaf]];
        let mut at = parents[&leaf];
        while let Some(id) = at {
            path.push(names[&id]);
            at = parents[&id];
        }
        assert_eq!(path, ["ec.decode[x]", "fetch_fragment[aliyun]", "read_file"]);
        let ends: Vec<(u64, &str, u64)> = recs[4..]
            .iter()
            .map(|r| match r {
                TraceRecord::SpanEnd { id, name, dur_ns, .. } => (*id, name.as_str(), *dur_ns),
                r => panic!("unexpected: {r:?}"),
            })
            .collect();
        let (outer_id, inner_id) = (leaf - 2, leaf - 1);
        assert_eq!(
            ends,
            [
                (leaf, "ec.decode[x]", 3),
                (inner_id, "fetch_fragment[aliyun]", 5),
                (outer_id, "read_file", 16)
            ]
        );
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
    fn span_ends_carry_their_name_and_duration() {
        let (clock, c, _) = manual();
        let named = c.span_name("op", "named");
        for i in 0..40u64 {
            let g = if i % 2 == 0 { c.span("op") } else { named.start() };
            clock.advance(100 * (i % 7 + 1));
            drop(g);
        }
        let ends: Vec<(String, u64)> = c
            .ring_records()
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::SpanEnd { name, dur_ns, .. } => Some((name, dur_ns)),
                _ => None,
            })
            .collect();
        let want: Vec<(String, u64)> = (0..40u64)
            .map(|i| {
                let name = if i % 2 == 0 { "op" } else { "op[named]" };
                (name.to_string(), 100 * (i % 7 + 1))
            })
            .collect();
        assert_eq!(ends, want);
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
        assert!(lock(&buf.0.chunks).len() >= 10, "the walk crossed chunks");
        assert_eq!(buf.contents(), want);
        assert_eq!(buf.text().as_bytes(), want);
        // Bytes that are not UTF-8 are replaced, not refused.
        buf.write_all(b"\xff!").unwrap();
        assert!(buf.text().ends_with("\u{fffd}!"));
        assert_eq!(SharedBuf::new().text(), "");
    }

    /// A collector whose tap panics on its 100th record.
    fn failing() -> Collector {
        let mut seen = 0;
        Collector::builder(ManualClock::new())
            .tap(move |_| {
                seen += 1;
                assert!(seen < 100, "the tap gave up at record {seen}");
            })
            .ring(8)
            .build()
    }

    fn message(panic: &(dyn std::any::Any + Send)) -> &str {
        panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    #[test]
    fn a_panic_on_the_writer_thread_is_resumed_at_the_next_flush() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let c = failing();
        // Enough records to fill batches after the writer died.
        for i in 0..20_000u64 {
            c.event("e").field("i", i).emit();
        }
        let panic = catch_unwind(AssertUnwindSafe(|| c.flush())).expect_err("the tap's panic");
        assert_eq!(message(&*panic), "the tap gave up at record 100");
        // The writer is dead: a read returns at once, with what the sinks
        // had before the panic (the ring last took the 99th record, event
        // 97, after the meta record), and raises nothing twice.
        c.event("after").emit();
        c.flush();
        assert_eq!(c.ring_records().last().and_then(|r| r.field_u64("i")), Some(97));
    }

    #[test]
    fn a_panic_on_the_writer_thread_is_resumed_by_the_last_drop() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let c = failing();
        for _ in 0..200 {
            c.event("e").emit();
        }
        let panic = catch_unwind(AssertUnwindSafe(|| drop(c))).expect_err("the tap's panic");
        assert_eq!(message(&*panic), "the tap gave up at record 100");
        // Dropped while this thread unwinds, the collector only joins its
        // writer: the panic that is already under way is the one caught.
        let panic = catch_unwind(AssertUnwindSafe(|| {
            let c = failing();
            for _ in 0..200 {
                c.event("e").emit();
            }
            panic!("the request failed");
        }))
        .expect_err("the request's panic");
        assert_eq!(message(&*panic), "the request failed");
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
