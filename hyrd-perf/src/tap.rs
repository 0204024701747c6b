//! The `Scheme` adapter the benchmark puts between the repo's drivers and
//! `Hyrd`, and the span recorder its traced form feeds.
//!
//! [`Tap`] forwards every call and pushes one [`Sample`] into a pre-sized
//! `Vec`, so percentiles are exact nearest-rank on raw samples, not
//! `LatencyStats` bucket edges. It is generic over a [`Recorder`]:
//!
//! * [`LatencyTap`] = `Tap<_, Off>` — untraced laps. `Off` compiles to
//!   nothing, so the sample push is all that sits in the timed path.
//! * [`SpanTap`] = `Tap<_, Tracer>` — the traced lap: a wall-clock span
//!   with allocator deltas around every call.
//!
//! Both measure from outside: nothing inside `Hyrd` knows it is watched.

use std::io::Write;
use std::time::Instant;

use bytes::Bytes;
use hyrd::recovery::RecoveryReport;
use hyrd::scheme::{Scheme, SchemeResult};
use hyrd_gcsapi::{BatchReport, OpKind, ProviderId};

use crate::alloc::Snapshot;

/// Which `Scheme` method a sample or span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Call {
    Create,
    Read,
    Update,
    Delete,
    List,
}

impl Call {
    /// Reads are the read class; creates, updates and deletes the write
    /// class; listings are metadata and belong to neither.
    pub fn is_write(self) -> bool {
        matches!(self, Call::Create | Call::Update | Call::Delete)
    }

    fn span_name(self) -> &'static str {
        match self {
            Call::Create => "scheme.create",
            Call::Read => "scheme.read",
            Call::Update => "scheme.update",
            Call::Delete => "scheme.delete",
            Call::List => "scheme.list",
        }
    }
}

/// One scheme call as seen from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sample {
    pub call: Call,
    /// The file is above the small/large threshold. Known from the payload
    /// for creates and reads; for updates only the traced lap looks the
    /// file size up (an extra metastore call the untraced lap must not
    /// pay), so untraced update samples say `false`.
    pub large: bool,
    /// The scheme accepted the call.
    pub ok: bool,
    /// `BatchReport::latency`: what the modelled fleet would have taken.
    pub latency_ns: u64,
    /// Provider operations the call issued.
    pub provider_ops: u32,
    /// Whether one of them was a Get (for a small update: a cache miss).
    pub fetched: bool,
    /// User payload bytes written or returned.
    pub user_bytes: u64,
}

/// Where spans go. The untraced laps use [`Off`]; the traced lap a
/// [`Tracer`].
pub trait Recorder {
    /// Whether spans are kept (lets the tap skip trace-only bookkeeping at
    /// compile time).
    const ENABLED: bool;

    /// Opens a span under the innermost open one.
    fn open(&mut self, name: &'static str, op_id: Option<u32>);

    /// Closes the innermost open span.
    fn close(&mut self);

    /// Runs `f` inside a span.
    fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T
    where
        Self: Sized,
    {
        self.open(name, None);
        let out = f(self);
        self.close();
        out
    }
}

/// The recorder that records nothing.
pub struct Off;

impl Recorder for Off {
    const ENABLED: bool = false;

    fn open(&mut self, _name: &'static str, _op_id: Option<u32>) {}

    fn close(&mut self) {}
}

/// Forwards to `inner`, pushes one sample per call, and wraps each call in
/// a span of `rec`.
pub struct Tap<'r, S, R> {
    inner: S,
    threshold: u64,
    samples: Vec<Sample>,
    rec: &'r mut R,
}

/// The untraced adapter.
pub type LatencyTap<'r, S> = Tap<'r, S, Off>;

/// The traced adapter.
pub type SpanTap<'r, S> = Tap<'r, S, Tracer>;

impl<'r, S: Scheme, R: Recorder> Tap<'r, S, R> {
    /// Wraps `inner`; `capacity` pre-sizes the sample buffer so the timed
    /// phase never reallocates it. `threshold` is the small/large
    /// boundary samples are classified by.
    pub fn new(inner: S, threshold: u64, capacity: usize, rec: &'r mut R) -> Self {
        Tap { inner, threshold, samples: Vec::with_capacity(capacity), rec }
    }

    /// The wrapped scheme, for the calls a phase makes around the driver
    /// (audits, accessors).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The recorder, for spans a phase opens around driver calls.
    pub fn rec(&mut self) -> &mut R {
        self.rec
    }

    /// Takes the samples recorded so far, leaving an equally sized empty
    /// buffer behind.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        let capacity = self.samples.capacity();
        std::mem::replace(&mut self.samples, Vec::with_capacity(capacity))
    }

    fn open(&mut self, call: Call) {
        self.rec.open(call.span_name(), Some(self.samples.len() as u32));
    }

    /// Closes the call's span and records its sample.
    fn push(&mut self, call: Call, user_bytes: u64, batch: Option<&BatchReport>) {
        self.rec.close();
        let large = matches!(call, Call::Create | Call::Read) && user_bytes > self.threshold;
        self.samples.push(match batch {
            Some(b) => Sample {
                call,
                large,
                ok: true,
                latency_ns: b.latency.as_nanos() as u64,
                provider_ops: b.ops.len() as u32,
                fetched: b.ops.iter().any(|o| o.kind == OpKind::Get),
                user_bytes,
            },
            None => Sample {
                call,
                large,
                ok: false,
                latency_ns: 0,
                provider_ops: 0,
                fetched: false,
                user_bytes: 0,
            },
        });
    }
}

impl<S: Scheme, R: Recorder> Scheme for Tap<'_, S, R> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        self.open(Call::Create);
        let out = self.inner.create_file(path, data);
        self.push(Call::Create, data.len() as u64, out.as_ref().ok());
        out
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        self.open(Call::Read);
        let out = self.inner.read_file(path);
        match &out {
            Ok((bytes, batch)) => self.push(Call::Read, bytes.len() as u64, Some(batch)),
            Err(_) => self.push(Call::Read, 0, None),
        }
        out
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        // Looked up outside the span: the size class is the ledger's
        // bookkeeping, not the dispatcher's work.
        let large =
            R::ENABLED && self.inner.file_size(path).is_some_and(|size| size > self.threshold);
        self.open(Call::Update);
        let out = self.inner.update_file(path, offset, data);
        self.push(Call::Update, data.len() as u64, out.as_ref().ok());
        if let Some(sample) = self.samples.last_mut() {
            sample.large = large;
        }
        out
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        self.open(Call::Delete);
        let out = self.inner.delete_file(path);
        self.push(Call::Delete, 0, out.as_ref().ok());
        out
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        self.open(Call::List);
        let out = self.inner.list_dir(path);
        self.push(Call::List, 0, out.as_ref().ok().map(|(_, batch)| batch));
        out
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        self.inner.file_size(path)
    }

    fn recover_provider(&mut self, id: ProviderId) -> SchemeResult<(RecoveryReport, BatchReport)> {
        self.rec.open("recovery.recover_provider", None);
        let out = self.inner.recover_provider(id);
        self.rec.close();
        out
    }
}

/// One recorded wall-clock span. `parent` and `op_id` index into the
/// tracer's span list and the lap's sample list; spans of one request
/// share its `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: Option<u32>,
    /// Allocator calls / bytes requested between the span's edges.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder: spans go into a pre-sized `Vec` and are
/// written out once the lap has ended.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with its allocator snapshot.
    open: Vec<(u32, Snapshot)>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(spans), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "{} span(s) left open", self.open.len());
        self.spans
    }
}

impl Recorder for Tracer {
    const ENABLED: bool = true;

    fn open(&mut self, name: &'static str, op_id: Option<u32>) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().map(|(p, _)| *p);
        self.open.push((id, Snapshot::now()));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            allocs: 0,
            alloc_bytes: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let (id, before) = self.open.pop().expect("close without a matching open");
        let (allocs, alloc_bytes) = Snapshot::now().since(&before);
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs;
        span.alloc_bytes = alloc_bytes;
    }
}

/// Writes spans as JSON lines: `{name, start_ns, end_ns, parent, op_id,
/// allocs, alloc_bytes}` with `null` for an absent parent or op.
pub fn write_spans(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.op_id),
            s.allocs,
            s.alloc_bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::with_capacity(4);
        t.scoped("run", |t| {
            t.open("scheme.read", Some(7));
            t.close();
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("run", None));
        assert_eq!((spans[1].parent, spans[1].op_id), (Some(0), Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut buf = Vec::new();
        write_spans(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"name\":\"run\",\"start_ns\":"), "{first}");
        assert!(first.contains("\"parent\":null,\"op_id\":null"), "{first}");
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0,\"op_id\":7"));
    }
}
