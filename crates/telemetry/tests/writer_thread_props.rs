//! The collector's sinks run on a writer thread; every read of what they
//! hold must be what sinks fed on the emitting thread would hold.
//!
//! A random program of spans, events, clock steps and reads runs against
//! a collector with a linked [`SharedBuf`], a ring and a tap, and against
//! a model: the records the collector must emit (ids counted from 1,
//! parents and event spans from the open spans, times from the clock) fed
//! to a synchronous [`TraceWriter`] as they are emitted. At each read:
//!
//! * `SharedBuf::contents` equals what the synchronous writer has written
//!   so far — the same lines, the same record held back;
//! * `ring_records` equals the model's records, and the tap has seen
//!   exactly the ring's sequence;
//! * after `flush`, both writers have written everything, and after the
//!   collector is dropped the buffer holds the flushed trace.
//!
//! The programs hold every shape the writer puts on one line and its near
//! misses, string values long enough to fill a batch on their own, and a
//! tap that stalls now and then, so the emitting side runs batches ahead
//! of the writer.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hyrd_telemetry::{
    Collector, Fields, ManualClock, RecordRef, SharedBuf, SpanGuard, TelemetryClock, TraceRecord,
    TraceWriter, Value,
};
use hyrd_testkit::{check, Gen};

/// Field keys as call sites give them: those an op line and a replay
/// record read, and some that need escaping.
const KEYS: [&str; 11] = [
    "bytes_in",
    "bytes_out",
    "class",
    "cost",
    "latency_ns",
    "op",
    "path",
    "provider",
    "π",
    "with\"quote",
    "",
];

const OP_SPANS: [&str; 4] = ["put_replica", "fetch_replica", "put_fragment", "fetch_fragment"];

/// The event the tap stalls on.
const STALL: &str = "tap.stall";

#[derive(Debug, Clone)]
enum Val {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    /// Lent to the builder, or handed over as a `String`.
    Str(String, bool),
}

impl Val {
    fn value(&self) -> Value {
        match self {
            Val::Bool(b) => Value::Bool(*b),
            Val::U64(v) => Value::U64(*v),
            Val::I64(v) => Value::I64(*v),
            Val::F64(v) => Value::F64(*v),
            Val::Str(s, _) => Value::Str(s.clone()),
        }
    }
}

type Entries = Vec<(&'static str, Val)>;

#[derive(Debug, Clone)]
enum Step {
    /// `span_labeled(name, label)`, `span_name(name, label).start()` or
    /// `span_with(name)` with fields.
    Open {
        name: String,
        label: Option<(String, bool)>,
        fields: Entries,
    },
    /// Drops the open guard at this position from the innermost, modulo
    /// how many are open.
    Close(usize),
    Event {
        name: String,
        fields: Entries,
    },
    Advance(u64),
    Contents,
    Ring,
    Flush,
}

fn gen_text(g: &mut Gen) -> String {
    const ALPHABET: [&str; 10] = ["a", "Z", "0", "[", "]", " ", "\"", "\\", "\n", "é→𝄞"];
    (0..g.len(0..12)).map(|_| g.pick(&ALPHABET)).collect()
}

fn gen_provider(g: &mut Gen) -> String {
    match g.range(0..3u8) {
        0 => gen_text(g),
        _ => g.pick(&["Aliyun", "Windows Azure", "Amazon S3", "Rack\"space", "a]b"]).to_string(),
    }
}

/// A string value: short, or long enough to fill a batch by itself.
fn gen_str(g: &mut Gen) -> Val {
    let s = if g.range(0..8u8) == 0 {
        let piece = g.pick(&["x", "π→", "\"\\\n"]);
        piece.repeat(g.range(4_000..24_000usize) / piece.len())
    } else {
        gen_text(g)
    };
    Val::Str(s, g.bool())
}

fn gen_val(g: &mut Gen) -> Val {
    match g.range(0..6u8) {
        0 => Val::Bool(g.bool()),
        1 => {
            let any = g.range(..);
            Val::U64(g.pick(&[0, 1, u64::MAX, any]))
        }
        2 => Val::I64(g.range(..)),
        3 => Val::F64(g.pick(&[0.5, -0.0, 1.6e-7, 4.7e-6, f64::INFINITY, 1e300])),
        _ => gen_str(g),
    }
}

fn gen_entries(g: &mut Gen, most: usize) -> Entries {
    (0..g.len(0..most)).map(|_| (g.pick(&KEYS), gen_val(g))).collect()
}

/// A `provider.op`'s fields for `provider`, as `SimProvider` gives them.
fn op_fields(g: &mut Gen, provider: &str) -> Entries {
    let bytes = |g: &mut Gen| Val::U64(if g.bool() { 0 } else { g.range(..) });
    vec![
        ("bytes_in", bytes(g)),
        ("bytes_out", bytes(g)),
        ("cost", Val::F64(g.pick(&[1.6e-7, 4.7e-6]))),
        ("latency_ns", Val::U64(g.range(..))),
        ("op", Val::Str(g.pick(&["Put", "Get"]).into(), true)),
        ("provider", Val::Str(provider.into(), g.bool())),
    ]
}

/// How a generated group departs from the shape that shares a line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Miss {
    None,
    SecondOp,
    FaultInside,
    OtherProvider,
    TimeMoves,
    Lasts,
    StartHasFields,
    NoByteCount,
    NotAnOpSpan,
    OtherEnd,
    Interleaved,
    Unfinished,
    UnderASpan,
}

const OP_MISSES: [Miss; 12] = [
    Miss::None,
    Miss::SecondOp,
    Miss::FaultInside,
    Miss::OtherProvider,
    Miss::TimeMoves,
    Miss::Lasts,
    Miss::StartHasFields,
    Miss::NoByteCount,
    Miss::NotAnOpSpan,
    Miss::OtherEnd,
    Miss::Interleaved,
    Miss::Unfinished,
];

fn event(name: &str, fields: Entries) -> Step {
    Step::Event { name: name.into(), fields }
}

/// A per-provider span holding its `provider.op`, or a near miss of one.
fn op_group(g: &mut Gen, out: &mut Vec<Step>, miss: Miss) {
    let provider = gen_provider(g);
    let span = match miss {
        Miss::NotAnOpSpan => g.pick(&["recover_provider", "put_replicas", "fetch_replica "]),
        _ => g.pick(&OP_SPANS),
    };
    out.push(match miss {
        Miss::StartHasFields => Step::Open {
            name: format!("{span}[{provider}]"),
            label: None,
            fields: vec![(g.pick(&KEYS), gen_val(g))],
        },
        _ => Step::Open {
            name: span.into(),
            label: Some((provider.clone(), g.bool())),
            fields: vec![],
        },
    });
    let mut fields = op_fields(g, &provider);
    match miss {
        Miss::FaultInside => out.push(event("provider.fault", vec![])),
        Miss::OtherProvider => fields[5].1 = Val::Str(format!("{provider}x"), true),
        Miss::NoByteCount => drop(fields.remove(g.pick(&[0, 1, 5]))),
        Miss::TimeMoves => out.push(Step::Advance(1)),
        Miss::Interleaved => out.push(event("retry.backoff", gen_entries(g, 3))),
        _ => {}
    }
    out.push(event("provider.op", fields));
    match miss {
        Miss::SecondOp => out.push(event("provider.op", op_fields(g, &provider))),
        Miss::Lasts => out.push(Step::Advance(g.range(1..1_000))),
        Miss::Unfinished => return,
        Miss::OtherEnd => {
            // A span opened inside it outlives it: its end is not the
            // op span's.
            out.push(Step::Open { name: "inner".into(), label: None, fields: vec![] });
            out.push(Step::Close(1));
        }
        _ => {}
    }
    out.push(Step::Close(0));
}

/// A request span whose end is followed by its `replay.op`, or a near
/// miss of one.
fn replay_group(g: &mut Gen, out: &mut Vec<Step>, miss: Miss) {
    if miss == Miss::UnderASpan {
        out.push(Step::Open { name: "session".into(), label: None, fields: vec![] });
    }
    let name = g.pick(&["read_file", "create_file", "update_file"]);
    out.push(Step::Open { name: name.into(), label: None, fields: gen_entries(g, 3) });
    if g.bool() {
        op_group(g, out, Miss::None);
    }
    out.push(Step::Advance(g.range(0..3)));
    out.push(Step::Close(0));
    match miss {
        Miss::TimeMoves => out.push(Step::Advance(1)),
        Miss::Interleaved => out.push(event("scrub", gen_entries(g, 2))),
        _ => {}
    }
    let fields = vec![
        ("class", Val::Str(g.pick(&["small-read", "large-write"]).into(), true)),
        ("latency_ns", Val::U64(g.range(..))),
    ];
    if miss != Miss::Unfinished {
        out.push(event("replay.op", fields));
    }
    if miss == Miss::UnderASpan {
        out.push(Step::Close(0));
    }
}

fn gen_program(g: &mut Gen) -> Vec<Step> {
    let mut out = Vec::new();
    for _ in 0..g.len(1..40) {
        match g.weighted(&[6, 4, 2, 2, 1, 1, 2, 2, 2]) {
            0 => {
                let miss = if g.bool() { Miss::None } else { g.pick(&OP_MISSES) };
                op_group(g, &mut out, miss);
            }
            1 => {
                let miss = g.pick(&[
                    Miss::None,
                    Miss::None,
                    Miss::UnderASpan,
                    Miss::TimeMoves,
                    Miss::Interleaved,
                    Miss::Unfinished,
                ]);
                replay_group(g, &mut out, miss);
            }
            2 => out.push(Step::Event { name: gen_text(g), fields: gen_entries(g, 12) }),
            3 => {
                let label = g.bool().then(|| (gen_provider(g), g.bool()));
                let fields = if label.is_none() { gen_entries(g, 4) } else { vec![] };
                out.push(Step::Open { name: gen_text(g), label, fields });
            }
            4 => out.push(Step::Close(g.range(0..4))),
            5 => out.push(event(STALL, vec![])),
            6 => out.push(Step::Contents),
            7 => out.push(Step::Ring),
            _ => out.push(Step::Flush),
        }
    }
    out
}

/// Fills a builder's fields from `entries`, lending or handing over each
/// string as the step says.
macro_rules! feed {
    ($builder:expr, $entries:expr) => {
        for (key, value) in $entries {
            match value {
                Val::Bool(b) => $builder.field(key, *b),
                Val::U64(v) => $builder.field(key, *v),
                Val::I64(v) => $builder.field(key, *v),
                Val::F64(v) => $builder.field(key, *v),
                Val::Str(s, true) => $builder.field(key, s.as_str()),
                Val::Str(s, false) => $builder.field(key, s.clone()),
            };
        }
    };
}

/// The fields a builder given `entries` emits: one per key, the last.
fn fields_of(entries: &Entries) -> Fields {
    entries.iter().map(|(k, v)| (k.to_string(), v.value())).collect()
}

/// What the collector must have emitted, and a synchronous writer fed it.
struct Model {
    records: Vec<TraceRecord>,
    writer: TraceWriter<Vec<u8>>,
    /// Open spans, innermost last: the guard, the name, the start.
    open: Vec<(SpanGuard, String, u64)>,
    next_id: u64,
}

impl Model {
    fn emit(&mut self, record: TraceRecord) {
        record.lend(|r| self.writer.write(r));
        self.records.push(record);
    }
}

fn run(program: Vec<Step>) {
    let clock = Arc::new(ManualClock::new());
    let buf = SharedBuf::new();
    let tapped: Arc<Mutex<Vec<TraceRecord>>> = Arc::default();
    let tap = {
        let tapped = Arc::clone(&tapped);
        move |r: &RecordRef<'_>| {
            if matches!(r, RecordRef::Event { name: STALL, .. }) {
                std::thread::sleep(Duration::from_millis(2));
            }
            tapped.lock().unwrap().push(r.to_owned());
        }
    };
    let c = Collector::builder(clock.clone()).jsonl(buf.clone()).ring(1 << 16).tap(tap).build();
    let mut model = Model {
        records: Vec::new(),
        writer: TraceWriter::new(Vec::new()),
        open: Vec::new(),
        next_id: 0,
    };
    model.emit(TraceRecord::Meta {
        schema: hyrd_telemetry::TRACE_SCHEMA_VERSION,
        clock: "virtual".into(),
        t: 0,
    });
    // Spans still open at the end are closed, innermost first.
    let closing = std::iter::repeat_n(&Step::Close(0), program.len());
    for (at, step) in program.iter().chain(closing).enumerate() {
        let t = clock.now_nanos();
        match step {
            Step::Open { name, label, fields } => {
                let guard = match label {
                    Some((label, true)) => c.span_labeled(name, label),
                    Some((label, false)) => c.span_name(name, label).start(),
                    None => {
                        let mut span = c.span_with(name);
                        feed!(span, fields);
                        span.start()
                    }
                };
                model.next_id += 1;
                let id = model.next_id;
                assert_eq!(guard.id(), id, "step {at}");
                let name = match label {
                    Some((label, _)) => format!("{name}[{label}]"),
                    None => name.clone(),
                };
                let parent = model.open.last().map(|s| s.0.id());
                model.emit(TraceRecord::SpanStart {
                    id,
                    parent,
                    name: name.clone(),
                    t,
                    fields: fields_of(fields),
                });
                model.open.push((guard, name, t));
            }
            Step::Close(_) if model.open.is_empty() => {
                if at >= program.len() {
                    break;
                }
            }
            Step::Close(depth) => {
                let open = model.open.len();
                let (guard, name, start) = model.open.remove(open - 1 - depth % open);
                let id = guard.id();
                drop(guard);
                model.emit(TraceRecord::SpanEnd {
                    id,
                    name,
                    t,
                    dur_ns: t - start,
                    fields: Fields::new(),
                });
            }
            Step::Event { name, fields } => {
                let mut event = c.event(name);
                feed!(event, fields);
                event.emit();
                let span = model.open.last().map(|s| s.0.id());
                model.emit(TraceRecord::Event {
                    span,
                    name: name.clone(),
                    t,
                    fields: fields_of(fields),
                });
            }
            Step::Advance(ns) => clock.advance(*ns),
            Step::Contents => {
                assert!(buf.contents() == *model.writer.get_ref(), "contents at step {at}");
            }
            Step::Ring => {
                let ring = c.ring_records();
                assert!(ring == model.records, "ring at step {at}");
                assert!(*tapped.lock().unwrap() == ring, "tap at step {at}");
            }
            Step::Flush => {
                c.flush();
                model.writer.flush().expect("a Vec takes every byte");
                assert!(buf.contents() == *model.writer.get_ref(), "flushed trace at step {at}");
            }
        }
    }
    // Dropping the last handle writes what the writer held back, as a
    // flush would.
    drop(c);
    model.writer.flush().expect("a Vec takes every byte");
    assert!(buf.contents() == *model.writer.get_ref(), "trace after the collector is dropped");
    assert!(*tapped.lock().unwrap() == model.records, "the tap saw every record");
}

#[test]
fn every_read_of_a_sink_is_what_a_synchronous_writer_holds() {
    check(48, gen_program, run);
}

/// The values the collector stamps pass through the feed bit for bit.
#[test]
fn values_cross_the_writer_thread_unchanged() {
    let clock = Arc::new(ManualClock::new());
    let c = Collector::builder(clock).ring(16).build();
    let long = "é".repeat(40_000);
    c.event("e")
        .field("b", true)
        .field("u", u64::MAX)
        .field("i", i64::MIN)
        .field("f", -0.0)
        .field("s", long.as_str())
        .field("o", String::from("owned"))
        .emit();
    let ring = c.ring_records();
    let TraceRecord::Event { fields, .. } = &ring[1] else { panic!("{:?}", ring[1]) };
    let want: Vec<(&str, Value)> = vec![
        ("b", Value::Bool(true)),
        ("f", Value::F64(-0.0)),
        ("i", Value::I64(i64::MIN)),
        ("o", Value::Str("owned".into())),
        ("s", Value::Str(long.clone())),
        ("u", Value::U64(u64::MAX)),
    ];
    let got: Vec<(&str, Value)> = fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    assert_eq!(got, want);
    assert!(matches!(fields["f"], Value::F64(f) if f.is_sign_negative()));
}
