//! The JSONL writer: which records share a line.
//!
//! Every record is written as [`RecordRef::write_json`] lays it out, less
//! the keys whose value goes without saying — `"dur_ns":0`,
//! `"parent":null`, `"span":null` — except in two shapes, which put
//! several records on one line:
//!
//! * **Op line.** A span named `put_replica[P]`, `fetch_replica[P]`,
//!   `put_fragment[P]` or `fetch_fragment[P]` whose start has no fields,
//!   that holds exactly one `provider.op` event for provider `P` and
//!   nothing else, all at one instant, and whose end has no fields, is
//!   one line:
//!   `{"kind":"op","id":…,"parent":…,"name":…,"t":…,"fields":{…}}`. The
//!   fields are the event's, less `provider` (the span's name says it)
//!   and less a `bytes_in` / `bytes_out` of 0.
//! * **Replay on the span end.** A span end followed at the same instant
//!   by a `replay.op` event outside every span — a request's root span
//!   and the replay driver's record of the request — is the span end's
//!   line with the event's fields under `"replay"`.
//!
//! The parser expands each line back into exactly the records the writer
//! was given (the fields in their order, the left-out keys and values
//! put back), so a reader sees the record stream of a trace, never its
//! lines. No line depends on another: a trace cut at a line boundary
//! still parses.
//!
//! Whether a record fuses depends on the records after it, so the writer
//! holds back a per-provider span's start (then its op) and a span end
//! until the next record settles it; [`TraceWriter::flush`] writes what
//! it holds, as does dropping the writer. Holding copies bytes into
//! buffers the writer keeps: on known ground it allocates nothing.

use std::io::Write;

use crate::parse::LineParser;
use crate::record::{push_object, push_span_head, Field, RecordRef, ValueRef};

/// The spans an op line stands for, each named `<span>[<provider>]`.
const OP_SPANS: [&str; 4] = ["put_replica", "fetch_replica", "put_fragment", "fetch_fragment"];

/// The event an op line carries.
pub(crate) const OP_EVENT: &str = "provider.op";

/// The event a span end's line may carry, under [`REPLAY_KEY`].
pub(crate) const REPLAY_EVENT: &str = "replay.op";
pub(crate) const REPLAY_KEY: &str = "replay";

/// The op event's provider field, which an op line leaves to the name.
pub(crate) const PROVIDER_KEY: &str = "provider";

/// The op event's byte counts, which an op line leaves out when 0.
pub(crate) const BYTE_KEYS: [&str; 2] = ["bytes_in", "bytes_out"];

/// How an op line starts; a held span start is written after it.
const OP_KIND: &[u8] = b"{\"kind\":\"op\"";
const SPAN_START_KIND: &[u8] = b"{\"kind\":\"span_start\"";

/// The provider `P` of a span named `X[P]` whose `X` is one of the
/// per-provider spans an op line stands for.
pub(crate) fn op_span_provider(name: &str) -> Option<&str> {
    let (span, rest) = name.split_once('[')?;
    let provider = rest.strip_suffix(']')?;
    OP_SPANS.contains(&span).then_some(provider)
}

/// What the writer has taken but not yet written; its bytes are in
/// [`TraceWriter::held`].
#[derive(Clone, Copy)]
enum Held {
    Nothing,
    /// A per-provider span's start: [`OP_KIND`] and the start's keys.
    Start {
        id: u64,
        t: u64,
    },
    /// That start and its `provider.op`: the op line, less its closing
    /// brace.
    Op {
        id: u64,
        t: u64,
    },
    /// A span end, less its closing brace.
    End {
        t: u64,
    },
}

/// Writes records to `out` as the lines of a trace (see the module
/// docs). The collector's JSONL sink is one; a test or a tool that has
/// records in hand makes its own.
pub struct TraceWriter<W: Write> {
    out: W,
    state: Held,
    /// The held record's bytes.
    held: Vec<u8>,
    /// The held span's name.
    name: String,
    /// The line being written, reused from line to line.
    line: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    pub fn new(out: W) -> Self {
        TraceWriter {
            out,
            state: Held::Nothing,
            held: Vec::new(),
            name: String::new(),
            line: Vec::new(),
        }
    }

    /// The sink, holding what has been written so far: after
    /// [`Self::flush`], every record.
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    /// Takes the next record of the trace.
    pub fn write(&mut self, rec: &RecordRef<'_>) {
        let state = self.state;
        let fused = match state {
            Held::Nothing => false,
            Held::Start { id, t } => match *rec {
                RecordRef::Event { span: Some(span), name: OP_EVENT, t: at, fields }
                    if span == id && at == t && self.fuse_op(fields) =>
                {
                    self.state = Held::Op { id, t };
                    return;
                }
                _ => false,
            },
            Held::Op { id, t } => matches!(*rec,
                RecordRef::SpanEnd { id: end, name, t: at, dur_ns: 0, fields: [] }
                    if end == id && at == t && name == self.name),
            Held::End { t } => match *rec {
                RecordRef::Event { span: None, name: REPLAY_EVENT, t: at, fields } if at == t => {
                    push_object(&mut self.held, REPLAY_KEY, fields);
                    true
                }
                _ => false,
            },
        };
        if fused {
            self.held.extend_from_slice(b"}\n");
            emit(&mut self.out, &self.held);
            self.state = Held::Nothing;
            return;
        }
        self.release();
        self.take(rec);
    }

    /// Writes what the writer holds, then flushes the sink.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.release();
        self.out.flush()
    }

    /// Holds `rec` if a later record may share its line, else writes it.
    /// Nothing is held.
    fn take(&mut self, rec: &RecordRef<'_>) {
        match *rec {
            RecordRef::SpanStart { id, parent, name, t, fields: [] }
                if op_span_provider(name).is_some() =>
            {
                self.held.clear();
                self.held.extend_from_slice(OP_KIND);
                push_span_head(&mut self.held, id, parent, name, t, true);
                self.name.clear();
                self.name.push_str(name);
                self.state = Held::Start { id, t };
            }
            RecordRef::SpanEnd { t, .. } => {
                self.held.clear();
                rec.write_open(&mut self.held, true);
                self.state = Held::End { t };
            }
            _ => {
                self.line.clear();
                rec.write_open(&mut self.line, true);
                self.line.extend_from_slice(b"}\n");
                emit(&mut self.out, &self.line);
            }
        }
    }

    /// Appends the op line's fields to a held span start, if `fields` —
    /// a `provider.op` at the span's instant — is one the parser will give
    /// back as it is: keys strictly in order (the parser puts the left-out
    /// keys back in their sorted place), the span's provider, both byte
    /// counts, and no float without a JSON number (which reads back as
    /// nothing a near miss could be written from).
    fn fuse_op(&mut self, fields: &[Field<'_>]) -> bool {
        let provider = op_span_provider(&self.name).expect("a held start names a provider");
        let mut seen = [false; 3];
        for (at, (key, value)) in fields.iter().enumerate() {
            if at > 0 && fields[at - 1].0 >= *key {
                return false;
            }
            match (key.as_ref(), value) {
                (_, ValueRef::F64(v)) if !v.is_finite() => return false,
                (PROVIDER_KEY, ValueRef::Str(p)) if p == provider => seen[0] = true,
                (PROVIDER_KEY, _) => return false,
                (k, _) if k == BYTE_KEYS[0] => seen[1] = true,
                (k, _) if k == BYTE_KEYS[1] => seen[2] = true,
                _ => {}
            }
        }
        if seen != [true; 3] {
            return false;
        }
        let mut first = true;
        for (key, value) in fields {
            let implied = match (key.as_ref(), value) {
                (PROVIDER_KEY, _) => true,
                (k, ValueRef::U64(0)) => BYTE_KEYS.contains(&k),
                _ => false,
            };
            if implied {
                continue;
            }
            self.held.extend_from_slice(if first { b",\"fields\":{" } else { b"," });
            first = false;
            crate::json::push_str_escaped(&mut self.held, key);
            self.held.push(b':');
            value.push_json(&mut self.held);
        }
        if !first {
            self.held.push(b'}');
        }
        true
    }

    /// Writes what is held as the records stand, none sharing a line.
    fn release(&mut self) {
        match std::mem::replace(&mut self.state, Held::Nothing) {
            Held::Nothing => {}
            Held::Start { .. } => {
                self.line.clear();
                self.line.extend_from_slice(SPAN_START_KIND);
                self.line.extend_from_slice(&self.held[OP_KIND.len()..]);
                self.line.extend_from_slice(b"}\n");
                emit(&mut self.out, &self.line);
            }
            Held::Op { .. } => {
                // A near miss: the op line's expansion begins with the
                // span start and the event as they were given; the span
                // end it closes with was not.
                self.held.push(b'}');
                let text = std::str::from_utf8(&self.held).expect("the writer writes UTF-8");
                let mut parser = LineParser::new();
                let records = parser.parse(text).expect("an op line the writer made parses");
                for rec in &records[..2] {
                    self.line.clear();
                    rec.write_open(&mut self.line, true);
                    self.line.extend_from_slice(b"}\n");
                    emit(&mut self.out, &self.line);
                }
            }
            Held::End { .. } => {
                self.held.extend_from_slice(b"}\n");
                emit(&mut self.out, &self.held);
            }
        }
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Hands one finished line, or several, to the sink. A sink error drops
/// the bytes: telemetry never fails the request it watches.
fn emit(out: &mut impl Write, bytes: &[u8]) {
    let _ = out.write_all(bytes);
}
