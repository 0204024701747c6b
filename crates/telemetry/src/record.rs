//! Trace records: the wire format of a telemetry trace.
//!
//! A trace is a sequence of records written as JSONL lines — one record
//! a line, except where [`crate::TraceWriter`] puts a provider op's span
//! and event, or a span end and its `replay.op`, on one. The first
//! record is always a `meta` line carrying [`TRACE_SCHEMA_VERSION`] and the
//! clock domain; the rest are span starts/ends and point events. All
//! timestamps are nanoseconds on the collector's clock — for simulation runs
//! that is the *virtual* `SimClock`, which is what makes traces reproducible.
//!
//! A record exists in two forms. [`RecordRef`] borrows everything — names,
//! field keys, string values — from whoever produced it: the collector's
//! builders on the way out, a line of trace text on the way back in. It
//! is what the serialiser writes, what the parser yields and what a tap
//! sees, and making one allocates nothing. [`TraceRecord`] owns its
//! strings; it is built from a `RecordRef` only where a record has to
//! outlive its source (the ring sink, `parse_line` / `parse_jsonl`).
//! Consumers that only read a record take either form through [`Record`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::json::{push_f64, push_i64, push_opt_u64, push_str_escaped, push_u64};

/// Version stamped into every trace's leading `meta` record. Bump when the
/// JSONL shape changes incompatibly (renamed fields, changed units, ...).
///
/// History:
/// * **1** — initial shape: meta / span_start / span_end / event lines.
/// * **2** — exposure-tracker enrichment: `recovery.rebuild` carries
///   `provider`; `scrub.corrupt`/`scrub.repair` carry `path` (and
///   `fragment` for erasure fragments); per-fragment `update.dirty` and
///   `read.degraded.fragment` events; `provider.status` /
///   `provider.outage_scheduled` lifecycle events; `replay.error` events
///   for refused requests.
/// * **3** — one line per provider op: a per-provider span holding just
///   its `provider.op` is one `op` line, a span end carries the
///   `replay.op` that follows it as `replay`, and `"dur_ns":0`,
///   `"parent":null` and `"span":null` are left out (see [`TraceWriter`]).
///   The records are those of schema 2; only the lines changed.
///
/// [`TraceWriter`]: crate::TraceWriter
pub const TRACE_SCHEMA_VERSION: u32 = 3;

/// A typed field value attached to a span or event, owning its string.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl Value {
    /// The string payload, if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The integer payload, if this is a `U64` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The same value, borrowing the string.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::U64(v) => ValueRef::U64(*v),
            Value::I64(v) => ValueRef::I64(*v),
            Value::F64(v) => ValueRef::F64(*v),
            Value::Str(s) => ValueRef::Str(Cow::Borrowed(s)),
        }
    }
}

/// A field value whose string is borrowed where it can be: from the
/// instrumented call site, or from the trace line it was parsed out of.
/// It is owned only when a caller handed a `String` over or the parser had
/// to resolve escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef<'a> {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Cow<'a, str>),
}

impl ValueRef<'_> {
    pub(crate) fn push_json(&self, out: &mut Vec<u8>) {
        match self {
            ValueRef::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            ValueRef::U64(v) => push_u64(out, *v),
            ValueRef::I64(v) => push_i64(out, *v),
            ValueRef::F64(v) => push_f64(out, *v),
            ValueRef::Str(s) => push_str_escaped(out, s),
        }
    }

    /// The string payload, if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a `U64` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ValueRef::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The same value, owning its string.
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::U64(v) => Value::U64(*v),
            ValueRef::I64(v) => Value::I64(*v),
            ValueRef::F64(v) => Value::F64(*v),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// Conversion into a field value, deferred until the collector is known to
/// be enabled. Nothing here allocates: a `&str` stays borrowed for the
/// builder's lifetime and a `String` is moved in.
pub trait IntoValue<'a> {
    fn into_value(self) -> ValueRef<'a>;
}

impl<'a> IntoValue<'a> for ValueRef<'a> {
    fn into_value(self) -> ValueRef<'a> {
        self
    }
}
impl<'a> IntoValue<'a> for bool {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::Bool(self)
    }
}
impl<'a> IntoValue<'a> for u64 {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::U64(self)
    }
}
impl<'a> IntoValue<'a> for u32 {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::U64(self as u64)
    }
}
impl<'a> IntoValue<'a> for usize {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::U64(self as u64)
    }
}
impl<'a> IntoValue<'a> for i64 {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::I64(self)
    }
}
impl<'a> IntoValue<'a> for i32 {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::I64(self as i64)
    }
}
impl<'a> IntoValue<'a> for f64 {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::F64(self)
    }
}
impl<'a> IntoValue<'a> for &'a str {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::Str(Cow::Borrowed(self))
    }
}
impl<'a> IntoValue<'a> for String {
    fn into_value(self) -> ValueRef<'a> {
        ValueRef::Str(Cow::Owned(self))
    }
}

/// Key/value fields on an owned record. `BTreeMap` keeps JSON key order
/// sorted and therefore deterministic.
pub type Fields = BTreeMap<String, Value>;

/// One `(key, value)` pair of a borrowed record.
pub type Field<'a> = (Cow<'a, str>, ValueRef<'a>);

/// Fields a record can carry without touching the heap; `provider.op`,
/// the busiest record, has six.
const INLINE_FIELDS: usize = 8;

const NO_FIELD: Field<'static> = (Cow::Borrowed(""), ValueRef::Bool(false));

/// `a.cmp(b)` for field keys, settled on the first byte where it can be:
/// the keys of one record rarely share it, and a whole-string compare is a
/// call.
#[inline]
fn key_cmp(a: &str, b: &str) -> Ordering {
    match a.as_bytes().first().cmp(&b.as_bytes().first()) {
        Ordering::Equal => a.cmp(b),
        first => first,
    }
}

/// The fields of one record: the first [`INLINE_FIELDS`] inline, a larger
/// record on the heap. The builders [`insert`](Self::insert) — keeping the
/// fields the way the trace prints them, sorted by key with one value per
/// key, the last one set, so the record serialises as it stands — and the
/// parser [`push`](Self::push)es them in line order.
pub(crate) struct FieldBuf<'a> {
    inline: [Field<'a>; INLINE_FIELDS],
    /// Fields in use in `inline`; unused once `spill` has taken over.
    len: usize,
    spill: Vec<Field<'a>>,
}

impl Default for FieldBuf<'_> {
    fn default() -> Self {
        FieldBuf { inline: [NO_FIELD; INLINE_FIELDS], len: 0, spill: Vec::new() }
    }
}

impl<'a> FieldBuf<'a> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[Field<'a>] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Empties the buffer, keeping the heap part's storage. The inline
    /// slots keep what they held until they are filled again.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Moves the inline fields to the heap, once a record outgrows them.
    #[cold]
    fn spill(&mut self) {
        self.spill.extend(self.inline.iter_mut().map(|f| std::mem::replace(f, NO_FIELD)));
        self.len = 0;
    }

    /// Appends the field `(key, value)`, after whatever is there.
    #[inline(always)]
    pub(crate) fn push(&mut self, key: Cow<'a, str>, value: ValueRef<'a>) {
        if self.len == INLINE_FIELDS {
            self.spill();
        }
        if self.spill.is_empty() {
            self.put(self.len, key, value);
            self.len += 1;
        } else {
            self.spill.push((key, value));
        }
    }

    /// Fills the unused slot `at`, key and value each written where they
    /// are: a whole field put together first is a 48-byte copy through
    /// the stack. What the slot held is dropped once the field is in, not
    /// before — a drop might free, and the field would wait out that call
    /// on the stack.
    #[inline(always)]
    fn put(&mut self, at: usize, key: Cow<'a, str>, value: ValueRef<'a>) {
        let slot = &mut self.inline[at];
        drop(std::mem::replace(&mut slot.0, key));
        drop(std::mem::replace(&mut slot.1, value));
    }

    /// `BTreeMap::insert` on a sorted array: a new key takes its sorted
    /// place, a repeated key keeps its place and takes the new value.
    #[inline]
    pub(crate) fn insert(&mut self, key: &'static str, value: ValueRef<'a>) {
        if !self.spill.is_empty() {
            match self.spill.binary_search_by(|(k, _)| key_cmp(k, key)) {
                Ok(at) => self.spill[at].1 = value,
                Err(at) => self.spill.insert(at, (Cow::Borrowed(key), value)),
            }
            return;
        }
        // A handful of fields at most: walk back from the end to the
        // key's place. A field given in key order — as the busiest call
        // sites give theirs — lands at the end; any other shifts the tail
        // up by one through `carry`.
        let mut at = self.len;
        while at > 0 {
            match key_cmp(&self.inline[at - 1].0, key) {
                Ordering::Less => break,
                Ordering::Equal => {
                    self.inline[at - 1].1 = value;
                    return;
                }
                Ordering::Greater => at -= 1,
            }
        }
        if self.len == INLINE_FIELDS {
            self.spill();
            self.spill.insert(at, (Cow::Borrowed(key), value));
            return;
        }
        if at == self.len {
            self.put(at, Cow::Borrowed(key), value);
        } else {
            let mut carry = (Cow::Borrowed(key), value);
            for slot in &mut self.inline[at..=self.len] {
                std::mem::swap(slot, &mut carry);
            }
        }
        self.len += 1;
    }
}

/// Which of the four record shapes a record has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    Meta,
    SpanStart,
    SpanEnd,
    Event,
}

/// Read access to a record in either form, for consumers that fold
/// records without keeping them (the observatory).
pub trait Record {
    fn kind(&self) -> RecordKind;
    /// The record's timestamp on the trace clock, nanoseconds.
    fn t(&self) -> u64;
    /// The span or event name; meta records have none.
    fn name(&self) -> Option<&str>;
    /// `(schema, clock domain)` of a meta record.
    fn meta(&self) -> Option<(u32, &str)>;
    /// Field `key` as a string, if present and a string.
    fn field_str(&self, key: &str) -> Option<&str>;
    /// Field `key` as a u64, if present and an unsigned integer.
    fn field_u64(&self, key: &str) -> Option<u64>;
    /// Every field as `(key, as a string, as a u64)` — [`Self::field_str`]
    /// and [`Self::field_u64`] of all keys in one pass, for a reader that
    /// wants several. A repeated key is passed once per occurrence, the
    /// last last, as lookups take its last value.
    fn each_field<'s>(&'s self, f: &mut dyn FnMut(&'s str, Option<&'s str>, Option<u64>));
}

/// One line of a trace, borrowing its strings (see the module docs).
///
/// `fields` is in trace order. What the collector emits is sorted by key
/// with one value per key; a record parsed from a foreign line may repeat a
/// key, and then the last occurrence is the field's value, as it is in
/// the owned form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordRef<'a> {
    /// Leading record: schema version and clock domain (a collector writes "virtual").
    Meta { schema: u32, clock: &'a str, t: u64 },
    /// A span opened at `t`; `parent` links to the enclosing span, if any.
    SpanStart { id: u64, parent: Option<u64>, name: &'a str, t: u64, fields: &'a [Field<'a>] },
    /// The matching close: `dur_ns` is `t_end - t_start` on the trace clock.
    SpanEnd { id: u64, name: &'a str, t: u64, dur_ns: u64, fields: &'a [Field<'a>] },
    /// A point event, attributed to the innermost open span (if any).
    Event { span: Option<u64>, name: &'a str, t: u64, fields: &'a [Field<'a>] },
}

/// Appends `,"<key>":{…}` holding `fields`, empty or not. `key` is a
/// plain identifier.
pub(crate) fn push_object(out: &mut Vec<u8>, key: &str, fields: &[Field<'_>]) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_str_escaped(out, k);
        out.push(b':');
        v.push_json(out);
    }
    out.push(b'}');
}

/// Appends a record's `,"fields":{…}`, or nothing when it has none.
fn push_fields(out: &mut Vec<u8>, fields: &[Field<'_>]) {
    if !fields.is_empty() {
        push_object(out, "fields", fields);
    }
}

/// Appends a span start's keys after its `kind`: `,"id":…,"parent":…,
/// "name":…,"t":…`. `compact` leaves out `"parent":null`.
pub(crate) fn push_span_head(
    out: &mut Vec<u8>,
    id: u64,
    parent: Option<u64>,
    name: &str,
    t: u64,
    compact: bool,
) {
    out.extend_from_slice(b",\"id\":");
    push_u64(out, id);
    if !compact || parent.is_some() {
        out.extend_from_slice(b",\"parent\":");
        push_opt_u64(out, parent);
    }
    out.extend_from_slice(b",\"name\":");
    push_str_escaped(out, name);
    out.extend_from_slice(b",\"t\":");
    push_u64(out, t);
}

impl RecordRef<'_> {
    /// Append this record as a single JSON object (no trailing newline) in
    /// the plain layout: every key written, one record per object — the
    /// layout of schema 2, and of `trace_report --expand`. Key order is
    /// fixed here and fields are written in slice order; see the `json`
    /// module for why this is hand-rolled. What it appends is UTF-8.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        self.write_open(out, false);
        out.push(b'}');
    }

    /// The record's object without its closing brace, so that a writer
    /// can add a key. `compact` leaves out the keys whose value the parser
    /// supplies when they are absent: `"dur_ns":0`, `"parent":null` and
    /// `"span":null`.
    pub(crate) fn write_open(&self, out: &mut Vec<u8>, compact: bool) {
        match *self {
            RecordRef::Meta { schema, clock, t } => {
                out.extend_from_slice(b"{\"kind\":\"meta\",\"schema\":");
                push_u64(out, schema.into());
                out.extend_from_slice(b",\"clock\":");
                push_str_escaped(out, clock);
                out.extend_from_slice(b",\"t\":");
                push_u64(out, t);
            }
            RecordRef::SpanStart { id, parent, name, t, fields } => {
                out.extend_from_slice(b"{\"kind\":\"span_start\"");
                push_span_head(out, id, parent, name, t, compact);
                push_fields(out, fields);
            }
            RecordRef::SpanEnd { id, name, t, dur_ns, fields } => {
                out.extend_from_slice(b"{\"kind\":\"span_end\",\"id\":");
                push_u64(out, id);
                out.extend_from_slice(b",\"name\":");
                push_str_escaped(out, name);
                out.extend_from_slice(b",\"t\":");
                push_u64(out, t);
                if !compact || dur_ns != 0 {
                    out.extend_from_slice(b",\"dur_ns\":");
                    push_u64(out, dur_ns);
                }
                push_fields(out, fields);
            }
            RecordRef::Event { span, name, t, fields } => {
                out.extend_from_slice(b"{\"kind\":\"event\"");
                if !compact || span.is_some() {
                    out.extend_from_slice(b",\"span\":");
                    push_opt_u64(out, span);
                }
                out.extend_from_slice(b",\"name\":");
                push_str_escaped(out, name);
                out.extend_from_slice(b",\"t\":");
                push_u64(out, t);
                push_fields(out, fields);
            }
        }
    }

    /// The record's fields (none on a meta record).
    pub fn fields(&self) -> &[Field<'_>] {
        match self {
            RecordRef::Meta { .. } => &[],
            RecordRef::SpanStart { fields, .. }
            | RecordRef::SpanEnd { fields, .. }
            | RecordRef::Event { fields, .. } => fields,
        }
    }

    fn field(&self, key: &str) -> Option<&ValueRef<'_>> {
        self.fields().iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The owned form of this record.
    pub fn to_owned(&self) -> TraceRecord {
        // Inserted one by one — a repeated key's last value wins, as it
        // would collected — so no intermediate vector is built and sorted.
        let owned = |fields: &[Field<'_>]| -> Fields {
            let mut owned = Fields::new();
            for (k, v) in fields {
                owned.insert(k.to_string(), v.to_value());
            }
            owned
        };
        match *self {
            RecordRef::Meta { schema, clock, t } => {
                TraceRecord::Meta { schema, clock: clock.to_string(), t }
            }
            RecordRef::SpanStart { id, parent, name, t, fields } => TraceRecord::SpanStart {
                id,
                parent,
                name: name.to_string(),
                t,
                fields: owned(fields),
            },
            RecordRef::SpanEnd { id, name, t, dur_ns, fields } => TraceRecord::SpanEnd {
                id,
                name: name.to_string(),
                t,
                dur_ns,
                fields: owned(fields),
            },
            RecordRef::Event { span, name, t, fields } => {
                TraceRecord::Event { span, name: name.to_string(), t, fields: owned(fields) }
            }
        }
    }
}

impl Record for RecordRef<'_> {
    fn kind(&self) -> RecordKind {
        match self {
            RecordRef::Meta { .. } => RecordKind::Meta,
            RecordRef::SpanStart { .. } => RecordKind::SpanStart,
            RecordRef::SpanEnd { .. } => RecordKind::SpanEnd,
            RecordRef::Event { .. } => RecordKind::Event,
        }
    }

    fn t(&self) -> u64 {
        match self {
            RecordRef::Meta { t, .. }
            | RecordRef::SpanStart { t, .. }
            | RecordRef::SpanEnd { t, .. }
            | RecordRef::Event { t, .. } => *t,
        }
    }

    fn name(&self) -> Option<&str> {
        match self {
            RecordRef::Meta { .. } => None,
            RecordRef::SpanStart { name, .. }
            | RecordRef::SpanEnd { name, .. }
            | RecordRef::Event { name, .. } => Some(name),
        }
    }

    fn meta(&self) -> Option<(u32, &str)> {
        match self {
            RecordRef::Meta { schema, clock, .. } => Some((*schema, clock)),
            _ => None,
        }
    }

    fn field_str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(ValueRef::as_str)
    }

    fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(ValueRef::as_u64)
    }

    #[inline]
    fn each_field<'s>(&'s self, f: &mut dyn FnMut(&'s str, Option<&'s str>, Option<u64>)) {
        for (k, v) in self.fields() {
            f(k, v.as_str(), v.as_u64());
        }
    }
}

/// One line of a trace, owning its strings.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// Leading record: schema version and clock domain (a collector writes "virtual").
    Meta { schema: u32, clock: String, t: u64 },
    /// A span opened at `t`; `parent` links to the enclosing span, if any.
    SpanStart { id: u64, parent: Option<u64>, name: String, t: u64, fields: Fields },
    /// The matching close: `dur_ns` is `t_end - t_start` on the trace clock.
    SpanEnd { id: u64, name: String, t: u64, dur_ns: u64, fields: Fields },
    /// A point event, attributed to the innermost open span (if any).
    Event { span: Option<u64>, name: String, t: u64, fields: Fields },
}

impl TraceRecord {
    /// Render this record as a single JSON object (no trailing newline),
    /// through [`RecordRef::write_json`].
    pub fn to_json(&self) -> String {
        let fields: Vec<Field<'_>> = self
            .fields()
            .into_iter()
            .flatten()
            .map(|(k, v)| (Cow::Borrowed(k.as_str()), v.as_ref()))
            .collect();
        let borrowed = match self {
            TraceRecord::Meta { schema, clock, t } => {
                RecordRef::Meta { schema: *schema, clock, t: *t }
            }
            TraceRecord::SpanStart { id, parent, name, t, .. } => {
                RecordRef::SpanStart { id: *id, parent: *parent, name, t: *t, fields: &fields }
            }
            TraceRecord::SpanEnd { id, name, t, dur_ns, .. } => {
                RecordRef::SpanEnd { id: *id, name, t: *t, dur_ns: *dur_ns, fields: &fields }
            }
            TraceRecord::Event { span, name, t, .. } => {
                RecordRef::Event { span: *span, name, t: *t, fields: &fields }
            }
        };
        let mut line = Vec::with_capacity(96);
        borrowed.write_json(&mut line);
        String::from_utf8(line).expect("the writer emits UTF-8")
    }

    /// The record's `name` (span or event name); meta records have none.
    pub fn name(&self) -> Option<&str> {
        match self {
            TraceRecord::Meta { .. } => None,
            TraceRecord::SpanStart { name, .. }
            | TraceRecord::SpanEnd { name, .. }
            | TraceRecord::Event { name, .. } => Some(name.as_str()),
        }
    }

    /// The record's fields (none on a meta record).
    pub fn fields(&self) -> Option<&Fields> {
        match self {
            TraceRecord::Meta { .. } => None,
            TraceRecord::SpanStart { fields, .. }
            | TraceRecord::SpanEnd { fields, .. }
            | TraceRecord::Event { fields, .. } => Some(fields),
        }
    }

    /// True for an `Event` record with the given name.
    pub fn is_event(&self, event_name: &str) -> bool {
        matches!(self, TraceRecord::Event { name, .. } if name == event_name)
    }

    /// Convenience: field `key` as a string, if present.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields().and_then(|f| f.get(key)).and_then(Value::as_str)
    }

    /// Convenience: field `key` as a u64, if present.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields().and_then(|f| f.get(key)).and_then(Value::as_u64)
    }
}

impl Record for TraceRecord {
    fn kind(&self) -> RecordKind {
        match self {
            TraceRecord::Meta { .. } => RecordKind::Meta,
            TraceRecord::SpanStart { .. } => RecordKind::SpanStart,
            TraceRecord::SpanEnd { .. } => RecordKind::SpanEnd,
            TraceRecord::Event { .. } => RecordKind::Event,
        }
    }

    fn t(&self) -> u64 {
        match self {
            TraceRecord::Meta { t, .. }
            | TraceRecord::SpanStart { t, .. }
            | TraceRecord::SpanEnd { t, .. }
            | TraceRecord::Event { t, .. } => *t,
        }
    }

    fn name(&self) -> Option<&str> {
        TraceRecord::name(self)
    }

    fn meta(&self) -> Option<(u32, &str)> {
        match self {
            TraceRecord::Meta { schema, clock, .. } => Some((*schema, clock)),
            _ => None,
        }
    }

    fn field_str(&self, key: &str) -> Option<&str> {
        TraceRecord::field_str(self, key)
    }

    fn field_u64(&self, key: &str) -> Option<u64> {
        TraceRecord::field_u64(self, key)
    }

    #[inline]
    fn each_field<'s>(&'s self, f: &mut dyn FnMut(&'s str, Option<&'s str>, Option<u64>)) {
        for (k, v) in self.fields().into_iter().flatten() {
            f(k, v.as_str(), v.as_u64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_json_shape() {
        let r = TraceRecord::Meta { schema: TRACE_SCHEMA_VERSION, clock: "virtual".into(), t: 0 };
        assert_eq!(r.to_json(), "{\"kind\":\"meta\",\"schema\":3,\"clock\":\"virtual\",\"t\":0}");
    }

    #[test]
    fn event_json_sorted_fields() {
        let mut f = Fields::new();
        f.insert("zeta".into(), Value::U64(9));
        f.insert("alpha".into(), Value::Str("a\"b".into()));
        f.insert("neg".into(), Value::I64(-3));
        let r =
            TraceRecord::Event { span: Some(4), name: "provider.fault".into(), t: 17, fields: f };
        assert_eq!(
            r.to_json(),
            "{\"kind\":\"event\",\"span\":4,\"name\":\"provider.fault\",\"t\":17,\
             \"fields\":{\"alpha\":\"a\\\"b\",\"neg\":-3,\"zeta\":9}}"
        );
    }

    #[test]
    fn span_records_roundtrip_names() {
        let start = TraceRecord::SpanStart {
            id: 1,
            parent: None,
            name: "read_file".into(),
            t: 5,
            fields: Fields::new(),
        };
        assert_eq!(
            start.to_json(),
            "{\"kind\":\"span_start\",\"id\":1,\"parent\":null,\"name\":\"read_file\",\"t\":5}"
        );
        let end = TraceRecord::SpanEnd {
            id: 1,
            name: "read_file".into(),
            t: 9,
            dur_ns: 4,
            fields: Fields::new(),
        };
        assert_eq!(end.name(), Some("read_file"));
        assert!(end.to_json().contains("\"dur_ns\":4"));
    }

    #[test]
    fn field_buf_sorts_replaces_and_spills_like_a_map() {
        const KEYS: [&str; 12] = ["k", "c", "x", "a", "c", "m", "b", "z", "y", "d", "e", "k"];
        let mut buf = FieldBuf::default();
        let mut map = BTreeMap::new();
        for (i, key) in KEYS.into_iter().enumerate() {
            buf.insert(key, ValueRef::U64(i as u64));
            map.insert(key, i as u64);
            let got: Vec<(&str, u64)> =
                buf.as_slice().iter().map(|(k, v)| (k.as_ref(), v.as_u64().unwrap())).collect();
            let want: Vec<(&str, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "after {} inserts", i + 1);
        }
        assert!(map.len() > INLINE_FIELDS, "the walk crosses the spill point");
    }

    #[test]
    fn field_buf_pushes_in_line_order_and_is_reused_after_clear() {
        let mut buf = FieldBuf::default();
        let field = |i: usize| -> Field<'static> {
            (Cow::Owned(format!("k{}", 12 - i)), ValueRef::Str(Cow::Owned(i.to_string())))
        };
        for round in 0..3 {
            // Past the inline capacity on the first round, short after.
            let n = [12, 3, 8][round];
            buf.clear();
            for i in 0..n {
                let (k, v) = field(i);
                buf.push(k, v);
            }
            let want: Vec<Field<'_>> = (0..n).map(field).collect();
            assert_eq!(buf.as_slice(), &want[..], "round {round}");
        }
        buf.clear();
        assert!(buf.as_slice().is_empty());
    }

    #[test]
    fn borrowed_lookup_takes_the_last_of_a_repeated_key() {
        let fields: [Field<'_>; 3] = [
            ("k".into(), ValueRef::U64(1)),
            ("other".into(), ValueRef::Str("s".into())),
            ("k".into(), ValueRef::U64(2)),
        ];
        let r = RecordRef::Event { span: None, name: "e", t: 0, fields: &fields };
        assert_eq!(r.field_u64("k"), Some(2));
        assert_eq!(r.field_str("other"), Some("s"));
        assert_eq!(r.to_owned().field_u64("k"), Some(2));
    }
}
