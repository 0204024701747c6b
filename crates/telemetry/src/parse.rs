//! Trace parsing: the inverse of [`RecordRef::write_json`].
//!
//! The observatory and the `trace_report` analyzer consume traces that
//! were written by this crate's own hand-rolled emitter, so the parser
//! here is deliberately small: a JSON reader covering exactly the shapes
//! the emitter produces (flat objects of scalars plus one nested `fields`
//! object; unknown keys may hold scalars or nested objects and are
//! skipped, arrays are refused). Keeping it dependency-free means the
//! whole trace → report pipeline stays testable in minimal environments
//! and byte-level behaviour never drifts with an external serializer.
//!
//! It reads a line once, left to right, and yields a [`RecordRef`] that
//! borrows its strings from the line: a string is copied only when it
//! contains escapes, and a [`LineParser`] keeps its field storage between
//! lines, so streaming a trace allocates nothing per record.
//! [`parse_line`] / [`parse_jsonl`] are the same parser followed by
//! [`RecordRef::to_owned`]. A key that occurs twice takes its last value,
//! at the top level and inside `fields`, as it would in a map.
//!
//! Number mapping is type-directed rather than syntax-preserving: a
//! bare integer becomes `U64` (or `I64` when negative), anything
//! with a fraction or exponent becomes `F64`. A float that the
//! emitter printed without a fractional part (`3`) therefore reads back
//! as `U64(3)` — acceptable lossiness for analysis, called out here so
//! nobody relies on exact `Value` round-trips for integral floats.

use std::borrow::Cow;

use crate::record::{Field, RecordRef, TraceRecord, Value, ValueRef};

/// Why a line failed to parse. The line number (0-based) is attached by
/// [`for_each_record`] and [`parse_jsonl`]; single-line entry points
/// report position only.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset within the line where parsing gave up.
    pub at: usize,
    /// Human-readable description of what went wrong.
    pub what: String,
}

impl ParseError {
    fn new(at: usize, what: impl Into<String>) -> Self {
        ParseError { at, what: what.into() }
    }

    /// This error with the 0-based number of the line it came from folded
    /// into the message.
    pub fn on_line(self, line: usize) -> Self {
        ParseError { at: self.at, what: format!("line {line}: {}", self.what) }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value, only as rich as the trace format needs. Nested
/// objects are checked and skipped, never built.
#[derive(Debug, Default)]
enum Json<'a> {
    #[default]
    Absent,
    Null,
    Scalar(ValueRef<'a>),
    Object,
}

impl<'a> Json<'a> {
    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self {
            Json::Scalar(ValueRef::U64(v)) => Ok(*v),
            _ => Err(ParseError::new(0, format!("missing or non-integer '{key}'"))),
        }
    }

    /// `parent` / `span`: an id, or `null` / absent for none.
    fn opt_u64(&self, key: &str) -> Result<Option<u64>, ParseError> {
        match self {
            Json::Scalar(ValueRef::U64(v)) => Ok(Some(*v)),
            Json::Null | Json::Absent => Ok(None),
            _ => Err(ParseError::new(0, format!("bad '{key}'"))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self {
            Json::Scalar(ValueRef::Str(s)) => Ok(s),
            _ => Err(ParseError::new(0, format!("missing or non-string '{key}'"))),
        }
    }
}

/// Where the stretch of string body starting at `from` stops: at the next
/// `"` or `\`, or at the end of the text. Both are ASCII, so they never
/// occur inside a multi-byte character and the stretch is sliceable.
fn plain_end(text: &str, from: usize) -> usize {
    text.as_bytes()[from..]
        .iter()
        .position(|b| matches!(b, b'"' | b'\\'))
        .map_or(text.len(), |n| from + n)
}

/// Position in one line.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// Any value. A nested object is validated and reported as
    /// [`Json::Object`] without being built.
    fn value(&mut self) -> Result<Json<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.skip_object().map(|()| Json::Object),
            Some(b'"') => Ok(Json::Scalar(ValueRef::Str(self.string()?))),
            Some(b't') => self.literal("true", Json::Scalar(ValueRef::Bool(true))),
            Some(b'f') => self.literal("false", Json::Scalar(ValueRef::Bool(false))),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Scalar),
            Some(b'[') => Err(self.err("arrays are not part of the trace format")),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    /// The members of the object at the cursor, in order: `on_member` is
    /// called after each `"key":` and must consume the value.
    fn members(
        &mut self,
        mut on_member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            on_member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Checks the object at the cursor, and whatever objects it nests,
    /// against the grammar without building anything. Nesting is counted,
    /// not recursed into, so depth costs no stack.
    fn skip_object(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            // At a '{'.
            self.expect(b'{')?;
            depth += 1;
            self.skip_ws();
            let mut after_value = self.peek() == Some(b'}');
            loop {
                if after_value {
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            depth -= 1;
                            if depth == 0 {
                                return Ok(());
                            }
                            continue;
                        }
                        _ => return Err(self.err("expected ',' or '}' in object")),
                    }
                }
                self.skip_ws();
                self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                if self.peek() == Some(b'{') {
                    break;
                }
                self.value()?;
                after_value = true;
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = plain_end(self.text, start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    let from = self.pos - 1;
                    self.pos = plain_end(self.text, from);
                    out.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been consumed,
    /// combining a surrogate pair if one follows.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) && self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            let save = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
            }
            self.pos = save;
        }
        char::from_u32(cp).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<ValueRef<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if float {
            text.parse().map(ValueRef::F64).map_err(|_| self.err("bad float"))
        } else if text.starts_with('-') {
            text.parse().map(ValueRef::I64).map_err(|_| self.err("bad integer"))
        } else {
            text.parse().map(ValueRef::U64).map_err(|_| self.err("bad integer"))
        }
    }
}

/// The record keys of one line, each holding the last value it was given.
#[derive(Default)]
struct Slots<'a> {
    kind: Json<'a>,
    schema: Json<'a>,
    clock: Json<'a>,
    t: Json<'a>,
    id: Json<'a>,
    parent: Json<'a>,
    name: Json<'a>,
    dur_ns: Json<'a>,
    span: Json<'a>,
    /// The last `fields` key held something other than an object (an
    /// object's scalar members are in [`LineParser::fields`]).
    fields_not_an_object: bool,
}

/// The trace parser: one line in, one borrowed record out.
///
/// `'a` is the lifetime of the text the lines come from; the returned
/// record also borrows the parser (its field storage, and any string that
/// had escapes to resolve), so it has to be dropped — folded, copied,
/// `to_owned()` — before the next line is parsed.
#[derive(Default)]
pub struct LineParser<'a> {
    slots: Slots<'a>,
    /// Scalar members of the line's `fields` object, in line order.
    fields: Vec<Field<'a>>,
    /// Keys in `fields` whose value was `null` or an object, with
    /// `fields.len()` at that moment. Such a member refuses the line unless
    /// a later scalar under the same key replaces it.
    not_scalar: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> LineParser<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse one JSONL line.
    pub fn parse(&mut self, line: &'a str) -> Result<RecordRef<'_>, ParseError> {
        let LineParser { slots, fields, not_scalar } = self;
        *slots = Slots::default();
        fields.clear();
        not_scalar.clear();

        let mut cur = Cursor { text: line, pos: 0 };
        cur.skip_ws();
        if cur.peek() != Some(b'{') {
            return Err(cur.err("record is not an object"));
        }
        cur.members(|cur, key| {
            let slot = match key.as_ref() {
                "kind" => &mut slots.kind,
                "schema" => &mut slots.schema,
                "clock" => &mut slots.clock,
                "t" => &mut slots.t,
                "id" => &mut slots.id,
                "parent" => &mut slots.parent,
                "name" => &mut slots.name,
                "dur_ns" => &mut slots.dur_ns,
                "span" => &mut slots.span,
                "fields" => {
                    fields.clear();
                    not_scalar.clear();
                    cur.skip_ws();
                    slots.fields_not_an_object = cur.peek() != Some(b'{');
                    if slots.fields_not_an_object {
                        return cur.value().map(drop);
                    }
                    return cur.members(|cur, key| {
                        match cur.value()? {
                            Json::Scalar(v) => fields.push((key, v)),
                            _ => not_scalar.push((key, fields.len())),
                        }
                        Ok(())
                    });
                }
                _ => return cur.value().map(drop),
            };
            *slot = cur.value()?;
            Ok(())
        })?;
        cur.skip_ws();
        if cur.pos != line.len() {
            return Err(cur.err("trailing bytes after record"));
        }

        let slots: &Slots<'a> = slots;
        let fields: &[Field<'a>] = fields;
        // Only a record that has fields is refused for what sits under the key.
        let checked_fields = || {
            if slots.fields_not_an_object {
                return Err(ParseError::new(0, "'fields' must be an object"));
            }
            let replaced =
                |(key, at): &(Cow<'_, str>, usize)| fields[*at..].iter().any(|(k, _)| k == key);
            if !not_scalar.iter().all(replaced) {
                return Err(ParseError::new(0, "field values must be scalars"));
            }
            Ok(fields)
        };
        let t = || slots.t.u64("t");
        match slots.kind.str("kind")? {
            "meta" => Ok(RecordRef::Meta {
                schema: slots.schema.u64("schema")? as u32,
                clock: slots.clock.str("clock")?,
                t: t()?,
            }),
            "span_start" => Ok(RecordRef::SpanStart {
                id: slots.id.u64("id")?,
                parent: slots.parent.opt_u64("parent")?,
                name: slots.name.str("name")?,
                t: t()?,
                fields: checked_fields()?,
            }),
            "span_end" => Ok(RecordRef::SpanEnd {
                id: slots.id.u64("id")?,
                name: slots.name.str("name")?,
                t: t()?,
                dur_ns: slots.dur_ns.u64("dur_ns")?,
                fields: checked_fields()?,
            }),
            "event" => Ok(RecordRef::Event {
                span: slots.span.opt_u64("span")?,
                name: slots.name.str("name")?,
                t: t()?,
                fields: checked_fields()?,
            }),
            other => Err(ParseError::new(0, format!("unknown record kind '{other}'"))),
        }
    }
}

/// Parse one JSONL line into an owned [`TraceRecord`].
pub fn parse_line(line: &str) -> Result<TraceRecord, ParseError> {
    LineParser::new().parse(line).map(|r| r.to_owned())
}

/// Stream a whole JSONL trace through `f`, one borrowed record per line.
/// Blank lines are skipped; the first failing line aborts with its
/// 0-based line number folded into the message.
pub fn for_each_record(text: &str, mut f: impl FnMut(&RecordRef<'_>)) -> Result<(), ParseError> {
    let mut parser = LineParser::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        f(&parser.parse(line).map_err(|e| e.on_line(i))?);
    }
    Ok(())
}

/// Parse a whole JSONL trace into owned records ([`for_each_record`]
/// followed by [`RecordRef::to_owned`]).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    for_each_record(text, |r| out.push(r.to_owned()))?;
    Ok(out)
}

/// A whole JSON document, as [`crate::json::to_string_pretty`] writes
/// report files: unlike a trace line it may hold arrays, and it is built
/// as a tree. Object members keep their order in the text.
#[derive(Debug, Clone, PartialEq)]
pub enum Document {
    Null,
    Scalar(Value),
    Array(Vec<Document>),
    Object(Vec<(String, Document)>),
}

impl Document {
    /// The member `key` of an object (the last one, should it repeat).
    pub fn get(&self, key: &str) -> Option<&Document> {
        match self {
            Document::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

/// Containers a document may nest before the parser refuses it, so that
/// hostile input cannot exhaust the stack.
const MAX_DOCUMENT_DEPTH: usize = 64;

impl Cursor<'_> {
    fn document(&mut self, depth: usize) -> Result<Document, ParseError> {
        if depth > MAX_DOCUMENT_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|cur, key| {
                    members.push((key.into_owned(), cur.document(depth + 1)?));
                    Ok(())
                })?;
                Ok(Document::Object(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Document::Array(items));
                }
                loop {
                    items.push(self.document(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Document::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            _ => Ok(match self.value()? {
                Json::Scalar(v) => Document::Scalar(v.to_value()),
                _ => Document::Null,
            }),
        }
    }
}

/// Parse a whole JSON document; anything but whitespace after it is an
/// error.
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    let mut cur = Cursor { text, pos: 0 };
    let doc = cur.document(0)?;
    cur.skip_ws();
    if cur.pos != text.len() {
        return Err(cur.err("trailing bytes after document"));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Fields, Record, TRACE_SCHEMA_VERSION};

    fn roundtrip(r: &TraceRecord) {
        let parsed = parse_line(&r.to_json()).expect("parses");
        assert_eq!(&parsed, r);
    }

    #[test]
    fn meta_roundtrips() {
        roundtrip(&TraceRecord::Meta {
            schema: TRACE_SCHEMA_VERSION,
            clock: "virtual".into(),
            t: 0,
        });
    }

    #[test]
    fn span_records_roundtrip() {
        let mut fields = Fields::new();
        fields.insert("bytes".into(), Value::U64(1 << 40));
        fields.insert("who".into(), Value::Str("Windows Azure".into()));
        roundtrip(&TraceRecord::SpanStart {
            id: 7,
            parent: Some(3),
            name: "read_file".into(),
            t: 11,
            fields: fields.clone(),
        });
        roundtrip(&TraceRecord::SpanStart {
            id: 8,
            parent: None,
            name: "read_file".into(),
            t: 11,
            fields: Fields::new(),
        });
        roundtrip(&TraceRecord::SpanEnd {
            id: 7,
            name: "read_file".into(),
            t: 19,
            dur_ns: 8,
            fields,
        });
    }

    #[test]
    fn event_roundtrips_all_scalar_types() {
        let mut fields = Fields::new();
        fields.insert("b".into(), Value::Bool(true));
        fields.insert("u".into(), Value::U64(u64::MAX));
        fields.insert("i".into(), Value::I64(-42));
        fields.insert("f".into(), Value::F64(0.125));
        fields.insert("s".into(), Value::Str("a\"b\\c\nd\te\u{1}π".into()));
        roundtrip(&TraceRecord::Event { span: None, name: "provider.fault".into(), t: 99, fields });
    }

    #[test]
    fn jsonl_skips_blanks_and_reports_bad_lines() {
        let good = TraceRecord::Meta { schema: 2, clock: "virtual".into(), t: 0 };
        let text = format!("{}\n\n{}\n", good.to_json(), good.to_json());
        assert_eq!(parse_jsonl(&text).unwrap().len(), 2);
        let bad = format!("{}\nnot json\n", good.to_json());
        let err = parse_jsonl(&bad).unwrap_err();
        assert!(err.what.contains("line 1"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage_and_arrays() {
        assert!(parse_line("{\"kind\":\"meta\",\"schema\":1,\"clock\":\"v\",\"t\":0}x").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line("{\"kind\":\"nope\",\"t\":0}").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        // 𝄞 (U+1D11E) as an escaped surrogate pair.
        let line = "{\"kind\":\"event\",\"span\":null,\"name\":\"n\",\"t\":1,\
                    \"fields\":{\"s\":\"\\ud834\\udd1e\"}}";
        let r = parse_line(line).unwrap();
        assert_eq!(r.field_str("s"), Some("\u{1D11E}"));
    }

    #[test]
    fn plain_strings_are_borrowed_from_the_line() {
        let line = "{\"kind\":\"event\",\"span\":3,\"name\":\"provider.op\",\"t\":1,\
                    \"fields\":{\"provider\":\"Aliyun\",\"why\":\"a\\tb\"}}";
        let mut parser = LineParser::new();
        let r = parser.parse(line).unwrap();
        let in_line = |s: &str| line.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(in_line(r.name().unwrap()));
        assert!(in_line(r.field_str("provider").unwrap()));
        assert_eq!(r.field_str("why"), Some("a\tb"));
        assert!(!in_line(r.field_str("why").unwrap()), "escapes force a copy");
    }

    #[test]
    fn a_repeated_key_takes_its_last_value() {
        let r = parse_line(
            "{\"t\":1,\"kind\":\"meta\",\"kind\":\"event\",\"name\":\"n\",\"fields\":{\"dropped\":1},\
             \"t\":2,\"fields\":{\"k\":{},\"k\":null,\"k\":7,\"j\":1,\"j\":\"x\"}}",
        )
        .unwrap();
        let mut fields = Fields::new();
        fields.insert("j".into(), Value::Str("x".into()));
        fields.insert("k".into(), Value::U64(7));
        assert_eq!(r, TraceRecord::Event { span: None, name: "n".into(), t: 2, fields });
    }

    #[test]
    fn non_scalar_field_values_refuse_the_line_unless_replaced() {
        let event = |fields: &str| {
            parse_line(&format!(
                "{{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{fields}}}"
            ))
        };
        assert!(event("{\"k\":null}").is_err());
        assert!(event("{\"k\":{\"deep\":{\"deeper\":{}}}}").is_err());
        assert!(event("{\"k\":1,\"k\":{}}").is_err());
        assert!(event("{\"k\":{},\"k\":1}").is_ok());
        assert!(event("null").is_err());
        assert!(event("7").is_err());
        // A meta record has no fields: whatever sits under the key is
        // checked as JSON and otherwise ignored.
        let meta = "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\"fields\":";
        assert!(parse_line(&format!("{meta}7}}")).is_ok());
        assert!(parse_line(&format!("{meta}{{\"k\":null}}}}")).is_ok());
        assert!(parse_line(&format!("{meta}[]}}")).is_err());
    }

    #[test]
    fn unknown_keys_may_nest_objects_to_any_depth() {
        let deep = 100_000;
        let line = format!(
            "{{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\"x\":{}1{}}}",
            "{\"a\":".repeat(deep),
            "}".repeat(deep)
        );
        assert!(parse_line(&line).is_ok());
        assert!(parse_line(&line[..line.len() - 2]).is_err());
        let members = "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\
                       \"x\":{\"a\":{},\"b\":{\"c\":1,\"d\":{}},\"e\":\"s\"} }";
        assert!(parse_line(members).is_ok());
        assert!(parse_line(&members.replace("{},", "{}")).is_err());
        assert!(parse_line(&members.replace("\"c\":1,", "\"c\":[],")).is_err());
    }

    #[test]
    fn documents_parse_with_arrays_and_refuse_garbage() {
        let doc = parse_document(
            "{\n  \"label\": \"t\",\n  \"values\": [1, 2.5, []],\n  \"none\": null,\n  \"o\": {}\n}\n",
        )
        .expect("parses");
        assert_eq!(doc.get("label"), Some(&Document::Scalar(Value::Str("t".into()))));
        assert_eq!(
            doc.get("values"),
            Some(&Document::Array(vec![
                Document::Scalar(Value::U64(1)),
                Document::Scalar(Value::F64(2.5)),
                Document::Array(vec![]),
            ]))
        );
        assert_eq!(doc.get("none"), Some(&Document::Null));
        assert_eq!(doc.get("o"), Some(&Document::Object(vec![])));
        assert_eq!(doc.get("absent"), None);
        for bad in ["", "[1,]", "[1 2]", "{\"a\":1} x", "{\"a\"}", "[", "nul"] {
            assert!(parse_document(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(parse_document(&deep).is_err(), "depth is bounded, not the stack");
    }
}
