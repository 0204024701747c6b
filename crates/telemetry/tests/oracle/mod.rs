//! Test oracle: the parser and the serialiser this crate shipped before the
//! borrowed record replaced them, kept verbatim apart from visibility and
//! imports. The parser builds a `Json` tree per line and takes the record
//! out of it; the writer formats every integer through `to_string()`.
//! Neither is fast and neither is used outside tests — they are here so
//! the property suites can hold the single-pass parser and the one
//! `write_json` to the exact accept/reject decisions, records and bytes
//! of what they replaced. One fix has been made to both sides since: a
//! `\u` escape takes exactly four ASCII hex digits, where
//! `u32::from_str_radix` also took a leading `+`. And one change of the
//! format: since schema 3 a span end without `dur_ns` reads as lasting
//! 0 ns, where the line was refused. The lines schema 3 adds — an op line, a span end
//! carrying `replay` — are not this parser's; `trace_format_props.rs`
//! holds them to the writer instead.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hyrd_telemetry::{Fields, ParseError, TraceRecord, Value};

// ---------------------------------------------------------------------------
// The `Json`-tree parser
// ---------------------------------------------------------------------------

/// A parsed JSON value, only as rich as the trace format needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError { at: self.pos, what: what.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => Err(self.err("arrays are not part of the trace format")),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
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
                        b'u' => {
                            let cp = self.hex4()?;
                            // Combine a surrogate pair if one follows.
                            if (0xD800..0xDC00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let save = self.pos;
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("bad surrogate pair"))?,
                                    );
                                    continue;
                                }
                                self.pos = save;
                            }
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-borrow the original UTF-8: step back and take the
                    // full char (multi-byte sequences arrive intact since
                    // the input is a &str).
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty string tail"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Four ASCII hex digits: `from_str_radix` alone would take a sign.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if float {
            text.parse::<f64>().map(Json::F64).map_err(|_| self.err("bad float"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Json::I64).map_err(|_| self.err("bad integer"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|_| self.err("bad integer"))
        }
    }
}

fn scalar(j: Json, at: usize) -> Result<Value, ParseError> {
    match j {
        Json::Bool(b) => Ok(Value::Bool(b)),
        Json::U64(v) => Ok(Value::U64(v)),
        Json::I64(v) => Ok(Value::I64(v)),
        Json::F64(v) => Ok(Value::F64(v)),
        Json::Str(s) => Ok(Value::Str(s)),
        Json::Null | Json::Obj(_) => {
            Err(ParseError { at, what: "field values must be scalars".into() })
        }
    }
}

fn take_u64(map: &mut BTreeMap<String, Json>, key: &str) -> Result<u64, ParseError> {
    match map.remove(key) {
        Some(Json::U64(v)) => Ok(v),
        _ => Err(ParseError { at: 0, what: format!("missing or non-integer '{key}'") }),
    }
}

fn take_str(map: &mut BTreeMap<String, Json>, key: &str) -> Result<String, ParseError> {
    match map.remove(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(ParseError { at: 0, what: format!("missing or non-string '{key}'") }),
    }
}

fn take_fields(map: &mut BTreeMap<String, Json>) -> Result<Fields, ParseError> {
    let mut fields = Fields::new();
    if let Some(j) = map.remove("fields") {
        match j {
            Json::Obj(inner) => {
                for (k, v) in inner {
                    fields.insert(k, scalar(v, 0)?);
                }
            }
            _ => return Err(ParseError { at: 0, what: "'fields' must be an object".into() }),
        }
    }
    Ok(fields)
}

/// The retired parser's `parse_line`.
pub fn parse_line(line: &str) -> Result<TraceRecord, ParseError> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after record"));
    }
    let Json::Obj(mut map) = v else {
        return Err(ParseError { at: 0, what: "record is not an object".into() });
    };
    let kind = take_str(&mut map, "kind")?;
    match kind.as_str() {
        "meta" => Ok(TraceRecord::Meta {
            schema: take_u64(&mut map, "schema")? as u32,
            clock: take_str(&mut map, "clock")?,
            t: take_u64(&mut map, "t")?,
        }),
        "span_start" => {
            let parent = match map.remove("parent") {
                Some(Json::U64(v)) => Some(v),
                Some(Json::Null) | None => None,
                _ => return Err(ParseError { at: 0, what: "bad 'parent'".into() }),
            };
            Ok(TraceRecord::SpanStart {
                id: take_u64(&mut map, "id")?,
                parent,
                name: take_str(&mut map, "name")?,
                t: take_u64(&mut map, "t")?,
                fields: take_fields(&mut map)?,
            })
        }
        "span_end" => Ok(TraceRecord::SpanEnd {
            id: take_u64(&mut map, "id")?,
            name: take_str(&mut map, "name")?,
            t: take_u64(&mut map, "t")?,
            dur_ns: if map.contains_key("dur_ns") { take_u64(&mut map, "dur_ns")? } else { 0 },
            fields: take_fields(&mut map)?,
        }),
        "event" => {
            let span = match map.remove("span") {
                Some(Json::U64(v)) => Some(v),
                Some(Json::Null) | None => None,
                _ => return Err(ParseError { at: 0, what: "bad 'span'".into() }),
            };
            Ok(TraceRecord::Event {
                span,
                name: take_str(&mut map, "name")?,
                t: take_u64(&mut map, "t")?,
                fields: take_fields(&mut map)?,
            })
        }
        other => Err(ParseError { at: 0, what: format!("unknown record kind '{other}'") }),
    }
}

// ---------------------------------------------------------------------------
// The `String`-per-integer writer
// ---------------------------------------------------------------------------

/// Append `s` as a JSON string literal (with quotes) to `out`.
fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a JSON number for `v`. Uses `{}` (shortest round-trip) formatting;
/// non-finite values have no JSON representation and are emitted as `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_value(v: &Value, out: &mut String) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(v) => {
            out.push_str(itoa_u64(*v).as_str());
        }
        Value::I64(v) => {
            if *v < 0 {
                out.push('-');
                out.push_str(itoa_u64(v.unsigned_abs()).as_str());
            } else {
                out.push_str(itoa_u64(*v as u64).as_str());
            }
        }
        Value::F64(v) => push_f64(out, *v),
        Value::Str(s) => push_str_escaped(out, s),
    }
}

fn itoa_u64(v: u64) -> String {
    // Plain Display; tiny helper so call sites stay terse.
    v.to_string()
}

fn push_fields(out: &mut String, fields: &Fields) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    let mut first = true;
    for (k, v) in fields {
        if !first {
            out.push(',');
        }
        first = false;
        push_str_escaped(out, k);
        out.push(':');
        push_value(v, out);
    }
    out.push('}');
}

/// The retired `TraceRecord::to_json`.
pub fn to_json(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    match rec {
        TraceRecord::Meta { schema, clock, t } => {
            s.push_str("{\"kind\":\"meta\",\"schema\":");
            s.push_str(&schema.to_string());
            s.push_str(",\"clock\":");
            push_str_escaped(&mut s, clock);
            s.push_str(",\"t\":");
            s.push_str(&t.to_string());
            s.push('}');
        }
        TraceRecord::SpanStart { id, parent, name, t, fields } => {
            s.push_str("{\"kind\":\"span_start\",\"id\":");
            s.push_str(&id.to_string());
            s.push_str(",\"parent\":");
            match parent {
                Some(p) => s.push_str(&p.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"t\":");
            s.push_str(&t.to_string());
            push_fields(&mut s, fields);
            s.push('}');
        }
        TraceRecord::SpanEnd { id, name, t, dur_ns, fields } => {
            s.push_str("{\"kind\":\"span_end\",\"id\":");
            s.push_str(&id.to_string());
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"t\":");
            s.push_str(&t.to_string());
            s.push_str(",\"dur_ns\":");
            s.push_str(&dur_ns.to_string());
            push_fields(&mut s, fields);
            s.push('}');
        }
        TraceRecord::Event { span, name, t, fields } => {
            s.push_str("{\"kind\":\"event\",\"span\":");
            match span {
                Some(p) => s.push_str(&p.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"t\":");
            s.push_str(&t.to_string());
            push_fields(&mut s, fields);
            s.push('}');
        }
    }
    s
}
