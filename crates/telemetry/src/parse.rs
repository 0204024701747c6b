//! Trace parsing: the inverse of [`crate::TraceWriter`] and of
//! [`RecordRef::write_json`].
//!
//! The observatory and the `trace_report` analyzer consume traces that
//! were written by this crate's own hand-rolled emitter, so the parser
//! here is deliberately small: a JSON reader covering exactly the shapes
//! the emitter produces (flat objects of scalars plus one nested `fields`
//! object, and a span end's `replay` object; unknown keys may hold
//! scalars or nested objects and are skipped, arrays are refused).
//! Keeping it dependency-free means the whole trace → report pipeline
//! stays testable in minimal environments and byte-level behaviour never
//! drifts with an external serializer.
//!
//! It reads a line once, left to right, and yields the records the line
//! holds ([`Records`]: the writer puts a provider op's span and event on
//! one line, and a request's `replay.op` on its span end) as
//! [`RecordRef`]s that borrow their strings from the line: a string is
//! copied only when it contains escapes, and a [`LineParser`] keeps its
//! field storage between lines, so streaming a trace allocates nothing
//! per record.
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

use crate::record::{FieldBuf, RecordRef, TraceRecord, Value, ValueRef};
use crate::writer::{
    op_span_provider, BYTE_KEYS, OP_EVENT, PROVIDER_KEY, REPLAY_EVENT, REPLAY_KEY,
};

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

/// A record key's value read as the record needs it; `what` is the error
/// to stop with, which names the key.
impl<'a> Json<'a> {
    #[inline]
    fn u64(&self, what: &'static str) -> Result<u64, Stop> {
        match self {
            Json::Scalar(ValueRef::U64(v)) => Ok(*v),
            _ => Err(Stop { at: 0, what }),
        }
    }

    /// `dur_ns`: absent reads as 0.
    #[inline]
    fn u64_or_zero(&self, what: &'static str) -> Result<u64, Stop> {
        match self {
            Json::Absent => Ok(0),
            _ => self.u64(what),
        }
    }

    /// `parent` / `span`: an id, or `null` / absent for none.
    #[inline]
    fn opt_u64(&self, what: &'static str) -> Result<Option<u64>, Stop> {
        match self {
            Json::Scalar(ValueRef::U64(v)) => Ok(Some(*v)),
            Json::Null | Json::Absent => Ok(None),
            _ => Err(Stop { at: 0, what }),
        }
    }

    #[inline]
    fn str(&self, what: &'static str) -> Result<&str, Stop> {
        match self {
            Json::Scalar(ValueRef::Str(s)) => Ok(s),
            _ => Err(Stop { at: 0, what }),
        }
    }
}

/// Where and why the cursor stopped. Two words, so that every result the
/// cursor hands back stays small; the message becomes a [`ParseError`]
/// only once parsing has failed.
struct Stop {
    at: usize,
    what: &'static str,
}

impl From<Stop> for ParseError {
    fn from(stop: Stop) -> Self {
        ParseError::new(stop.at, stop.what)
    }
}

/// Where the stretch of string body starting at `from` stops: at the next
/// `"` or `\`, or at the end of the text. Both are ASCII, so they never
/// occur inside a multi-byte character and the stretch is sliceable.
///
/// Eight bytes are tested at a time: `x ^ (LO * q)` has a zero byte where
/// `x` holds `q`, and `(y - LO) & !y & HI` flags zero bytes of `y`. A borrow
/// can only flag a byte *above* a true zero, so the lowest flag (the first
/// byte in the text) is always a real match.
#[inline(always)]
fn plain_end(text: &str, from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let bytes = text.as_bytes();
    let zero_bytes = |y: u64| y.wrapping_sub(LO) & !y & HI;
    let mut at = from;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hits = zero_bytes(x ^ (LO * u64::from(b'"'))) | zero_bytes(x ^ (LO * u64::from(b'\\')));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    bytes[at..].iter().position(|b| matches!(b, b'"' | b'\\')).map_or(bytes.len(), |n| at + n)
}

/// `str::parse::<f64>`, kept out of line: floats are rare in a trace.
#[inline(never)]
fn parse_f64(text: &str) -> Option<f64> {
    text.parse().ok()
}

/// Position in one line.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn stop(&self, what: &'static str) -> Stop {
        Stop { at: self.pos, what }
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over `b`, or stops with `what` (which names it).
    #[inline(always)]
    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), Stop> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.stop(what))
        }
    }

    /// Any value. A nested object is validated and reported as
    /// [`Json::Object`] without being built.
    ///
    /// This and the other readers of one token are inlined into their
    /// callers: what they return then stays in registers instead of
    /// making a round trip through the stack per token.
    #[inline(always)]
    fn value(&mut self) -> Result<Json<'a>, Stop> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.skip_object().map(|()| Json::Object),
            Some(b'"') => Ok(Json::Scalar(ValueRef::Str(self.string()?))),
            Some(b't') => {
                self.literal("true", "expected 'true'").map(|()| Json::Scalar(ValueRef::Bool(true)))
            }
            Some(b'f') => self
                .literal("false", "expected 'false'")
                .map(|()| Json::Scalar(ValueRef::Bool(false))),
            Some(b'n') => self.literal("null", "expected 'null'").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Scalar),
            Some(b'[') => Err(self.stop("arrays are not part of the trace format")),
            _ => Err(self.stop("expected a JSON value")),
        }
    }

    /// Steps over the literal `lit`, or stops with `what` (which names it).
    #[inline(always)]
    fn literal(&mut self, lit: &str, what: &'static str) -> Result<(), Stop> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.stop(what))
        }
    }

    /// The members of the object at the cursor, in order: `on_member` is
    /// called after each `"key":` and must consume the value.
    #[inline]
    fn members(
        &mut self,
        mut on_member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Stop>,
    ) -> Result<(), Stop> {
        self.expect(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            on_member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.stop("expected ',' or '}' in object")),
            }
        }
    }

    /// Checks the object at the cursor, and whatever objects it nests,
    /// against the grammar without building anything. Nesting is counted,
    /// not recursed into, so depth costs no stack.
    #[inline(never)]
    fn skip_object(&mut self) -> Result<(), Stop> {
        let mut depth = 0usize;
        loop {
            // At a '{'.
            self.expect(b'{', "expected '{'")?;
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
                        _ => return Err(self.stop("expected ',' or '}' in object")),
                    }
                }
                self.skip_ws();
                self.string()?;
                self.skip_ws();
                self.expect(b':', "expected ':'")?;
                self.skip_ws();
                if self.peek() == Some(b'{') {
                    break;
                }
                self.value()?;
                after_value = true;
            }
        }
    }

    /// A string, borrowed from the line unless it has escapes to resolve.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, Stop> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        self.pos = plain_end(self.text, start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_string(start).map(Cow::Owned)
    }

    /// The rest of a string whose plain stretch from `start` ended at an
    /// escape (or at the end of the line).
    #[cold]
    #[inline(never)]
    fn escaped_string(&mut self, start: usize) -> Result<String, Stop> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let b = self.peek().ok_or_else(|| self.stop("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.stop("unterminated escape"))?;
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
                        _ => return Err(self.stop("unknown escape")),
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
    fn unicode_escape(&mut self) -> Result<char, Stop> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) && self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            let save = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.stop("bad surrogate pair"));
            }
            self.pos = save;
        }
        char::from_u32(cp).ok_or_else(|| self.stop("bad \\u escape"))
    }

    /// Four ASCII hex digits — no sign, no space, nothing else.
    fn hex4(&mut self) -> Result<u32, Stop> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.stop("truncated \\u escape"))?;
        let mut v = 0;
        for &b in digits {
            v = v * 16 + char::from(b).to_digit(16).ok_or_else(|| self.stop("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(v)
    }

    /// A number: the run of `-`, digits, `.`, `e`, `E` and `+` at the
    /// cursor. With any of `.eE+` (or a second `-`) in it the run is an
    /// `f64` as `str::parse` reads it; otherwise it is digits, optionally
    /// signed, and is read here as `str::parse` would read it — leading
    /// zeros allowed, overflow refused.
    #[inline(always)]
    fn number(&mut self) -> Result<ValueRef<'a>, Stop> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let digits_from = self.pos;
        // Eight bytes at a time while eight remain, then byte by byte.
        // Exact up to nineteen digits; a longer run is read again below.
        let mut magnitude = 0u64;
        loop {
            let Some(word) = word_at(bytes, self.pos) else {
                while let Some(&d @ b'0'..=b'9') = bytes.get(self.pos) {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    self.pos += 1;
                }
                break;
            };
            let (n, value) = leading_digits(word);
            magnitude = magnitude.wrapping_mul(POW10[n]).wrapping_add(value);
            self.pos += n;
            if n < 8 {
                break;
            }
        }
        if let Some(b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
                self.pos += 1;
            }
            let text = &self.text[start..self.pos];
            return parse_f64(text).ok_or_else(|| self.stop("bad float")).map(ValueRef::F64);
        }
        let digits = &bytes[digits_from..self.pos];
        let magnitude = match digits.len() {
            0 => None,
            1..=19 => Some(magnitude),
            _ => digits
                .iter()
                .try_fold(0, |m: u64, &d| m.checked_mul(10)?.checked_add(u64::from(d - b'0'))),
        };
        match (negative, magnitude) {
            (false, Some(m)) => Ok(ValueRef::U64(m)),
            // Down to i64::MIN, whose magnitude is one past i64::MAX.
            (true, Some(m)) if m <= 1 << 63 => Ok(ValueRef::I64((m as i64).wrapping_neg())),
            _ => Err(self.stop("bad integer")),
        }
    }
}

/// `10^n` for the digit counts of one eight-byte word.
const POW10: [u64; 9] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// The eight bytes of `bytes` from `at`, first byte lowest, if there are
/// eight.
#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    bytes.get(at..at + 8).map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")))
}

/// How many bytes of `word` (first byte lowest) are ASCII digits before
/// the first that is not, and the number they spell.
///
/// `word ^ "00000000"` turns digits into 0..=9; a byte is then flagged
/// when adding 0x76 sets its top bit (it is ≥ 10) or it had the top bit
/// already, and a carry out of a flagged byte only disturbs the bytes
/// above it. The digits are moved to the top of the word — the bytes
/// below become leading zeros — and combined pairwise: 2 digits per
/// byte, 4 per 16 bits, 8 per 32.
#[inline(always)]
fn leading_digits(word: u64) -> (usize, u64) {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let values = word ^ (LO * u64::from(b'0'));
    let flags = (values.wrapping_add(LO * 0x76) | values) & HI;
    let n = (flags.trailing_zeros() / 8) as usize;
    if n == 0 {
        return (0, 0);
    }
    let mut v = values << (8 * (8 - n));
    v = (v.wrapping_mul(10 << 8 | 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    v = (v.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    v = v.wrapping_mul(10_000 << 32 | 1) >> 32;
    (n, v)
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
}

/// The scalar members of one object a line holds — its `fields`, or the
/// `replay` record a span end carries.
#[derive(Default)]
struct Members<'a> {
    /// The key was there, last holding an object.
    present: bool,
    /// The key was there, last holding something other than an object.
    not_an_object: bool,
    /// Scalar members of the object, in line order.
    fields: FieldBuf<'a>,
    /// Keys in `fields` whose value was `null` or an object, with
    /// `fields.len()` at that moment. Such a member refuses the line unless
    /// a later scalar under the same key replaces it.
    not_scalar: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> Members<'a> {
    fn clear(&mut self) {
        self.present = false;
        self.not_an_object = false;
        self.fields.clear();
        self.not_scalar.clear();
    }

    /// The value at the cursor, the last under this key so far.
    fn read(&mut self, cur: &mut Cursor<'a>) -> Result<(), Stop> {
        self.clear();
        cur.skip_ws();
        if cur.peek() != Some(b'{') {
            self.not_an_object = true;
            return cur.value().map(drop);
        }
        self.present = true;
        let Members { fields, not_scalar, .. } = self;
        cur.members(|cur, key| {
            // Strings and numbers, the values a trace holds, go straight
            // in; the rest through `value`.
            cur.skip_ws();
            match cur.peek() {
                Some(b'"') => {
                    let s = cur.string()?;
                    fields.push(key, ValueRef::Str(s));
                }
                Some(b'-' | b'0'..=b'9') => {
                    let v = cur.number()?;
                    fields.push(key, v);
                }
                _ => match cur.value()? {
                    Json::Scalar(v) => fields.push(key, v),
                    _ => not_scalar.push((key, fields.as_slice().len())),
                },
            }
            Ok(())
        })
    }

    /// The members, once a record that has them is being built: refused
    /// if the key held something other than an object, or a member is not
    /// a scalar.
    fn checked(&self, what: &'static str) -> Result<(), Stop> {
        if self.not_an_object {
            return Err(Stop { at: 0, what });
        }
        let fields = self.fields.as_slice();
        let replaced =
            |(key, at): &(Cow<'_, str>, usize)| fields[*at..].iter().any(|(k, _)| k == key);
        if !self.not_scalar.iter().all(replaced) {
            return Err(Stop { at: 0, what: "field values must be scalars" });
        }
        Ok(())
    }

    fn has(&self, key: &str) -> bool {
        self.fields.as_slice().iter().any(|(k, _)| k == key)
    }
}

/// The records one trace line holds, in trace order: one for most lines,
/// three for an op line (span start, `provider.op`, span end), two for a
/// span end carrying its `replay.op` (see [`crate::TraceWriter`]). It
/// derefs to the slice of them.
#[derive(Debug, Clone, Copy)]
pub struct Records<'r> {
    records: [RecordRef<'r>; 3],
    len: usize,
}

impl<'r> Records<'r> {
    const NONE: RecordRef<'static> = RecordRef::Meta { schema: 0, clock: "", t: 0 };

    fn new(held: &[RecordRef<'r>]) -> Self {
        let mut records: [RecordRef<'r>; 3] = [Self::NONE; 3];
        records[..held.len()].copy_from_slice(held);
        Records { records, len: held.len() }
    }
}

impl<'r> std::ops::Deref for Records<'r> {
    type Target = [RecordRef<'r>];

    fn deref(&self) -> &[RecordRef<'r>] {
        &self.records[..self.len]
    }
}

/// The trace parser: one line in, its records out.
///
/// `'a` is the lifetime of the text the lines come from; the returned
/// records also borrow the parser (its field storage, and any string that
/// had escapes to resolve), so they have to be dropped — folded, copied,
/// `to_owned()` — before the next line is parsed.
#[derive(Default)]
pub struct LineParser<'a> {
    slots: Slots<'a>,
    fields: Members<'a>,
    replay: Members<'a>,
}

impl<'a> LineParser<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse one JSONL line.
    pub fn parse(&mut self, line: &'a str) -> Result<Records<'_>, ParseError> {
        let LineParser { slots, fields, replay } = self;
        *slots = Slots::default();
        fields.clear();
        replay.clear();

        let mut cur = Cursor { text: line, pos: 0 };
        cur.skip_ws();
        if cur.peek() != Some(b'{') {
            return Err(cur.stop("record is not an object").into());
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
                "fields" => return fields.read(cur),
                REPLAY_KEY => return replay.read(cur),
                _ => return cur.value().map(drop),
            };
            *slot = cur.value()?;
            Ok(())
        })?;
        cur.skip_ws();
        if cur.pos != line.len() {
            return Err(cur.stop("trailing bytes after record").into());
        }

        let kind = slots.kind.str("missing or non-string 'kind'")?;
        if (replay.present || replay.not_an_object) && kind != "span_end" {
            return Err(ParseError::new(0, "only a span_end carries 'replay'"));
        }
        // Only a record that has fields is refused for what sits under the key.
        if kind != "meta" {
            fields.checked("'fields' must be an object")?;
        }
        let t = slots.t.u64("missing or non-integer 't'")?;
        let id = || slots.id.u64("missing or non-integer 'id'");
        let name = || slots.name.str("missing or non-string 'name'");
        if kind == "op" {
            // The op event's keys the line leaves out, put back in their
            // sorted place: the provider from the span's name, zero bytes.
            let provider = match &slots.name {
                Json::Scalar(ValueRef::Str(name)) => op_label(name),
                _ => None,
            }
            .ok_or(Stop { at: 0, what: "an op line names a per-provider span" })?;
            if !fields.has(PROVIDER_KEY) {
                fields.fields.insert(PROVIDER_KEY, ValueRef::Str(provider));
            }
            for key in BYTE_KEYS {
                if !fields.has(key) {
                    fields.fields.insert(key, ValueRef::U64(0));
                }
            }
        }
        let slots: &Slots<'a> = slots;
        let fields = fields.fields.as_slice();
        let records = match kind {
            "meta" => Records::new(&[RecordRef::Meta {
                schema: slots.schema.u64("missing or non-integer 'schema'")? as u32,
                clock: slots.clock.str("missing or non-string 'clock'")?,
                t,
            }]),
            "span_start" => Records::new(&[RecordRef::SpanStart {
                id: id()?,
                parent: slots.parent.opt_u64("bad 'parent'")?,
                name: name()?,
                t,
                fields,
            }]),
            "span_end" => {
                let end = RecordRef::SpanEnd {
                    id: id()?,
                    name: name()?,
                    t,
                    dur_ns: slots.dur_ns.u64_or_zero("non-integer 'dur_ns'")?,
                    fields,
                };
                replay.checked("'replay' must be an object")?;
                if replay.present {
                    let fields = replay.fields.as_slice();
                    Records::new(&[
                        end,
                        RecordRef::Event { span: None, name: REPLAY_EVENT, t, fields },
                    ])
                } else {
                    Records::new(&[end])
                }
            }
            "event" => Records::new(&[RecordRef::Event {
                span: slots.span.opt_u64("bad 'span'")?,
                name: name()?,
                t,
                fields,
            }]),
            "op" => {
                let (id, name) = (id()?, name()?);
                Records::new(&[
                    RecordRef::SpanStart {
                        id,
                        parent: slots.parent.opt_u64("bad 'parent'")?,
                        name,
                        t,
                        fields: &[],
                    },
                    RecordRef::Event { span: Some(id), name: OP_EVENT, t, fields },
                    RecordRef::SpanEnd { id, name, t, dur_ns: 0, fields: &[] },
                ])
            }
            other => return Err(ParseError::new(0, format!("unknown record kind '{other}'"))),
        };
        Ok(records)
    }
}

/// The provider label of a per-provider span's name, borrowed from the
/// line where the name is.
fn op_label<'a>(name: &Cow<'a, str>) -> Option<Cow<'a, str>> {
    let label = op_span_provider(name)?;
    Some(match name {
        Cow::Borrowed(name) => {
            let name: &'a str = name;
            Cow::Borrowed(&name[name.len() - 1 - label.len()..name.len() - 1])
        }
        Cow::Owned(_) => Cow::Owned(label.to_string()),
    })
}

/// Parse one JSONL line into the owned records it holds.
pub fn parse_line(line: &str) -> Result<Vec<TraceRecord>, ParseError> {
    Ok(LineParser::new().parse(line)?.iter().map(RecordRef::to_owned).collect())
}

/// Stream a whole JSONL trace through `f`, one borrowed record at a time.
/// Blank lines are skipped; the first failing line aborts with its
/// 0-based line number folded into the message.
pub fn for_each_record(text: &str, mut f: impl FnMut(&RecordRef<'_>)) -> Result<(), ParseError> {
    let mut parser = LineParser::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        for record in parser.parse(line).map_err(|e| e.on_line(i))?.iter() {
            f(record);
        }
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
    fn document(&mut self, depth: usize) -> Result<Document, Stop> {
        if depth > MAX_DOCUMENT_DEPTH {
            return Err(self.stop("document nests too deeply"));
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
                        _ => return Err(self.stop("expected ',' or ']' in array")),
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
        return Err(cur.stop("trailing bytes after document").into());
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Fields, Record, TRACE_SCHEMA_VERSION};

    fn roundtrip(r: &TraceRecord) {
        let parsed = parse_line(&r.to_json()).expect("parses");
        assert_eq!(parsed, std::slice::from_ref(r));
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
    fn leading_digits_reads_every_run_a_word_can_hold() {
        // Every digit count, the run ended by every byte that is not a
        // digit — the bytes after it digits again, which must not count.
        for n in 0..=8 {
            let digits: Vec<u8> = b"90817263".iter().copied().take(n).collect();
            let value = std::str::from_utf8(&digits).unwrap().parse().unwrap_or(0);
            for stop in (0..=u8::MAX).filter(|b| !b.is_ascii_digit()) {
                let mut word = [b'7'; 8];
                word[..n].copy_from_slice(&digits);
                if n < 8 {
                    word[n] = stop;
                }
                assert_eq!(leading_digits(u64::from_le_bytes(word)), (n, value), "{word:?}");
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        // 𝄞 (U+1D11E) as an escaped surrogate pair.
        let line = "{\"kind\":\"event\",\"span\":null,\"name\":\"n\",\"t\":1,\
                    \"fields\":{\"s\":\"\\ud834\\udd1e\"}}";
        let r = parse_line(line).unwrap();
        assert_eq!(r[0].field_str("s"), Some("\u{1D11E}"));
    }

    #[test]
    fn plain_strings_are_borrowed_from_the_line() {
        let line = "{\"kind\":\"event\",\"span\":3,\"name\":\"provider.op\",\"t\":1,\
                    \"fields\":{\"provider\":\"Aliyun\",\"why\":\"a\\tb\"}}";
        let mut parser = LineParser::new();
        let records = parser.parse(line).unwrap();
        let r = &records[0];
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
        assert_eq!(r, [TraceRecord::Event { span: None, name: "n".into(), t: 2, fields }]);
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
