//! JSON emission: the primitives the trace writer is built from, and the
//! document writer the report files go through.
//!
//! The trace writer hand-rolls its JSON instead of going through a generic
//! serializer so that the byte-level output is fully under this crate's
//! control: field order is fixed in code, numbers use Rust's shortest
//! round-trip formatting, and nothing about the output can drift with a
//! dependency upgrade. That is what makes the "two runs, same seed,
//! byte-identical traces" CI gate cheap to uphold. Reports get the same
//! guarantee from [`ToJson`]: a report struct is declared through
//! [`json_struct!`](crate::json_struct), which writes its fields in
//! declaration order, and [`to_string`] / [`to_string_pretty`] are the only
//! two layouts.
//!
//! Every primitive appends bytes to a caller-supplied `Vec<u8>` and
//! allocates nothing of its own, so the collector can serialise a whole
//! record into one reused line buffer and hand it to its sink as it
//! stands. Only `str` contents and ASCII go in, so what comes out is
//! UTF-8; the two places that need a `String` (`TraceRecord::to_json`,
//! [`to_string`]) check that once, at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Duration;

/// Appends `bytes` through fixed-size copies, which the compiler inlines —
/// eight bytes at a time, the tail as the last eight laid over what is
/// already there — where `extend_from_slice` of a short run of unknown
/// length is a call. A run shorter than eight goes byte by byte.
#[inline(always)]
fn append(out: &mut Vec<u8>, bytes: &[u8]) {
    let Some(last) = bytes.len().checked_sub(8) else {
        for &b in bytes {
            out.push(b);
        }
        return;
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        out.extend_from_slice(eight(word));
    }
    let tail = words.remainder().len();
    if tail > 0 {
        out.truncate(out.len() - (8 - tail));
        out.extend_from_slice(eight(&bytes[last..]));
    }
}

#[inline(always)]
fn eight(bytes: &[u8]) -> &[u8; 8] {
    bytes.try_into().expect("eight bytes")
}

/// Whether nothing in `bytes` needs escaping: no `"`, `\` or byte below
/// 0x20. Eight bytes are tested at a time: `(y - LO) & !y & HI` flags a
/// zero byte of `y` (of `x ^ q`: a `q` in `x`), `(x - LO * 0x20) & !x & HI`
/// a byte below 0x20 — exactly whether there is one, which is all that is
/// asked.
#[inline(always)]
fn is_clean(bytes: &[u8]) -> bool {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, n: u64| x.wrapping_sub(LO * n) & !x & HI;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = u64::from_le_bytes(*eight(word));
        let flags = below(x ^ (LO * u64::from(b'"')), 1)
            | below(x ^ (LO * u64::from(b'\\')), 1)
            | below(x, 0x20);
        if flags != 0 {
            return false;
        }
    }
    words.remainder().iter().all(|&b| b >= 0x20 && b != b'"' && b != b'\\')
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
#[inline]
pub(crate) fn push_str_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if is_clean(s.as_bytes()) {
        append(out, s.as_bytes());
    } else {
        push_escaped(out, s);
    }
    out.push(b'"');
}

/// The body of a string that has something to escape.
#[cold]
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    // Everything that needs escaping is a single ASCII byte, so the
    // stretches between such bytes are copied whole.
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.extend_from_slice(&bytes[clean_from..]);
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `v` in decimal: the digits are put together on the stack, two
/// at a time, and appended in one piece.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    append(out, &digits[at..]);
}

/// Append `v` in decimal.
pub(crate) fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `Some(v)` in decimal, `None` as `null`.
pub(crate) fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => push_u64(out, v),
        None => out.extend_from_slice(b"null"),
    }
}

/// Append a JSON number for `v`. Uses `{}` (shortest round-trip) formatting,
/// which prints `+0.0` — the commonest float in a trace, a free op's cost —
/// as `0`; non-finite values have no JSON representation and are emitted
/// as `null`.
pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    if v.to_bits() == 0 {
        out.push(b'0');
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// A value that can write itself as JSON.
pub trait ToJson {
    fn write_json(&self, w: &mut JsonWriter);
}

/// Builds one JSON document: compact, or indented two spaces a level with
/// one member or element per line (empty containers stay `{}` / `[]`).
pub struct JsonWriter {
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// The container being written has no member yet.
    empty: bool,
}

impl JsonWriter {
    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// Separator and line break before a member or an element.
    fn next_item(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.line_break();
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.empty {
            self.line_break();
        }
        self.empty = false;
        self.out.push(bracket);
    }

    fn line_break(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    /// An object whose members `fields` writes with [`Self::field`].
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) {
        self.open(b'{');
        fields(self);
        self.close(b'}');
    }

    /// One `"key": value` member of the object being written.
    pub fn field(&mut self, key: &str, value: &(impl ToJson + ?Sized)) {
        self.next_item();
        push_str_escaped(&mut self.out, key);
        self.out.extend_from_slice(if self.pretty { b": " } else { b":" });
        value.write_json(self);
    }

    /// An array of `items`.
    pub fn array<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) {
        self.open(b'[');
        for item in items {
            self.next_item();
            item.write_json(self);
        }
        self.close(b']');
    }
}

fn render(value: &(impl ToJson + ?Sized), pretty: bool) -> String {
    let mut w = JsonWriter { out: Vec::new(), pretty, depth: 0, empty: true };
    value.write_json(&mut w);
    String::from_utf8(w.out).expect("the writer emits str contents and ASCII only")
}

/// `value` as one line of JSON with no whitespace.
pub fn to_string(value: &(impl ToJson + ?Sized)) -> String {
    render(value, false)
}

/// `value` as indented JSON.
pub fn to_string_pretty(value: &(impl ToJson + ?Sized)) -> String {
    render(value, true)
}

/// Declares a struct and implements [`ToJson`] for it as an object of
/// its fields in declaration order — one field list, so the JSON cannot
/// drift from the struct:
///
/// ```
/// hyrd_telemetry::json_struct! {
///     /// A labelled series.
///     #[derive(Debug)]
///     pub struct Series {
///         pub label: String,
///         pub values: Vec<f64>,
///     }
/// }
/// let s = Series { label: "t".into(), values: vec![1.0, 2.5] };
/// assert_eq!(hyrd_telemetry::json::to_string(&s), r#"{"label":"t","values":[1,2.5]}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty, )*
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.object(|w| {
                    $( w.field(stringify!($field), &self.$field); )*
                });
            }
        }
    };
}

macro_rules! scalar_to_json {
    ($push:ident as $wide:ty: $($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, w: &mut JsonWriter) {
                $push(&mut w.out, *self as $wide);
            }
        }
    )*};
}
scalar_to_json!(push_u64 as u64: u32, u64, usize);
scalar_to_json!(push_f64 as f64: f64);

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        push_str_escaped(&mut w.out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_str().write_json(w);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.out.extend_from_slice(b"null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.open(b'[');
        w.next_item();
        self.0.write_json(w);
        w.next_item();
        self.1.write_json(w);
        w.close(b']');
    }
}

/// A map is an object in key order.
impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            for (key, value) in self {
                w.field(key, value);
            }
        });
    }
}

/// Whole seconds and the sub-second nanoseconds, so nothing is rounded.
impl ToJson for Duration {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("secs", &self.as_secs());
            w.field("nanos", &self.subsec_nanos());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(out: Vec<u8>) -> String {
        String::from_utf8(out).expect("UTF-8")
    }

    #[test]
    fn escapes_specials() {
        let mut s = Vec::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(text(s), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let mut s = Vec::new();
        push_str_escaped(&mut s, "π\u{1f}→\u{7f}\u{8}\u{c}");
        assert_eq!(text(s), "\"π\\u001f→\u{7f}\\u0008\\u000c\"");
    }

    /// Every length across the eight-byte steps, clean or with something
    /// to escape at every position, against escaping one char at a time.
    #[test]
    fn strings_of_every_length_escape_as_char_by_char() {
        let reference = |s: &str| {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        for len in 0..=26 {
            let clean: String = "abcdefghijklmnopqrstuvwxyé".chars().take(len).collect();
            let mut cases = vec![clean.clone()];
            for at in 0..len {
                for special in ['"', '\\', '\n', '\u{1}', '\u{1f}'] {
                    let mut s: Vec<char> = clean.chars().collect();
                    s[at] = special;
                    cases.push(s.into_iter().collect());
                }
            }
            for case in cases {
                let mut out = b"prefix".to_vec();
                push_str_escaped(&mut out, &case);
                assert_eq!(text(out), format!("prefix{}", reference(&case)), "{case:?}");
            }
        }
    }

    #[test]
    fn integers_match_display() {
        let mut powers: Vec<u64> = (0..20).map(|k| 10u64.pow(k)).collect();
        powers.extend(powers.clone().iter().map(|p| p - 1));
        for v in powers.into_iter().chain([7, 12_345, 9_876_543_210, u64::MAX / 10, u64::MAX]) {
            let mut s = Vec::new();
            push_u64(&mut s, v);
            assert_eq!(text(s), v.to_string());
        }
        for v in [0i64, -1, 42, -100, i64::MIN, i64::MAX] {
            let mut s = Vec::new();
            push_i64(&mut s, v);
            assert_eq!(text(s), v.to_string());
        }
    }

    #[test]
    fn f64_formats() {
        let mut s = Vec::new();
        for v in [0.5, 3.0, f64::NAN, 0.0, -0.0, 1.6e-7, f64::NEG_INFINITY] {
            push_f64(&mut s, v);
            s.push(b',');
        }
        assert_eq!(text(s), "0.5,3,null,0,-0,0.00000016,null,");
    }

    crate::json_struct! {
        struct Report {
            name: String,
            ratio: f64,
            counts: Vec<u64>,
            by_provider: BTreeMap<String, u64>,
            note: Option<u64>,
            pair: (String, usize),
        }
    }

    #[test]
    fn documents_come_out_compact_or_indented_in_field_order() {
        let r = Report {
            name: "a\"b".into(),
            ratio: 0.5,
            counts: vec![1, 2],
            by_provider: BTreeMap::from([("s3".to_string(), 7)]),
            note: None,
            pair: ("k".into(), 3),
        };
        assert_eq!(
            to_string(&r),
            r#"{"name":"a\"b","ratio":0.5,"counts":[1,2],"by_provider":{"s3":7},"note":null,"pair":["k",3]}"#
        );
        let pretty = "{\n  \"name\": \"a\\\"b\",\n  \"ratio\": 0.5,\n  \"counts\": [\n    1,\n    2\n  ],\n  \
                      \"by_provider\": {\n    \"s3\": 7\n  },\n  \"note\": null,\n  \"pair\": [\n    \"k\",\n    3\n  ]\n}";
        assert_eq!(to_string_pretty(&r), pretty);
        assert_eq!(to_string_pretty(&Vec::<u64>::new()), "[]");
        assert_eq!(to_string_pretty(&BTreeMap::<String, u64>::new()), "{}");
        assert_eq!(to_string(&Duration::new(3, 5)), r#"{"secs":3,"nanos":5}"#);
    }
}
