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
//! Every primitive appends to a caller-supplied `String` and allocates
//! nothing of its own, so the collector can serialise a whole record into
//! one reused line buffer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub(crate) fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is a single ASCII byte, so the
    // stretches between such bytes are copied whole.
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// Append `v` in decimal, through a stack buffer.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

/// Append `v` in decimal.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `Some(v)` in decimal, `None` as `null`.
pub(crate) fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => push_u64(out, v),
        None => out.push_str("null"),
    }
}

/// Append a JSON number for `v`. Uses `{}` (shortest round-trip) formatting;
/// non-finite values have no JSON representation and are emitted as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A value that can write itself as JSON.
pub trait ToJson {
    fn write_json(&self, w: &mut JsonWriter);
}

/// Builds one JSON document: compact, or indented two spaces a level with
/// one member or element per line (empty containers stay `{}` / `[]`).
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// The container being written has no member yet.
    empty: bool,
}

impl JsonWriter {
    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// Separator and line break before a member or an element.
    fn next_item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.line_break();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.line_break();
        }
        self.empty = false;
        self.out.push(bracket);
    }

    fn line_break(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    /// An object whose members `fields` writes with [`Self::field`].
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) {
        self.open('{');
        fields(self);
        self.close('}');
    }

    /// One `"key": value` member of the object being written.
    pub fn field(&mut self, key: &str, value: &(impl ToJson + ?Sized)) {
        self.next_item();
        push_str_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        value.write_json(self);
    }

    /// An array of `items`.
    pub fn array<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) {
        self.open('[');
        for item in items {
            self.next_item();
            item.write_json(self);
        }
        self.close(']');
    }
}

fn render(value: &(impl ToJson + ?Sized), pretty: bool) -> String {
    let mut w = JsonWriter { out: String::new(), pretty, depth: 0, empty: true };
    value.write_json(&mut w);
    w.out
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
        w.out.push_str(if *self { "true" } else { "false" });
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
            None => w.out.push_str("null"),
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
        w.open('[');
        w.next_item();
        self.0.write_json(w);
        w.next_item();
        self.1.write_json(w);
        w.close(']');
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

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        s.clear();
        push_str_escaped(&mut s, "π\u{1f}→\u{7f}");
        assert_eq!(s, "\"π\\u001f→\u{7f}\"");
    }

    #[test]
    fn integers_match_display() {
        for v in [0u64, 7, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for v in [0i64, -1, 42, i64::MIN, i64::MAX] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn f64_formats() {
        let mut s = String::new();
        push_f64(&mut s, 0.5);
        s.push(',');
        push_f64(&mut s, 3.0);
        s.push(',');
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "0.5,3,null");
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
