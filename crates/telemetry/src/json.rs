//! Minimal JSON emission helpers.
//!
//! The trace writer hand-rolls its JSON instead of going through a generic
//! serializer so that the byte-level output is fully under this crate's
//! control: field order is fixed in code, numbers use Rust's shortest
//! round-trip formatting, and nothing about the output can drift with a
//! dependency upgrade. That is what makes the "two runs, same seed,
//! byte-identical traces" CI gate cheap to uphold.
//!
//! Every helper appends to a caller-supplied `String` and allocates
//! nothing of its own, so the collector can serialise a whole record into
//! one reused line buffer.

use std::fmt::Write as _;

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
}
