//! Property suites for the trace format: the single-pass borrowed parser
//! and the one serialiser, held to the parser and writer they replaced
//! (kept under `oracle/`), to each other, and to "never panics".
//!
//! Cases come from a seeded splitmix64 generator rather than an external
//! property-testing crate: `hyrd-telemetry` has no dependencies, and these
//! suites should run wherever the crate builds. A failure prints the case
//! that broke; the seeds are fixed, so it reproduces.

mod oracle;

use std::collections::BTreeMap;
use std::sync::Arc;

use hyrd_telemetry::{
    for_each_record, parse_jsonl, parse_line, Collector, Fields, LineParser, ManualClock, Record,
    SharedBuf, TraceRecord, TraceWriter, Value,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn pick_char(&mut self, from: &str) -> char {
        from.chars().nth(self.below(from.chars().count())).expect("index below the count")
    }
}

/// Characters a string is drawn from: plain text, everything the writer
/// escapes, and multi-byte characters up to the astral planes.
const ALPHABET: &str = "azA09._[] /\"\\\n\r\t\u{0}\u{1}\u{1f}\u{7f}é→\u{ffff}\u{1D11E}";

fn gen_string(rng: &mut Rng) -> String {
    if rng.below(4) == 0 {
        return rng.pick(&["provider.op", "Windows Azure", "read_file", "", "/r01/f7"]).to_string();
    }
    (0..rng.below(12)).map(|_| rng.pick_char(ALPHABET)).collect()
}

fn gen_u64(rng: &mut Rng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next() % 1000,
        _ => rng.next() >> rng.below(64),
    }
}

/// A float that survives `parse(emit(..))` as the same `F64`: finite, with
/// a fractional part (see [`integral_floats_read_back_as_integers`]).
fn gen_fractional(rng: &mut Rng) -> f64 {
    loop {
        let v = match rng.below(4) {
            0 => (rng.next() % 2_000_001) as f64 / 1000.0 - 1000.0,
            1 => f64::from_bits(rng.next()),
            2 => 4.7e-6 * (rng.below(1000) + 1) as f64,
            _ => (rng.next() as f64) / 1e30,
        };
        if v.is_finite() && v.fract() != 0.0 {
            return v;
        }
    }
}

fn gen_value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Bool(rng.below(2) == 0),
        1 => Value::U64(gen_u64(rng)),
        2 => Value::I64(-((gen_u64(rng) >> 1) as i64) - 1),
        3 => Value::I64(i64::MIN),
        4 => Value::F64(gen_fractional(rng)),
        _ => Value::Str(gen_string(rng)),
    }
}

fn gen_fields(rng: &mut Rng) -> Fields {
    let mut fields = Fields::new();
    if rng.below(3) > 0 {
        for _ in 0..rng.below(11) {
            fields.insert(gen_string(rng), gen_value(rng));
        }
    }
    fields
}

fn gen_opt_id(rng: &mut Rng) -> Option<u64> {
    (rng.below(3) > 0).then(|| gen_u64(rng))
}

fn gen_record(rng: &mut Rng) -> TraceRecord {
    match rng.below(8) {
        0 => TraceRecord::Meta {
            schema: gen_u64(rng) as u32,
            clock: gen_string(rng),
            t: gen_u64(rng),
        },
        1 | 2 => TraceRecord::SpanStart {
            id: gen_u64(rng),
            parent: gen_opt_id(rng),
            name: gen_string(rng),
            t: gen_u64(rng),
            fields: gen_fields(rng),
        },
        3 | 4 => TraceRecord::SpanEnd {
            id: gen_u64(rng),
            name: gen_string(rng),
            t: gen_u64(rng),
            dur_ns: gen_u64(rng),
            fields: gen_fields(rng),
        },
        _ => TraceRecord::Event {
            span: gen_opt_id(rng),
            name: gen_string(rng),
            t: gen_u64(rng),
            fields: gen_fields(rng),
        },
    }
}

/// Lines a trace never holds but a file on disk might: every rule of the
/// grammar leaned on from the wrong side.
fn hostile_lines() -> Vec<String> {
    let event = |rest: &str| format!("{{\"kind\":\"event\",\"name\":\"n\",\"t\":1{rest}}}");
    let mut lines: Vec<String> = [
        // duplicate keys, top level and in fields; unsorted fields
        "{\"t\":1,\"kind\":\"meta\",\"kind\":\"event\",\"name\":\"a\",\"name\":\"b\",\"t\":2}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"z\":1,\"a\":2,\"z\":\"last\"}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"a\":1},\"fields\":{\"b\":2}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"a\":1},\"fields\":7}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":7,\"fields\":{\"a\":1}}",
        // null / object field values, replaced or not
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":null}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":{}}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":{\"x\":{\"y\":null}}}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":null,\"k\":3}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":3,\"k\":null}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{\"k\":{},\"j\":1,\"k\":null,\"k\":2}}",
        "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\"fields\":{\"k\":null}}",
        "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\"fields\":7}",
        "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0,\"fields\":[]}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":null}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"fields\":{}}",
        // nested unknown objects, unknown keys of every type
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{\"a\":{\"b\":{}},\"c\":[1]}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{\"a\":{\"b\":{}},\"c\":1},\"y\":null}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{\"a\":{},}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{,}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{\"a\" 1}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"x\":{\"a\":{\"b\":1}",
        "{\"kind\":\"event\",\"name\":{},\"t\":1}",
        "{\"kind\":{},\"name\":\"n\",\"t\":1}",
        // whitespace everywhere it may and may not go
        " \t{ \"kind\" : \"event\" , \"name\":\"n\" ,\r\"t\" : 1 , \"fields\" : { \"a\" : 1 } } \r",
        "{ }",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,}",
        "{\"kind\":\"event\" \"name\":\"n\",\"t\":1}",
        // numbers: limits, signs, floats, junk
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":18446744073709551615}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":18446744073709551616}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":-1}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":-0}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1.0}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1e3}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":007}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"span\":-3}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"span\":null}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":1,\"span\":\"7\"}",
        "{\"kind\":\"span_start\",\"id\":1,\"parent\":2.5,\"name\":\"n\",\"t\":1}",
        "{\"kind\":\"span_start\",\"id\":1,\"name\":\"n\",\"t\":1}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":1}",
        "{\"kind\":\"meta\",\"schema\":4294967298,\"clock\":\"v\",\"t\":0}",
        "{\"kind\":\"unknown\",\"t\":0}",
        "{\"name\":\"n\",\"t\":0}",
        // not an object at all
        "",
        "   ",
        "null",
        "7",
        "\"s\"",
        "[1,2]",
        "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0}x",
        "{\"kind\":\"meta\",\"schema\":2,\"clock\":\"v\",\"t\":0}{}",
        "truex",
        "nul",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let numbers = "- --1 -.5 1. 1.e5 1e 1e+ 1E-2 +1 .5 1-2 1e999 -1e999 0.1e-400 \
                   9223372036854775808 -9223372036854775808 -9223372036854775809 \
                   9999999999999999999 99999999999999999999 -0 -00 00000000000000000000001 \
                   000000000000000000018446744073709551615 000000000000000000018446744073709551616 \
                   -000000000000000000009223372036854775808 -000000000000000000009223372036854775809 \
                   tru true false fals nul null nan inf 0x10 1_000";
    for v in numbers.split_whitespace() {
        lines.push(event(&format!(",\"fields\":{{\"v\":{v}}}")));
    }
    // escapes: every short form, \u in all its failure modes, surrogates
    for s in [
        "\\\"\\\\\\/\\n\\r\\t\\b\\f",
        "\\u0001\\u001f\\u00e9\\u2192",
        "\\ud834\\udd1e",
        "x\\ud834\\udd1ey",
        "\\ud834",
        "\\ud834x",
        "\\ud834\\u0041",
        "\\ud834\\ud834",
        "\\udd1e",
        "\\udd1e\\ud834",
        "\\ud834\\u",
        "\\ud834\\udd1",
        "\\u12",
        "\\u12g4",
        "\\u+123",
        "\\u-123",
        "\\u+041",
        "\\u-041",
        "\\u 041",
        "\\u00é9",
        "\\x41",
        "\\",
        "\\u",
        "tab\there",
        "ctl\u{1}raw",
        "é→\u{1D11E}",
        "a\\qb",
    ] {
        lines.push(event(&format!(",\"fields\":{{\"s\":\"{s}\"}}")));
        lines.push(event(&format!(",\"fields\":{{\"{s}\":1}}")));
        lines.push(format!("{{\"kind\":\"event\",\"name\":\"{s}\",\"t\":1}}"));
    }
    lines.push(event(",\"fields\":{\"s\":\"unterminated}}"));
    lines.push(event(",\"fields\":{\"s\":\"dangling\\"));
    lines
}

/// Text worth splicing into a line: every character the grammar gives
/// meaning to, and a few it does not.
const SPLICES: [&str; 12] = [
    "null",
    "\\u",
    "\\ud834",
    "\u{1}",
    "é",
    "\u{1D11E}",
    "\"fields\":",
    "\"",
    "\\",
    " ",
    "\t",
    "00",
];
const SPLICE_CHARS: &str = "{}[]:,-+.eE09untf";

fn gen_splice(rng: &mut Rng) -> String {
    if rng.below(3) == 0 {
        return rng.pick(&SPLICES).to_string();
    }
    rng.pick_char(SPLICE_CHARS).to_string()
}

/// One random edit of `line`, at a character boundary.
fn mutate(rng: &mut Rng, line: &str) -> String {
    let boundaries: Vec<usize> = line.char_indices().map(|(i, _)| i).chain([line.len()]).collect();
    let at = rng.pick(&boundaries);
    let mut out = line.to_string();
    match rng.below(4) {
        0 => out.insert_str(at, &gen_splice(rng)),
        1 => out.truncate(at),
        2 if at < line.len() => {
            let end = boundaries[boundaries.iter().position(|&b| b == at).unwrap() + 1];
            out.replace_range(at..end, &gen_splice(rng));
        }
        _ if at < line.len() => {
            out.remove(at);
        }
        _ => out.push_str(&gen_splice(rng)),
    }
    out
}

// ---------------------------------------------------------------------------
// (b) the parser against the retired one
// ---------------------------------------------------------------------------

/// Both parsers on one line: same accept/reject decision, same owned
/// record, and the borrowed record answers every lookup as the owned one.
fn assert_parsers_agree(line: &str) {
    let old = oracle::parse_line(line);
    let new = parse_line(line);
    match (&old, &new) {
        (Ok(old), Ok(new)) => {
            assert_eq!(new, std::slice::from_ref(old), "records differ on {line:?}")
        }
        (Err(_), Err(_)) => return,
        _ => panic!("accept/reject differs on {line:?}:\n  old {old:?}\n  new {new:?}"),
    }
    let owned = old.expect("both accepted");
    let mut parser = LineParser::new();
    let records = parser.parse(line).expect("parse_line accepted it");
    let borrowed = records[0];
    assert_eq!(borrowed.to_owned(), owned);
    assert_eq!(Record::kind(&borrowed), Record::kind(&owned));
    assert_eq!(Record::t(&borrowed), Record::t(&owned));
    assert_eq!(Record::name(&borrowed), owned.name());
    assert_eq!(Record::meta(&borrowed), Record::meta(&owned));
    for key in owned.fields().into_iter().flatten().map(|(k, _)| k.as_str()).chain(["absent"]) {
        assert_eq!(borrowed.field_str(key), owned.field_str(key), "{key:?} of {line:?}");
        assert_eq!(borrowed.field_u64(key), owned.field_u64(key), "{key:?} of {line:?}");
    }
}

#[test]
fn parser_matches_the_retired_parser_on_generated_records() {
    let mut rng = Rng(0x5EED_0001);
    for _ in 0..3_000 {
        assert_parsers_agree(&gen_record(&mut rng).to_json());
    }
}

#[test]
fn parser_matches_the_retired_parser_on_hostile_lines() {
    for line in hostile_lines() {
        assert_parsers_agree(&line);
    }
}

/// `\u` takes four ASCII hex digits and nothing else: a sign or a space
/// where a digit belongs refuses the line, on both sides of the oracle.
#[test]
fn unicode_escapes_take_four_hex_digits_only() {
    let line = |escape: &str| format!("{{\"kind\":\"event\",\"name\":\"{escape}\",\"t\":1}}");
    for bad in ["\\u+041", "\\u-041", "\\u 041", "\\u+04", "\\u004g"] {
        assert!(parse_line(&line(bad)).is_err(), "{bad} was accepted");
        assert!(oracle::parse_line(&line(bad)).is_err(), "{bad} was accepted by the oracle");
    }
    for (good, want) in [("\\u0041", "A"), ("\\u00e9", "é"), ("\\u00E9", "é")] {
        assert_eq!(parse_line(&line(good)).expect("four hex digits")[0].name(), Some(want));
    }
}

#[test]
fn parser_matches_the_retired_parser_on_every_truncation() {
    let mut rng = Rng(0x5EED_0002);
    let lines = (0..60).map(|_| gen_record(&mut rng).to_json()).chain(hostile_lines());
    for line in lines {
        for (cut, _) in line.char_indices() {
            assert_parsers_agree(&line[..cut]);
        }
    }
}

#[test]
fn parser_matches_the_retired_parser_on_mutated_lines() {
    let mut rng = Rng(0x5EED_0003);
    let hostile = hostile_lines();
    for round in 0..6_000 {
        let mut line = if round % 3 == 0 {
            hostile[rng.below(hostile.len())].clone()
        } else {
            gen_record(&mut rng).to_json()
        };
        for _ in 0..=rng.below(3) {
            line = mutate(&mut rng, &line);
            assert_parsers_agree(&line);
        }
    }
}

// ---------------------------------------------------------------------------
// (a) never panics
// ---------------------------------------------------------------------------

#[test]
fn parser_never_panics_on_arbitrary_bytes() {
    let mut rng = Rng(0x5EED_0004);
    // Bytes biased toward the grammar's own, so the parser gets past the
    // first character often enough to matter.
    const BIASED: &[u8] = b"{}[]\":,\\ \t\r\nuntfe0123456789.-+eEkindmetaspan_startfields";
    let mut text = String::new();
    for _ in 0..20_000 {
        let bytes: Vec<u8> = (0..rng.below(48))
            .map(|_| if rng.below(4) == 0 { rng.next() as u8 } else { rng.pick(BIASED) })
            .collect();
        // Whatever reads a trace file hands the parser a `str`.
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_line(&line);
        // `lines()` would split at these; the trace below is made of lines.
        text.push_str(&line.replace(['\n', '\r'], " "));
        text.push('\n');
    }
    // The same soup as one multi-line trace, through both whole-trace
    // entry points: they stop at the first bad line and say which.
    let first_bad = text.lines().position(|l| !l.trim().is_empty() && parse_line(l).is_err());
    let streamed = for_each_record(&text, |_| ());
    match first_bad {
        Some(i) => {
            let err = streamed.expect_err("a line is bad");
            assert!(err.what.starts_with(&format!("line {i}: ")), "{err}");
            assert_eq!(parse_jsonl(&text).unwrap_err(), err);
        }
        None => assert!(streamed.is_ok() && parse_jsonl(&text).is_ok()),
    }
}

#[test]
fn parser_never_panics_on_mutations_of_valid_lines() {
    let mut rng = Rng(0x5EED_0005);
    let mut lines = Vec::new();
    for _ in 0..4_000 {
        let mut line = gen_record(&mut rng).to_json();
        for _ in 0..8 {
            line = mutate(&mut rng, &line);
            lines.push(line.clone());
        }
    }
    // One parser down the whole list: what a line leaves behind in it — a
    // half-read `fields` object, a refused value — must not reach the next.
    let mut parser = LineParser::new();
    for line in &lines {
        let reused = parser.parse(line).map(|r| r.iter().map(|r| r.to_owned()).collect());
        assert_eq!(reused, parse_line(line), "a reused parser carried state into {line:?}");
    }
}

// ---------------------------------------------------------------------------
// (c) parse(emit(r)) == r
// ---------------------------------------------------------------------------

#[test]
fn records_round_trip_through_the_trace_format() {
    let mut rng = Rng(0x5EED_0006);
    let records: Vec<TraceRecord> = (0..3_000).map(|_| gen_record(&mut rng)).collect();
    let mut text = String::new();
    for r in &records {
        let line = r.to_json();
        assert_eq!(
            parse_line(&line).expect("own output parses"),
            std::slice::from_ref(r),
            "{line}"
        );
        text.push_str(&line);
        text.push('\n');
    }
    assert_eq!(parse_jsonl(&text).expect("own output parses"), records);
    // Streaming sees the same records, and re-serialising what it lends
    // reproduces the trace byte for byte.
    let mut rewritten = Vec::new();
    let mut seen = 0;
    for_each_record(&text, |r| {
        assert_eq!(r.to_owned(), records[seen]);
        seen += 1;
        r.write_json(&mut rewritten);
        rewritten.push(b'\n');
    })
    .expect("own output parses");
    assert_eq!(seen, records.len());
    assert_eq!(rewritten, text.as_bytes());
}

/// The documented exception to the round trip: a float with no fractional
/// part prints without one and reads back as an integer, and a non-finite
/// float prints as `null`, which no field may hold.
#[test]
fn integral_floats_read_back_as_integers() {
    let event = |v: f64| {
        let fields = Fields::from([("v".to_string(), Value::F64(v))]);
        TraceRecord::Event { span: None, name: "e".into(), t: 0, fields }.to_json()
    };
    let back = |v: f64| parse_line(&event(v)).map(|r| r[0].fields().unwrap()["v"].clone());
    assert_eq!(back(3.0), Ok(Value::U64(3)));
    assert_eq!(back(0.0), Ok(Value::U64(0)));
    assert_eq!(back(-3.0), Ok(Value::I64(-3)));
    assert_eq!(back(-0.0), Ok(Value::I64(0)));
    assert_eq!(back(9_007_199_254_740_992.0), Ok(Value::U64(1 << 53)));
    assert_eq!(back(0.5), Ok(Value::F64(0.5)));
    // Past u64 the digits no longer fit the integer they look like.
    assert!(back(1e20).is_err());
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(event(v).ends_with("\"fields\":{\"v\":null}}"));
        assert!(back(v).is_err());
    }
}

// ---------------------------------------------------------------------------
// (d) the one writer, hot path and owned path
// ---------------------------------------------------------------------------

#[test]
fn to_json_matches_the_retired_writer() {
    let mut rng = Rng(0x5EED_0007);
    for _ in 0..3_000 {
        let mut r = gen_record(&mut rng);
        // Non-finite and integral floats included: bytes, not round trips.
        if let TraceRecord::Event { fields, .. } = &mut r {
            for v in [f64::NAN, f64::INFINITY, -0.0, 3.0, 1e300] {
                if rng.below(4) == 0 {
                    fields.insert(gen_string(&mut rng), Value::F64(v));
                }
            }
        }
        assert_eq!(r.to_json(), oracle::to_json(&r));
    }
}

/// Field keys the builders are handed (they take `&'static str`): more of
/// them than a builder holds inline, some needing escapes, one a prefix
/// of another.
const KEYS: [&str; 12] = [
    "provider",
    "op",
    "bytes_in",
    "bytes_out",
    "bytes",
    "latency_ns",
    "cost",
    "π",
    "with\"quote",
    "ctl\u{1}",
    "",
    "zeta",
];

#[test]
fn collector_writes_what_to_json_writes() {
    let mut rng = Rng(0x5EED_0008);
    let clock = Arc::new(ManualClock::new());
    let sink = SharedBuf::new();
    let rounds = 2_000;
    let c = Collector::builder(clock.clone()).jsonl(sink.clone()).ring(5 * rounds).build();
    // The fields each record must come out with, in emission order.
    let mut expected: Vec<Fields> = Vec::new();
    for _ in 0..rounds {
        clock.advance(rng.next() % 1000);
        let name = gen_string(&mut rng);
        // Up to 14 fields over 12 keys: past a builder's inline capacity,
        // and repeats are certain at the top end.
        let entries: Vec<(&'static str, Value)> = (0..rng.below(15))
            .map(|_| {
                let value = match rng.below(6) {
                    0 => Value::F64(rng.pick(&[f64::NAN, f64::INFINITY, -0.0, 3.0, 4.7e-6])),
                    _ => gen_value(&mut rng),
                };
                (rng.pick(&KEYS), value)
            })
            .collect();
        // A map filled in call order: a repeated key keeps its last value.
        let fields: Fields = entries.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        // Strings go in borrowed or handed over, as call sites do both.
        let lend: Vec<bool> = entries.iter().map(|_| rng.below(2) == 0).collect();
        macro_rules! feed {
            ($builder:expr) => {
                for ((key, value), lend) in entries.iter().zip(&lend) {
                    match value {
                        Value::Str(s) if !*lend => $builder.field(key, s.clone()),
                        value => $builder.field(key, value.as_ref()),
                    };
                }
            };
        }

        // Some records sit inside a labelled span, so `span` / `parent`
        // are not always null.
        let outer = (rng.below(3) == 0).then(|| c.span_labeled(&name, gen_string(&mut rng)));
        expected.extend(outer.iter().map(|_| Fields::new()));
        if rng.below(3) == 0 {
            let mut span = c.span_with(&name);
            feed!(span);
            let guard = span.start();
            expected.push(fields);
            clock.advance(rng.next() % 1000);
            drop(guard);
            expected.push(Fields::new());
        } else {
            let mut event = c.event(&name);
            feed!(event);
            event.emit();
            expected.push(fields);
        }
        expected.extend(outer.iter().map(|_| Fields::new()));
    }
    c.flush();

    let text = sink.text();
    let records = c.ring_records();
    assert_eq!(records.len(), 1 + expected.len());
    assert!(matches!(records[0], TraceRecord::Meta { .. }));
    // The sink holds what the one writer makes of the records the ring
    // was given, and each record lays out as the retired writer laid it.
    assert_eq!(text, write_trace(&records));
    // `NaN != NaN`: compare fields by what they print as.
    let print = |f: &Fields| -> BTreeMap<String, String> {
        f.iter().map(|(k, v)| (k.clone(), format!("{v:?}"))).collect()
    };
    for (record, want) in records.iter().skip(1).zip(&expected) {
        let line = record.to_json();
        assert_eq!(line, oracle::to_json(record));
        assert_eq!(print(record.fields().expect("not a meta record")), print(want), "{line}");
    }
}

// ---------------------------------------------------------------------------
// (e) schema 3: the lines several records share
// ---------------------------------------------------------------------------

/// `records` as the trace writer writes them.
fn write_trace(records: &[TraceRecord]) -> String {
    let mut writer = TraceWriter::new(Vec::new());
    for r in records {
        r.lend(|r| writer.write(r));
    }
    writer.flush().expect("a Vec takes every byte");
    String::from_utf8(writer.get_ref().clone()).expect("the writer writes UTF-8")
}

const OP_SPANS: [&str; 4] = ["put_replica", "fetch_replica", "put_fragment", "fetch_fragment"];

fn gen_provider(rng: &mut Rng) -> String {
    match rng.below(3) {
        0 => gen_string(rng),
        _ => {
            rng.pick(&["Aliyun", "Windows Azure", "Amazon S3", "Rack\"space", "a]b", "a[b"]).into()
        }
    }
}

/// A `provider.op`'s fields as `SimProvider` gives them, for `provider`,
/// sometimes with more fields beside them.
fn gen_op_fields(rng: &mut Rng, provider: &str) -> Fields {
    let bytes = |rng: &mut Rng| Value::U64(if rng.below(2) == 0 { 0 } else { gen_u64(rng) });
    let mut fields = Fields::from([
        ("bytes_in".into(), bytes(rng)),
        ("bytes_out".into(), bytes(rng)),
        ("latency_ns".into(), Value::U64(gen_u64(rng))),
        ("op".into(), Value::Str(rng.pick(&["Put", "Get", "Remove", "List"]).into())),
        ("provider".into(), Value::Str(provider.into())),
    ]);
    let cost = match rng.below(3) {
        0 => Value::U64(0),
        _ => Value::F64(gen_fractional(rng)),
    };
    fields.insert("cost".into(), cost);
    if rng.below(6) == 0 {
        fields.insert(gen_string(rng), gen_value(rng));
    }
    fields
}

/// How a generated group departs from the shape that shares a line.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Miss {
    None,
    SecondOp,
    FaultInside,
    OtherProvider,
    TimeMoves,
    Lasts,
    UnderASpan,
    Interleaved,
    StartHasFields,
    EndHasFields,
    NoByteCount,
    NotAnOpSpan,
    OtherEnd,
    Unfinished,
}

const MISSES: [Miss; 14] = [
    Miss::None,
    Miss::SecondOp,
    Miss::FaultInside,
    Miss::OtherProvider,
    Miss::TimeMoves,
    Miss::Lasts,
    Miss::UnderASpan,
    Miss::Interleaved,
    Miss::StartHasFields,
    Miss::EndHasFields,
    Miss::NoByteCount,
    Miss::NotAnOpSpan,
    Miss::OtherEnd,
    Miss::Unfinished,
];

/// A per-provider span holding its `provider.op`, or a near miss of one.
fn gen_op_group(rng: &mut Rng, out: &mut Vec<TraceRecord>, miss: Miss) {
    let (id, t) = (gen_u64(rng), gen_u64(rng));
    let provider = gen_provider(rng);
    let span = if miss == Miss::NotAnOpSpan {
        rng.pick(&["recover_provider", "put_replicas", "fetch_replica ", ""])
    } else {
        rng.pick(&OP_SPANS)
    };
    let name = format!("{span}[{provider}]");
    let mut start = Fields::new();
    if miss == Miss::StartHasFields {
        start.insert(gen_string(rng), gen_value(rng));
    }
    out.push(TraceRecord::SpanStart {
        id,
        parent: gen_opt_id(rng),
        name: name.clone(),
        t,
        fields: start,
    });
    let event = |span: Option<u64>, name: &str, t: u64, fields: Fields| TraceRecord::Event {
        span,
        name: name.into(),
        t,
        fields,
    };
    if miss == Miss::FaultInside && rng.below(2) == 0 {
        let fields = Fields::from([("provider".into(), Value::Str(provider.clone()))]);
        out.push(event(Some(id), pick_fault(rng), t, fields));
    }
    if miss == Miss::Interleaved && rng.below(2) == 0 {
        out.push(gen_record(rng));
    }
    let mut fields = gen_op_fields(rng, &provider);
    match miss {
        Miss::OtherProvider => {
            let other = format!("{provider}x");
            fields.insert("provider".into(), Value::Str(other));
        }
        Miss::NoByteCount => {
            fields.remove(rng.pick(&["bytes_in", "bytes_out", "provider"]));
        }
        _ => {}
    }
    let (op_span, op_t) = match miss {
        Miss::UnderASpan => (rng.pick(&[None, Some(id.wrapping_add(1))]), t),
        Miss::TimeMoves if rng.below(2) == 0 => (Some(id), t.wrapping_add(1)),
        _ => (Some(id), t),
    };
    out.push(event(op_span, "provider.op", op_t, fields));
    match miss {
        Miss::SecondOp => {
            let fields = gen_op_fields(rng, &provider);
            out.push(event(Some(id), "provider.op", t, fields));
        }
        Miss::FaultInside => {
            let fields = Fields::from([("delay_ns".into(), Value::U64(gen_u64(rng)))]);
            out.push(event(Some(id), pick_fault(rng), t, fields));
        }
        Miss::Interleaved => out.push(gen_record(rng)),
        Miss::Unfinished => return,
        _ => {}
    }
    let end_t = if miss == Miss::TimeMoves { t.wrapping_add(1) } else { t };
    let dur_ns = if miss == Miss::Lasts { 1 + gen_u64(rng) / 2 } else { 0 };
    let (end_id, end_name) = match (miss, rng.below(2)) {
        (Miss::OtherEnd, 0) => (id.wrapping_add(1), name),
        (Miss::OtherEnd, _) => (id, format!("{name}.")),
        _ => (id, name),
    };
    let mut end = Fields::new();
    if miss == Miss::EndHasFields {
        end.insert(gen_string(rng), gen_value(rng));
    }
    out.push(TraceRecord::SpanEnd { id: end_id, name: end_name, t: end_t, dur_ns, fields: end });
}

fn pick_fault(rng: &mut Rng) -> &'static str {
    rng.pick(&["provider.fault", "retry.backoff", "breaker.reject"])
}

/// A span end followed by the replay driver's `replay.op`, or a near miss
/// of one.
fn gen_replay_group(rng: &mut Rng, out: &mut Vec<TraceRecord>, miss: Miss) {
    let t = gen_u64(rng);
    let dur_ns = if rng.below(2) == 0 { 0 } else { gen_u64(rng) };
    let name = rng.pick(&["read_file", "create_file", "update_file"]).to_string();
    out.push(TraceRecord::SpanEnd { id: gen_u64(rng), name, t, dur_ns, fields: gen_fields(rng) });
    match miss {
        Miss::Interleaved => out.push(gen_record(rng)),
        Miss::Unfinished => return,
        _ => {}
    }
    let span = if miss == Miss::UnderASpan { Some(gen_u64(rng)) } else { None };
    let t = if miss == Miss::TimeMoves { t.wrapping_add(1 + gen_u64(rng) / 2) } else { t };
    let mut fields = gen_fields(rng);
    if rng.below(2) == 0 {
        fields.insert("class".into(), Value::Str("small-read".into()));
        fields.insert("latency_ns".into(), Value::U64(gen_u64(rng)));
    }
    out.push(TraceRecord::Event { span, name: "replay.op".into(), t, fields });
}

/// A record stream holding every shape the writer puts on one line and
/// every near miss of them, run together and among unrelated records.
fn gen_stream(rng: &mut Rng) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for _ in 0..rng.below(24) {
        match rng.below(5) {
            0 => out.push(gen_record(rng)),
            1 | 2 => {
                let miss = if rng.below(2) == 0 { Miss::None } else { rng.pick(&MISSES) };
                gen_op_group(rng, &mut out, miss);
            }
            _ => {
                let miss = rng.pick(&[
                    Miss::None,
                    Miss::None,
                    Miss::UnderASpan,
                    Miss::TimeMoves,
                    Miss::Interleaved,
                    Miss::Unfinished,
                ]);
                gen_replay_group(rng, &mut out, miss);
            }
        }
    }
    out
}

#[test]
fn record_streams_round_trip_through_the_trace_writer() {
    let mut rng = Rng(0x5EED_0009);
    let (mut records, mut lines) = (0, 0);
    for case in 0..3_000 {
        let stream = gen_stream(&mut rng);
        let text = write_trace(&stream);
        assert_eq!(parse_jsonl(&text).as_ref(), Ok(&stream), "case {case}:\n{text}");
        // Every line decodes on its own: a trace cut at any line boundary
        // reads as the records after the cut.
        let mut one_by_one = Vec::new();
        for line in text.lines() {
            one_by_one.extend(parse_line(line).expect("each line parses alone"));
        }
        assert_eq!(one_by_one, stream, "case {case}");
        // The expansion is the plain layout of every record, and writing
        // what was read gives the same lines.
        let mut expanded = String::new();
        for r in &stream {
            expanded.push_str(&r.to_json());
            expanded.push('\n');
        }
        let mut plain = Vec::new();
        for_each_record(&text, |r| {
            r.write_json(&mut plain);
            plain.push(b'\n');
        })
        .expect("own output parses");
        assert_eq!(String::from_utf8(plain).unwrap(), expanded, "case {case}");
        assert_eq!(write_trace(&parse_jsonl(&text).unwrap()), text, "case {case}");
        records += stream.len();
        lines += text.lines().count();
    }
    assert!(lines < records * 3 / 4, "{records} records took {lines} lines");
}

/// The shapes pinned byte for byte: what `SimProvider` and the replay
/// driver emit, one line each, and the defaults left out of a plain line.
#[test]
fn the_writer_lays_out_op_lines_replays_and_defaults() {
    let op_fields = Fields::from([
        ("bytes_in".into(), Value::U64(26_773)),
        ("bytes_out".into(), Value::U64(0)),
        ("cost".into(), Value::F64(1.6e-7)),
        ("latency_ns".into(), Value::U64(70_649_236)),
        ("op".into(), Value::Str("Put".into())),
        ("provider".into(), Value::Str("Windows Azure".into())),
    ]);
    let name = "put_replica[Windows Azure]".to_string();
    let stream = vec![
        TraceRecord::SpanStart {
            id: 2,
            parent: None,
            name: "create_file".into(),
            t: 7,
            fields: Fields::new(),
        },
        TraceRecord::SpanStart {
            id: 3,
            parent: Some(2),
            name: name.clone(),
            t: 7,
            fields: Fields::new(),
        },
        TraceRecord::Event { span: Some(3), name: "provider.op".into(), t: 7, fields: op_fields },
        TraceRecord::SpanEnd { id: 3, name, t: 7, dur_ns: 0, fields: Fields::new() },
        TraceRecord::Event {
            span: Some(2),
            name: "meta.flush.diff".into(),
            t: 7,
            fields: Fields::new(),
        },
        TraceRecord::SpanEnd {
            id: 2,
            name: "create_file".into(),
            t: 7,
            dur_ns: 0,
            fields: Fields::new(),
        },
        TraceRecord::Event {
            span: None,
            name: "replay.op".into(),
            t: 7,
            fields: Fields::from([("class".into(), Value::Str("small-write".into()))]),
        },
        TraceRecord::Event { span: None, name: "scrub".into(), t: 9, fields: Fields::new() },
    ];
    assert_eq!(
        write_trace(&stream),
        "{\"kind\":\"span_start\",\"id\":2,\"name\":\"create_file\",\"t\":7}\n\
         {\"kind\":\"op\",\"id\":3,\"parent\":2,\"name\":\"put_replica[Windows Azure]\",\"t\":7,\
         \"fields\":{\"bytes_in\":26773,\"cost\":0.00000016,\"latency_ns\":70649236,\"op\":\"Put\"}}\n\
         {\"kind\":\"event\",\"span\":2,\"name\":\"meta.flush.diff\",\"t\":7}\n\
         {\"kind\":\"span_end\",\"id\":2,\"name\":\"create_file\",\"t\":7,\
         \"replay\":{\"class\":\"small-write\"}}\n\
         {\"kind\":\"event\",\"name\":\"scrub\",\"t\":9}\n"
    );
    assert_eq!(parse_jsonl(&write_trace(&stream)), Ok(stream));
}

/// What a schema-3 line may not say: an op line names a per-provider
/// span, and only a span end carries a replay record, as an object.
#[test]
fn schema_3_lines_are_checked_like_the_rest() {
    let good = [
        "{\"kind\":\"op\",\"id\":1,\"name\":\"fetch_fragment[a]\",\"t\":0}",
        "{\"kind\":\"op\",\"id\":1,\"name\":\"fetch_fragment[\\u0041]\",\"t\":0}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":0,\"replay\":{}}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":0}",
    ];
    for line in good {
        assert!(parse_line(line).is_ok(), "{line}");
    }
    let records = parse_line(good[1]).unwrap();
    assert_eq!(records.len(), 3);
    assert_eq!(records[1].field_str("provider"), Some("A"));
    assert_eq!(records[1].field_u64("bytes_out"), Some(0));
    let bad = [
        "{\"kind\":\"op\",\"id\":1,\"name\":\"read_file[a]\",\"t\":0}",
        "{\"kind\":\"op\",\"id\":1,\"name\":\"fetch_fragment\",\"t\":0}",
        "{\"kind\":\"op\",\"name\":\"fetch_fragment[a]\",\"t\":0}",
        "{\"kind\":\"op\",\"id\":1,\"name\":\"fetch_fragment[a]\",\"t\":0,\"fields\":{\"k\":null}}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":0,\"replay\":7}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":0,\"replay\":{\"k\":{}}}",
        "{\"kind\":\"event\",\"name\":\"n\",\"t\":0,\"replay\":{}}",
        "{\"kind\":\"span_end\",\"id\":1,\"name\":\"n\",\"t\":0,\"dur_ns\":null}",
    ];
    for line in bad {
        assert!(parse_line(line).is_err(), "{line}");
    }
}

/// The collector feeds its JSONL sink the records its ring and tap see,
/// op spans and replay records included, and the lines it writes expand
/// back to exactly them.
#[test]
fn collector_op_lines_expand_to_the_records_it_emitted() {
    let mut rng = Rng(0x5EED_000A);
    let clock = Arc::new(ManualClock::new());
    let sink = SharedBuf::new();
    let c = Collector::builder(clock.clone()).jsonl(sink.clone()).ring(1 << 16).build();
    for round in 0..500u64 {
        let request = c.span_with("read_file").field("path", "/d/f").start();
        for _ in 0..rng.below(4) {
            let provider = gen_provider(&mut rng);
            let _op = c.span_labeled(rng.pick(&OP_SPANS), &provider);
            if rng.below(5) == 0 {
                c.event("provider.fault").field("provider", provider.as_str()).emit();
            }
            if rng.below(5) == 0 {
                clock.advance(1);
            }
            let bytes = [0, gen_u64(&mut rng)];
            c.event("provider.op")
                .field("bytes_in", bytes[rng.below(2)])
                .field("bytes_out", bytes[rng.below(2)])
                .field("cost", rng.pick(&[1.6e-7, 4.7e-6]))
                .field("latency_ns", gen_u64(&mut rng))
                .field("op", rng.pick(&["Put", "Get"]))
                .field("provider", provider.as_str())
                .emit();
        }
        drop(request);
        c.event("replay.op").field("class", "small-read").field("round", round).emit();
        clock.advance(rng.next() % 3);
    }
    c.flush();
    let text = sink.text();
    let records = c.ring_records();
    assert_eq!(parse_jsonl(&text), Ok(records.clone()));
    assert_eq!(text, write_trace(&records));
    assert!(text.lines().count() < records.len() * 2 / 3);
}
