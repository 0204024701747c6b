//! Human-readable summary renderer: a per-phase, flame-style breakdown of
//! where (virtual) time went, plus the counters and histogram digests.

use std::collections::BTreeMap;

use crate::registry::MetricsSnapshot;

/// Separator between path segments of nested spans. With `BTreeMap`
/// ordering, a parent's children sort directly under it, which is what lets
/// the renderer walk the aggregate map once and indent by depth.
pub(crate) const PATH_SEP: &str = " → ";

/// Aggregate of all spans that shared one path through the span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
}

crate::json_struct! {
    /// One completed span, kept for the "slowest spans" report section.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlowSpan {
        /// Full flame path, e.g. `read_file → fetch_fragment[aliyun]`.
        pub path: String,
        pub dur_ns: u64,
        /// Trace-clock timestamp of the span start, to locate it in the JSONL.
        pub start_ns: u64,
    }
}

/// Deterministic ordering of completed spans, each given as `(dur_ns,
/// start_ns, path)`: longest first, earliest start breaks ties, then path
/// for full stability.
pub(crate) fn slow_span_order(a: (u64, u64, &str), b: (u64, u64, &str)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)).then_with(|| a.2.cmp(b.2))
}

/// Format nanoseconds with a unit chosen for readability. Deterministic
/// (fixed decimals, no locale).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

pub(crate) fn render(
    agg: &BTreeMap<String, SpanAgg>,
    spans_ended: u64,
    snapshot: &MetricsSnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("== telemetry summary ({spans_ended} spans) ==\n"));
    for (path, a) in agg {
        let depth = path.matches(PATH_SEP).count();
        let leaf = path.rsplit(PATH_SEP).next().unwrap_or(path.as_str());
        let label = if depth == 0 {
            leaf.to_string()
        } else {
            format!("{}→ {}", "  ".repeat(depth), leaf)
        };
        let mean = a.total_ns.checked_div(a.count).unwrap_or(0);
        out.push_str(&format!(
            "{label:<44} calls={:<6} total={:<10} mean={}\n",
            a.count,
            fmt_ns(a.total_ns),
            fmt_ns(mean)
        ));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in &snapshot.counters {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (k, d) in &snapshot.histograms {
            out.push_str(&format!(
                "  {k}: count={} p50={} p95={} p99={} p999={} max={}\n",
                d.count,
                fmt_ns(d.p50),
                fmt_ns(d.p95),
                fmt_ns(d.p99),
                fmt_ns(d.p999),
                fmt_ns(d.max)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_000_000), "2.0ms");
        assert_eq!(fmt_ns(1_250_000_000), "1.25s");
    }

    #[test]
    fn render_indents_children_under_parent() {
        let mut agg = BTreeMap::new();
        agg.insert("read_file".to_string(), SpanAgg { count: 2, total_ns: 4_000_000 });
        agg.insert(
            format!("read_file{PATH_SEP}ec.decode"),
            SpanAgg { count: 2, total_ns: 1_000_000 },
        );
        let s = render(&agg, 4, &MetricsSnapshot::default());
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("4 spans"));
        assert!(lines[1].starts_with("read_file"));
        assert!(lines[2].starts_with("  → ec.decode"));
    }

    #[test]
    fn slow_span_ordering_is_total() {
        let a = SlowSpan { path: "a".into(), dur_ns: 10, start_ns: 5 };
        let b = SlowSpan { path: "b".into(), dur_ns: 10, start_ns: 3 };
        let c = SlowSpan { path: "c".into(), dur_ns: 99, start_ns: 9 };
        let mut v = vec![a.clone(), b.clone(), c.clone()];
        fn key(s: &SlowSpan) -> (u64, u64, &str) {
            (s.dur_ns, s.start_ns, &s.path)
        }
        v.sort_by(|a, b| slow_span_order(key(a), key(b)));
        assert_eq!(v, vec![c, b, a]);
    }
}
