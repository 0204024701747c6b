//! `--compare A.json B.json`: per (workload, end-to-end metric), how far
//! B's median sits from A's in the worse direction, against the metric's
//! bound.
//!
//! * `regression` — worse by more than the bound;
//! * `unresolved` — either set's inter-quartile range, as a share of its
//!   median, is wider than the bound, so the sets cannot tell;
//! * `ok` — otherwise.
//!
//! Deterministic metrics have no spread, so any drift past the bound
//! resolves.

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END};
use crate::workloads::Workload;

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: medians `a` and `b`, their inter-quartile ranges.
pub fn judge(better: Better, bound: f64, a: f64, iqr_a: f64, b: f64, iqr_b: f64) -> (f64, Verdict) {
    let base = a.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    };
    let spread = (iqr_a / base).max(iqr_b / b.abs().max(f64::MIN_POSITIVE));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn metric(doc: &Value, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("iqr")?.as_f64()?))
}

/// Compares two result files written by `--all`.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for def in &END_TO_END {
            let (Some((va, ia)), Some((vb, ib))) =
                (metric(&a, workload.name(), def.name), metric(&b, workload.name(), def.name))
            else {
                return Err(format!(
                    "{} / {} is missing from one of the files",
                    workload.name(),
                    def.name
                ));
            };
            let (worse_by, verdict) = judge(def.better, def.bound, va, ia, vb, ib);
            rows.push(Row {
                workload: workload.name(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    )
    .expect("writing to a String");
    for r in rows {
        writeln!(
            out,
            "{:<18} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        )
        .expect("writing to a String");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    writeln!(
        out,
        "{} ok, {} regression, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regression),
        count(Verdict::Unresolved)
    )
    .expect("writing to a String");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(Better::Lower, 0.1, 100.0, 1.0, 105.0, 1.0).1, Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.1, 100.0, 1.0, 111.0, 1.0).1, Verdict::Regression);
        assert_eq!(judge(Better::Lower, 0.1, 100.0, 1.0, 50.0, 1.0).1, Verdict::Ok);
        // Higher is better: a drop is what is worse.
        let (worse, verdict) = judge(Better::Higher, 0.1, 100.0, 1.0, 85.0, 1.0);
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(judge(Better::Higher, 0.1, 100.0, 1.0, 120.0, 1.0).1, Verdict::Ok);
        // A spread wider than the bound cannot resolve either way.
        assert_eq!(judge(Better::Lower, 0.1, 100.0, 12.0, 130.0, 1.0).1, Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.1, 100.0, 1.0, 101.0, 15.0).1, Verdict::Unresolved);
        // Deterministic metrics: no spread, any drift past the bound shows.
        assert_eq!(judge(Better::Lower, 0.005, 2.0, 0.0, 2.02, 0.0).1, Verdict::Regression);
        assert_eq!(judge(Better::Lower, 0.005, 2.0, 0.0, 2.0, 0.0).1, Verdict::Ok);
    }

    #[test]
    fn missing_metrics_are_an_error() {
        assert!(compare("{}", "{}").is_err());
        assert!(compare("not json", "{}").is_err());
    }
}
