//! Deterministic trace analyzer: turns a telemetry JSONL trace into the
//! full availability-observatory report.
//!
//! Sections, in order:
//!
//! 1. The observatory's own SLI / exposure / read-ledger report
//!    (`hyrd::observatory`, DESIGN.md §14).
//! 2. **Availability cross-check**: empirical per-read availability from
//!    the read ledger versus the paper's analytical HyRD model
//!    (`hyrd_costsim::hyrd_availability`) fed with the *measured*
//!    per-provider availability and small-read fraction. `--check-model`
//!    turns a mismatch beyond `--tolerance` into a hard failure.
//! 3. **Critical-path waterfalls**: the top `--top` root spans by
//!    duration, each rendered as an indented bar chart of its sub-spans.
//! 4. **Flame aggregation**: span name-paths (root;child;...) with call
//!    count, total and self time, hottest first.
//! 5. **Provider heatmap**: provider-op activity over `--buckets` equal
//!    time slices of the trace horizon, one glyph per cell.
//! 6. **SLO burn**: per-slice replay-op latency violations against
//!    `--slo-ms`, reported as burn rate against a 99% objective.
//!
//! Determinism: parsing fans out across `--jobs` threads but re-joins in
//! line order, and every aggregation below is a pure fold over that
//! sequence — the output bytes are identical for any `--jobs` value (CI
//! `cmp`s the jobs=1 and jobs=4 reports; `--selfcheck` does the same
//! in-process).
//!
//! Usage: `trace_report --trace PATH [--jobs N] [--out PATH]
//! [--check-model] [--tolerance F] [--slo-ms N] [--top N] [--buckets N]
//! [--rep R] [--m M] [--n N] [--selfcheck]`
//!
//! A trace that cannot be read or does not parse is refused with the
//! reason (for a parse error, the line it is on) on stderr and exit
//! code 2.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hyrd::observatory::{self, ObservatoryReport};
use hyrd::telemetry::{ParseError, TraceRecord};
use hyrd_costsim::hyrd_availability;

/// Shading ramp for the heatmap and burn bars, blank to dense.
const GLYPHS: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

fn secs(ns: u64) -> String {
    format!("{:.6}", ns as f64 / 1e9)
}

// ---------------------------------------------------------------------------
// Span analysis (waterfalls + flame)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: u64,
    dur: u64,
}

/// Closed spans in trace order plus a parent → children index.
struct SpanForest {
    spans: Vec<Span>,
    by_id: BTreeMap<u64, usize>,
    children: BTreeMap<u64, Vec<u64>>,
}

fn build_forest(records: &[TraceRecord]) -> SpanForest {
    let mut open: BTreeMap<u64, (Option<u64>, String, u64)> = BTreeMap::new();
    let mut spans = Vec::new();
    for rec in records {
        match rec {
            TraceRecord::SpanStart { id, parent, name, t, .. } => {
                open.insert(*id, (*parent, name.clone(), *t));
            }
            TraceRecord::SpanEnd { id, t, dur_ns, .. } => {
                if let Some((parent, name, start)) = open.remove(id) {
                    let _ = t;
                    spans.push(Span { id: *id, parent, name, start, dur: *dur_ns });
                }
            }
            _ => {}
        }
    }
    // Spans close child-before-parent; re-sort into start order (stable on
    // id for same-instant starts) so waterfalls read top-down.
    spans.sort_by_key(|s| (s.start, s.id));
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.id);
        }
    }
    SpanForest { spans, by_id, children }
}

fn waterfall_line(out: &mut String, forest: &SpanForest, span: &Span, root: &Span, depth: usize) {
    const BAR: usize = 40;
    let offset = span.start.saturating_sub(root.start);
    let (lo, hi) = if root.dur == 0 {
        (0, BAR)
    } else {
        let lo = ((offset as u128 * BAR as u128 / root.dur as u128) as usize).min(BAR - 1);
        let hi = ((offset + span.dur) as u128 * BAR as u128 / root.dur as u128) as usize;
        (lo, hi.clamp(lo + 1, BAR))
    };
    let mut bar = String::with_capacity(BAR);
    for i in 0..BAR {
        bar.push(if i >= lo && i < hi { '#' } else { ' ' });
    }
    let label = format!("{}{}", "  ".repeat(depth), span.name);
    let _ = writeln!(
        out,
        "{:<28} |{}| +{} {}",
        truncate(&label, 28),
        bar,
        secs(offset),
        secs(span.dur)
    );
    if let Some(kids) = forest.children.get(&span.id) {
        for kid in kids {
            let child = &forest.spans[forest.by_id[kid]];
            waterfall_line(out, forest, child, root, depth + 1);
        }
    }
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let cut: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

fn render_waterfalls(out: &mut String, forest: &SpanForest, top: usize) {
    out.push_str("\n## critical-path waterfalls\n");
    let mut roots: Vec<&Span> = forest.spans.iter().filter(|s| s.parent.is_none()).collect();
    // Slowest first; ties broken by start time then id so the pick is
    // stable no matter how the trace was parsed.
    roots.sort_by_key(|s| (std::cmp::Reverse(s.dur), s.start, s.id));
    if roots.is_empty() {
        out.push_str("(no spans in trace)\n");
        return;
    }
    for root in roots.into_iter().take(top) {
        let _ = writeln!(out, "\n### {} t0={} dur={}", root.name, secs(root.start), secs(root.dur));
        waterfall_line(out, forest, root, root, 0);
    }
}

fn render_flame(out: &mut String, forest: &SpanForest, top: usize) {
    out.push_str("\n## flame aggregation (by span path)\n");
    if forest.spans.is_empty() {
        out.push_str("(no spans in trace)\n");
        return;
    }
    // Path of each span: names root→self joined with ';'.
    let mut paths: BTreeMap<u64, String> = BTreeMap::new();
    for s in &forest.spans {
        let path = match s
            .parent
            .and_then(|p| forest.by_id.get(&p))
            .and_then(|i| paths.get(&forest.spans[*i].id))
        {
            Some(parent_path) => format!("{parent_path};{}", s.name),
            None => s.name.clone(),
        };
        paths.insert(s.id, path);
    }
    // Aggregate (count, total, self) per path.
    let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in &forest.spans {
        let child_ns: u64 = forest
            .children
            .get(&s.id)
            .map(|kids| kids.iter().map(|k| forest.spans[forest.by_id[k]].dur).sum())
            .unwrap_or(0);
        let entry = agg.entry(paths[&s.id].clone()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += s.dur;
        entry.2 += s.dur.saturating_sub(child_ns);
    }
    let mut rows: Vec<(&String, &(u64, u64, u64))> = agg.iter().collect();
    rows.sort_by_key(|(path, (_, total, _))| (std::cmp::Reverse(*total), (*path).clone()));
    out.push_str("total_s    self_s     count  path\n");
    for (path, (count, total, self_ns)) in rows.into_iter().take(top) {
        let _ = writeln!(out, "{:<10} {:<10} {:<6} {}", secs(*total), secs(*self_ns), count, path);
    }
}

// ---------------------------------------------------------------------------
// Heatmap + SLO burn
// ---------------------------------------------------------------------------

fn bucket_of(t: u64, start: u64, horizon: u64, buckets: usize) -> usize {
    if horizon == 0 {
        return 0;
    }
    let rel = t.saturating_sub(start).min(horizon);
    ((rel as u128 * buckets as u128 / (horizon as u128 + 1)) as usize).min(buckets - 1)
}

fn render_heatmap(out: &mut String, records: &[TraceRecord], buckets: usize) {
    out.push_str("\n## provider heatmap (ops per time slice)\n");
    let (start, last) = time_bounds(records);
    let horizon = last.saturating_sub(start);
    let mut grid: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for rec in records {
        if let TraceRecord::Event { name, t, .. } = rec {
            if name == "provider.op" {
                if let Some(p) = rec.field_str("provider") {
                    let row = grid.entry(p.to_string()).or_insert_with(|| vec![0; buckets]);
                    row[bucket_of(*t, start, horizon, buckets)] += 1;
                }
            }
        }
    }
    if grid.is_empty() {
        out.push_str("(no provider ops in trace)\n");
        return;
    }
    let peak = grid.values().flatten().copied().max().unwrap_or(1).max(1);
    let width = secs(horizon / buckets as u64);
    let _ = writeln!(out, "slice width = {width}s, peak = {peak} ops/slice");
    for (provider, row) in &grid {
        let cells: String = row
            .iter()
            .map(|n| {
                if *n == 0 {
                    GLYPHS[0]
                } else {
                    let shade = (n - 1) as u128 * (GLYPHS.len() as u128 - 2) / peak as u128;
                    GLYPHS[1 + shade as usize]
                }
            })
            .collect();
        let _ = writeln!(out, "{:<21} |{}|", provider, cells);
    }
}

fn time_bounds(records: &[TraceRecord]) -> (u64, u64) {
    let mut start = None;
    let mut last = 0u64;
    for rec in records {
        let t = match rec {
            TraceRecord::Meta { t, .. }
            | TraceRecord::SpanStart { t, .. }
            | TraceRecord::SpanEnd { t, .. }
            | TraceRecord::Event { t, .. } => *t,
        };
        if start.is_none() {
            start = Some(t);
        }
        last = last.max(t);
    }
    (start.unwrap_or(0), last)
}

fn render_slo_burn(out: &mut String, records: &[TraceRecord], slo_ms: u64, buckets: usize) {
    out.push_str("\n## SLO burn (99% of replay ops within threshold)\n");
    let slo_ns = slo_ms * 1_000_000;
    let (start, last) = time_bounds(records);
    let horizon = last.saturating_sub(start);
    let mut ops = vec![0u64; buckets];
    let mut violations = vec![0u64; buckets];
    for rec in records {
        if let TraceRecord::Event { name, t, .. } = rec {
            if name == "replay.op" {
                let b = bucket_of(*t, start, horizon, buckets);
                ops[b] += 1;
                if rec.field_u64("latency_ns").unwrap_or(0) > slo_ns {
                    violations[b] += 1;
                }
            }
        }
    }
    let total_ops: u64 = ops.iter().sum();
    let total_viol: u64 = violations.iter().sum();
    if total_ops == 0 {
        out.push_str("(no replay ops in trace)\n");
        return;
    }
    // Burn rate: violation fraction over the 1% error budget. 1.0 means
    // exactly burning budget at sustainable rate; >1 overspends.
    let bar: String = (0..buckets)
        .map(|b| {
            if ops[b] == 0 {
                GLYPHS[0]
            } else {
                let burn = (violations[b] as f64 / ops[b] as f64) / 0.01;
                GLYPHS[(burn.min(9.0) as usize).min(GLYPHS.len() - 1)]
            }
        })
        .collect();
    let compliance = 1.0 - total_viol as f64 / total_ops as f64;
    let burn = (total_viol as f64 / total_ops as f64) / 0.01;
    let _ = writeln!(out, "threshold={slo_ms}ms objective=99%");
    let _ = writeln!(out, "burn/slice            |{bar}|");
    let _ = writeln!(
        out,
        "ops={} violations={} compliance={:.6} burn_rate={:.2}",
        total_ops, total_viol, compliance, burn
    );
}

// ---------------------------------------------------------------------------
// Model cross-check
// ---------------------------------------------------------------------------

struct ModelCheck {
    measured: f64,
    modeled: f64,
    delta: f64,
    pass: bool,
}

fn render_model_check(
    out: &mut String,
    report: &ObservatoryReport,
    rep: u64,
    m: u64,
    n: u64,
    tolerance: f64,
) -> ModelCheck {
    out.push_str("\n## availability cross-check (measured vs analytical)\n");
    // The model's provider availability input: mean uptime fraction over
    // the fleet, measured from provider.status windows in this trace.
    let p = if report.providers.is_empty() {
        1.0
    } else {
        report.providers.iter().map(|h| h.availability).sum::<f64>() / report.providers.len() as f64
    };
    let small_frac = report.small_read_fraction;
    let modeled = hyrd_availability(p, rep, m, n, small_frac);
    let measured = report.empirical_read_availability;
    let delta = (measured - modeled).abs();
    let pass = delta <= tolerance;
    let _ =
        writeln!(out, "provider_availability_mean={:.6} small_read_fraction={:.4}", p, small_frac);
    let _ = writeln!(out, "model: hyrd_availability(p, r={rep}, m={m}, n={n}) = {:.6}", modeled);
    let _ = writeln!(out, "measured per-read availability = {:.6}", measured);
    let _ = writeln!(
        out,
        "delta={:.6} tolerance={:.6} -> {}",
        delta,
        tolerance,
        if pass { "PASS" } else { "FAIL" }
    );
    ModelCheck { measured, modeled, delta, pass }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// What the report shows and what the model cross-check assumes.
struct ReportOptions {
    top: usize,
    buckets: usize,
    slo_ms: u64,
    rep: u64,
    m: u64,
    n: u64,
    tolerance: f64,
}

fn build_report(
    text: &str,
    jobs: usize,
    opts: &ReportOptions,
) -> Result<(String, ModelCheck), ParseError> {
    let &ReportOptions { top, buckets, slo_ms, rep, m, n, tolerance } = opts;
    let records = observatory::parse_trace_jobs(text, jobs)?;
    let mut obs = observatory::Observatory::new();
    for rec in &records {
        obs.ingest(rec);
    }
    let report = obs.report();
    let mut out = report.render();
    let check = render_model_check(&mut out, &report, rep, m, n, tolerance);
    let forest = build_forest(&records);
    render_waterfalls(&mut out, &forest, top);
    render_flame(&mut out, &forest, 20);
    render_heatmap(&mut out, &records, buckets);
    render_slo_burn(&mut out, &records, slo_ms, buckets);
    Ok((out, check))
}

/// The trace is outside input: whatever is wrong with it is said on
/// stderr and answered with exit code 2, never a panic.
fn refuse(trace: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("trace_report: {trace}: {why}");
    std::process::exit(2);
}

fn main() {
    let mut trace: Option<String> = None;
    let mut jobs: usize = 1;
    let mut out_path: Option<String> = None;
    let mut check_model = false;
    let mut selfcheck = false;
    let mut opts =
        ReportOptions { top: 5, buckets: 16, slo_ms: 30_000, rep: 2, m: 3, n: 4, tolerance: 0.02 };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--trace" => trace = Some(next("--trace")),
            "--jobs" => jobs = next("--jobs").parse().expect("numeric --jobs"),
            "--out" => out_path = Some(next("--out")),
            "--check-model" => check_model = true,
            "--selfcheck" => selfcheck = true,
            "--tolerance" => {
                opts.tolerance = next("--tolerance").parse().expect("numeric --tolerance")
            }
            "--slo-ms" => opts.slo_ms = next("--slo-ms").parse().expect("numeric --slo-ms"),
            "--top" => opts.top = next("--top").parse().expect("numeric --top"),
            "--buckets" => {
                opts.buckets =
                    next("--buckets").parse::<usize>().expect("numeric --buckets").max(1);
            }
            "--rep" => opts.rep = next("--rep").parse().expect("numeric --rep"),
            "--m" => opts.m = next("--m").parse().expect("numeric --m"),
            "--n" => opts.n = next("--n").parse().expect("numeric --n"),
            other => panic!("unknown argument: {other} (see module docs for usage)"),
        }
    }
    let trace = trace.expect("--trace PATH is required");
    let text = std::fs::read_to_string(&trace).unwrap_or_else(|e| refuse(&trace, e));

    let (report, check) = build_report(&text, jobs, &opts).unwrap_or_else(|e| refuse(&trace, e));

    if selfcheck {
        // The whole pipeline re-run across several worker counts must
        // produce the same bytes.
        for alt in [1usize, 2, 8] {
            let (again, _) = build_report(&text, alt, &opts).expect("it parsed a moment ago");
            assert_eq!(report, again, "report diverged between jobs={jobs} and jobs={alt}");
        }
        eprintln!("selfcheck: report byte-identical across jobs 1/2/8 ✓");
    }

    match &out_path {
        Some(p) => {
            if let Some(dir) = std::path::Path::new(p).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(p, &report).unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
            eprintln!("report written to {p}");
        }
        None => print!("{report}"),
    }

    if check_model && !check.pass {
        panic!(
            "availability model check failed: measured={:.6} modeled={:.6} delta={:.6}",
            check.measured, check.modeled, check.delta
        );
    }
}
