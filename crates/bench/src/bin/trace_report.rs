//! Offline trace analyzer: [`hyrd_bench::trace_report`] over a telemetry
//! JSONL trace file — the observatory report, the measured-vs-modelled
//! availability cross-check, waterfalls, flame, heatmap and SLO burn.
//!
//! Usage: `trace_report --trace PATH [--jobs N] [--out PATH]
//! [--check-model] [--tolerance F] [--slo-ms N] [--top N] [--buckets N]
//! [--rep R] [--m M] [--n N]`, or `trace_report --expand PATH`.
//!
//! `--expand` prints the trace one record per line in the plain layout
//! (`RecordRef::write_json`: every key written, no two records on one
//! line) and nothing else: two traces of different schemas that hold the
//! same records expand alike, less their `meta` line
//! (`scripts/trace_cmp.sh`).
//!
//! The report is byte-identical for every `--jobs`. `--check-model`
//! exits 1 when measured and modelled availability differ by more than
//! `--tolerance`. A trace that cannot be read or does not parse is
//! refused with the reason (for a parse error, the line it is on) on
//! stderr and exit code 2.

use std::io::Write;

use hyrd_bench::trace_report::{build_report, ReportOptions};
use hyrd_telemetry::for_each_record;

/// The trace is outside input: whatever is wrong with it is said on
/// stderr and answered with exit code 2, never a panic.
fn refuse(trace: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("trace_report: {trace}: {why}");
    std::process::exit(2);
}

/// `--expand PATH`: the trace's records, one per line, on stdout.
fn expand(trace: &str) {
    let text = std::fs::read_to_string(trace).unwrap_or_else(|e| refuse(trace, e));
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut line = Vec::new();
    let mut written = Ok(());
    let parsed = for_each_record(&text, |rec| {
        line.clear();
        rec.write_json(&mut line);
        line.push(b'\n');
        if written.is_ok() {
            written = out.write_all(&line);
        }
    });
    parsed.unwrap_or_else(|e| refuse(trace, e));
    written.and_then(|()| out.flush()).unwrap_or_else(|e| refuse(trace, e));
}

fn main() {
    if let [flag, path] = &std::env::args().skip(1).collect::<Vec<_>>()[..] {
        if flag == "--expand" {
            return expand(path);
        }
    }
    let mut trace: Option<String> = None;
    let mut jobs: usize = 1;
    let mut out_path: Option<String> = None;
    let mut check_model = false;
    let mut opts = ReportOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--trace" => trace = Some(next("--trace")),
            "--jobs" => jobs = next("--jobs").parse().expect("numeric --jobs"),
            "--out" => out_path = Some(next("--out")),
            "--check-model" => check_model = true,
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
    let report = build_report(&text, jobs, &opts).unwrap_or_else(|e| refuse(&trace, e));

    match &out_path {
        Some(p) => {
            if let Some(dir) = std::path::Path::new(p).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(p, &report.text).unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
            eprintln!("report written to {p}");
        }
        None => print!("{}", report.text),
    }

    let check = report.check;
    if check_model && !check.pass {
        eprintln!(
            "trace_report: availability model check failed: measured={:.6} modeled={:.6} \
             delta={:.6}",
            check.measured, check.modeled, check.delta
        );
        std::process::exit(1);
    }
}
