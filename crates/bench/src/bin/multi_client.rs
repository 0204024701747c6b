//! Multi-client determinism soak: N closed-loop PostMark sessions over
//! one shared HyRD client, replayed by the deterministic engine
//! (`hyrd::driver::multi_client`).
//!
//! The soak exists to exercise — and prove — the DESIGN.md §11 contract:
//! the merged [`ReplayStats`] and the JSONL telemetry trace are
//! **byte-identical for every `--clients` and `--jobs` value**, because
//! the engine serializes execution in virtual next-event order. What
//! legitimately varies with the session count is the per-session
//! breakdown (printed as a table and recorded in the JSON artifact) and
//! the wall-clock lock telemetry (`lock.contended` counters and
//! `lock.wait_ns` histograms from the dispatcher's stripes) — those are
//! printed for operators but never byte-compared.
//!
//! `--check` reruns the soak at `--clients 1 --jobs 1` and at the
//! requested client count with `--jobs 2`, asserting both the merged
//! stats JSON and the trace match the primary run byte for byte. CI runs
//! the soak at `--clients 1/4/16 --check` and `cmp`s the three `--trace`
//! files, closing the loop across processes.
//!
//! Usage: `multi_client [--clients N] [--jobs N] [--files N] [--ops N]
//! [--seed S] [--smoke] [--check] [--trace PATH] [--obs PATH]`

use hyrd::driver::{multi_client, ReplayOptions};
use hyrd::prelude::*;
use hyrd::telemetry::{json, Collector, MetricsSnapshot, SharedBuf};
use hyrd_bench::{header, write_json};
use hyrd_workloads::{FileSizeDist, PostMark, PostMarkConfig};

/// PostMark shaped for the soak: both tiers exercised (1 KB – 4 MB
/// against the 1 MB threshold) without the paper's 100 MB tail.
fn soak_config(seed: u64, files: usize, transactions: usize) -> PostMarkConfig {
    PostMarkConfig {
        initial_files: files,
        transactions,
        size_dist: FileSizeDist::log_uniform(1 << 10, 4 << 20),
        seed,
        ..PostMarkConfig::default()
    }
}

struct SoakOutput {
    report: MultiClientReport,
    trace: Vec<u8>,
    snapshot: MetricsSnapshot,
}

/// One fully fresh soak: fleet, virtual clock, HyRD client, engine.
fn run_soak(
    seed: u64,
    files: usize,
    transactions: usize,
    clients: usize,
    jobs: usize,
) -> SoakOutput {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let trace_buf = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(trace_buf.clone()).build();
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
        .expect("valid default config");
    let (ops, _) = PostMark::new(soak_config(seed, files, transactions)).generate();
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: telemetry.clone(),
        ..ReplayOptions::default()
    };
    let report =
        multi_client::run(&h, &clock, &ops, MultiClientOptions { clients, jobs, replay: opts });
    h.publish_meta_metrics();
    telemetry.flush();
    SoakOutput { report, trace: trace_buf.contents(), snapshot: telemetry.metrics() }
}

hyrd::telemetry::json_struct! {
    /// The JSON artifact: the engine report plus the workload shape.
    #[derive(Debug)]
    struct SoakRecord {
        seed: u64,
        files: usize,
        transactions: usize,
        jobs: usize,
        report: MultiClientReport,
    }
}

fn main() {
    let mut clients: usize = 4;
    let mut jobs: usize = 1;
    let mut files: usize = 60;
    let mut transactions: usize = 1_500;
    let mut seed: u64 = 7;
    let mut check = false;
    let mut trace_path: Option<String> = None;
    let mut obs_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => {
                clients = args.next().expect("--clients N").parse().expect("numeric --clients");
            }
            "--jobs" => jobs = args.next().expect("--jobs N").parse().expect("numeric --jobs"),
            "--files" => files = args.next().expect("--files N").parse().expect("numeric --files"),
            "--ops" => {
                transactions = args.next().expect("--ops N").parse().expect("numeric --ops");
            }
            "--seed" => seed = args.next().expect("--seed S").parse().expect("numeric --seed"),
            "--smoke" => {
                files = 20;
                transactions = 200;
            }
            "--check" => check = true,
            "--trace" => trace_path = Some(args.next().expect("--trace PATH")),
            "--obs" => obs_path = Some(args.next().expect("--obs PATH")),
            other => panic!("unknown argument: {other}"),
        }
    }

    header(&format!(
        "multi-client soak: {clients} client(s), {files} files + {transactions} txns, \
         seed {seed}, jobs {jobs}"
    ));
    let out = run_soak(seed, files, transactions, clients, jobs);
    let merged_json = json::to_string_pretty(&out.report.merged);

    let m = &out.report.merged;
    println!(
        "merged: {} ops, {} errors, {} verify failures, mean {:.2} ms, {} provider ops",
        m.overall.count(),
        m.errors,
        m.verify_failures,
        m.mean_latency().as_secs_f64() * 1e3,
        m.provider_ops,
    );

    println!("\nper-session (closed-loop):");
    println!("  label     ops   errors   prov-ops      MB-in     MB-out   busy-s");
    for s in &out.report.sessions {
        println!(
            "  {:5} {:7} {:8} {:10} {:10.2} {:10.2} {:8.1}",
            s.label,
            s.ops,
            s.errors,
            s.provider_ops,
            s.bytes_in as f64 / 1e6,
            s.bytes_out as f64 / 1e6,
            s.busy.as_secs_f64(),
        );
    }

    // Stripe contention telemetry — wall-clock derived, so printed only,
    // never part of any byte-compared artifact.
    let contended = out.snapshot.counters_labeled("lock.contended");
    if contended.is_empty() {
        println!("\nlock stripes: no contention observed");
    } else {
        println!("\nlock stripes (contended acquisitions, wall-clock wait):");
        let waits = out.snapshot.histograms_labeled("lock.wait_ns");
        for (stripe, hits) in &contended {
            let wait = waits.iter().find(|(l, _)| l == stripe).map(|(_, h)| h.clone());
            match wait {
                Some(h) => println!(
                    "  {stripe:12} {hits:6} hits, p50 {} ns, p99 {} ns, max {} ns",
                    h.p50, h.p99, h.max
                ),
                None => println!("  {stripe:12} {hits:6} hits"),
            }
        }
    }
    let gauge = |name: &str| out.snapshot.gauges.get(name).copied().unwrap_or(0);
    println!(
        "meta OCC: conflicts={} retries={} chain_max={}",
        gauge("meta.occ.conflicts"),
        gauge("meta.occ.retries"),
        gauge("meta.chain.max"),
    );

    if check {
        // The determinism contract, in-process: merged stats and trace
        // must not depend on the session count or the worker count.
        let ops_sum: u64 = out.report.sessions.iter().map(|s| s.ops).sum();
        assert_eq!(
            ops_sum,
            m.overall.count() as u64,
            "session op tallies must partition the merged op count"
        );
        for (c, j) in [(1usize, 1usize), (clients, 2)] {
            let alt = run_soak(seed, files, transactions, c, j);
            let alt_json = json::to_string_pretty(&alt.report.merged);
            assert_eq!(merged_json, alt_json, "merged stats diverged at --clients {c} --jobs {j}");
            assert_eq!(out.trace, alt.trace, "trace diverged at --clients {c} --jobs {j}");
        }
        println!(
            "\ncheck: merged stats + trace byte-identical across \
             --clients {clients}/1 and --jobs {jobs}/1/2 ✓"
        );
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, &out.trace).expect("write trace file");
        println!(
            "trace: {} records ({:.1} MB) -> {path}",
            out.trace.iter().filter(|b| **b == b'\n').count(),
            out.trace.len() as f64 / 1e6
        );
    }

    if let Some(path) = &obs_path {
        let text = std::str::from_utf8(&out.trace).expect("trace is utf-8");
        let obs = hyrd::observatory::from_trace(text, jobs).expect("parse soak trace");
        let obs_report = obs.report();
        std::fs::write(path, obs_report.render()).expect("write observatory report");
        println!(
            "observatory: {} provider(s), {} exposed file(s) -> {path}",
            obs_report.providers.len(),
            obs_report.files.len()
        );
    }

    write_json("multi_client", &SoakRecord { seed, files, transactions, jobs, report: out.report });
}
