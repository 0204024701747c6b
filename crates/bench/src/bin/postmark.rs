//! PostMark latency bench over HyRD, with an optional concurrent
//! multi-client mode.
//!
//! The single-client default reproduces the paper's Figure 6 methodology
//! on HyRD alone (pool build, then the measured transaction phase) at a
//! configurable scale. `--clients N` replays the same stream as N
//! closed-loop sessions sharing the one HyRD client through the
//! deterministic multi-client engine: the merged per-class latency
//! breakdown is byte-identical to the single-client run (DESIGN.md §11),
//! and the bin prints the per-session split on top.
//!
//! `--check` reruns the stream at `--clients 1 --jobs 1` and at the
//! requested client count with `--jobs 2`, asserting the merged stats
//! JSON matches the primary run byte for byte — the metastore's OCC
//! sharding must never leak into the deterministic artifact.
//!
//! Usage: `postmark [--files N] [--ops N] [--seed S] [--clients N]
//! [--jobs N] [--smoke] [--check]`

use hyrd::driver::{multi_client, ReplayOptions};
use hyrd::prelude::*;
use hyrd::telemetry::json;
use hyrd_bench::{header, write_json};
use hyrd_workloads::{PostMark, PostMarkConfig, PostMarkReport};

hyrd::telemetry::json_struct! {
    #[derive(Debug)]
    struct PostMarkRecord {
        seed: u64,
        clients: usize,
        workload: PostMarkReport,
        report: MultiClientReport,
    }
}

/// One fresh replay of `ops`: new fleet, clock and HyRD client.
fn run_replay(ops: &[hyrd_workloads::FsOp], clients: usize, jobs: usize) -> MultiClientReport {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config");
    multi_client::run(
        &h,
        &clock,
        ops,
        MultiClientOptions { clients, jobs, replay: ReplayOptions::default() },
    )
}

fn main() {
    let mut files: usize = 100;
    let mut transactions: usize = 400;
    let mut seed: u64 = 0xB0A7;
    let mut clients: usize = 1;
    let mut jobs: usize = 1;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--files" => files = args.next().expect("--files N").parse().expect("numeric --files"),
            "--ops" => {
                transactions = args.next().expect("--ops N").parse().expect("numeric --ops");
            }
            "--seed" => seed = args.next().expect("--seed S").parse().expect("numeric --seed"),
            "--clients" => {
                clients = args.next().expect("--clients N").parse().expect("numeric --clients");
            }
            "--jobs" => jobs = args.next().expect("--jobs N").parse().expect("numeric --jobs"),
            "--smoke" => {
                files = 20;
                transactions = 80;
            }
            "--check" => check = true,
            other => panic!("unknown argument: {other}"),
        }
    }

    header(&format!(
        "postmark: {files} files + {transactions} txns, seed {seed}, {clients} client(s)"
    ));
    let config = PostMarkConfig { initial_files: files, transactions, seed, ..Default::default() };
    let (ops, workload) = PostMark::new(config).generate();
    println!(
        "workload: {} creates, {} reads, {} updates, {} deletes, {} lists, {:.1} MB written",
        workload.creates,
        workload.reads,
        workload.updates,
        workload.deletes,
        workload.lists,
        workload.bytes_written as f64 / 1e6
    );

    let report = run_replay(&ops, clients, jobs);

    print!("{}", report.merged.summary());
    if report.clients > 1 {
        println!("per-session (closed-loop):");
        for s in &report.sessions {
            println!(
                "  {:5} n={:<6} errors={:<4} mean={:.3}s busy={:.1}s",
                s.label,
                s.ops,
                s.errors,
                s.stats.mean().as_secs_f64(),
                s.busy.as_secs_f64(),
            );
        }
    }

    if check {
        let merged_json = json::to_string_pretty(&report.merged);
        for (c, j) in [(1usize, 1usize), (clients, 2)] {
            let alt = run_replay(&ops, c, j);
            let alt_json = json::to_string_pretty(&alt.merged);
            assert_eq!(merged_json, alt_json, "merged stats diverged at --clients {c} --jobs {j}");
        }
        println!("check: merged stats byte-identical across --clients {clients}/1, --jobs 1/2 ✓");
    }

    write_json("postmark", &PostMarkRecord { seed, clients, workload, report });
}
