//! `multi_client`: closed-loop PostMark sessions over one shared HyRD
//! client, replayed by the deterministic engine
//! ([`hyrd::driver::multi_client`]) on a quiet fleet.
//!
//! It exists to prove the DESIGN.md §11 contract: the merged
//! [`ReplayStats`](hyrd::driver::ReplayStats) and the telemetry trace are
//! byte-identical for every client and worker count, because the engine
//! serializes execution in virtual next-event order — at 64 sessions too,
//! so the metastore's OCC sharding never leaks into either. What may vary
//! with the session count is the per-session breakdown, recorded in
//! `multi_client.json` and never compared. The quiet trace is also where
//! measured read availability must match the paper's model.

use hyrd::driver::multi_client;
use hyrd::prelude::*;
use hyrd::telemetry::json;
use hyrd_workloads::{FileSizeDist, PostMark, PostMarkConfig};

use super::{analyse, Claim, Options, Outcome, Point, Rig};

const SEED: u64 = 7;

hyrd::telemetry::json_struct! {
    /// The JSON artefact: the engine report plus the workload shape.
    #[derive(Debug)]
    struct SoakRecord {
        seed: u64,
        files: usize,
        transactions: usize,
        jobs: usize,
        report: MultiClientReport,
    }
}

pub(super) fn run(opts: &Options, p: Point) -> Outcome {
    let seed = opts.seed_or(SEED);
    let (files, transactions) = if opts.smoke { (20, 200) } else { (60, 1_500) };
    let rig = Rig::traced();
    let h = Hyrd::with_telemetry(&rig.fleet, HyrdConfig::default(), rig.telemetry.clone())
        .expect("valid default config");
    // Both tiers exercised (1 KB – 4 MB against the 1 MB threshold)
    // without the paper's 100 MB tail.
    let (ops, _) = PostMark::new(PostMarkConfig {
        initial_files: files,
        transactions,
        size_dist: FileSizeDist::log_uniform(1 << 10, 4 << 20),
        seed,
        ..PostMarkConfig::default()
    })
    .generate();
    let replay = rig.replay_options();
    let opts = MultiClientOptions { clients: p.clients, jobs: p.jobs, replay };
    let report = multi_client::run(&h, &rig.clock, &ops, opts);
    h.publish_meta_metrics();
    let trace = rig.trace();

    let m = &report.merged;
    let metrics = rig.telemetry.metrics();
    let gauge = |name: &str| metrics.gauges.get(name).copied().unwrap_or(0);
    let mut summary = format!(
        "merged: {} ops, {} errors, {} verify failures, mean {:.2} ms, {} provider ops; \
         meta OCC: {} conflicts, {} retries, chain max {}\n",
        m.overall.count(),
        m.errors,
        m.verify_failures,
        m.mean_latency().as_secs_f64() * 1e3,
        m.provider_ops,
        gauge("meta.occ.conflicts"),
        gauge("meta.occ.retries"),
        gauge("meta.chain.max"),
    );
    // Stripe contention is wall-clock: printed, never compared.
    let contended = metrics.counters_labeled("lock.contended");
    if contended.is_empty() {
        summary += "lock stripes: no contention observed\n";
    }
    let waits = metrics.histograms_labeled("lock.wait_ns");
    for (stripe, hits) in contended {
        let p99 = waits.iter().find(|(l, _)| *l == stripe).map_or(0, |(_, h)| h.p99);
        summary += &format!("lock stripe {stripe}: {hits} contended, wait p99 {p99} ns\n");
    }
    let session_ops: u64 = report.sessions.iter().map(|s| s.ops).sum();
    let merged_ops = m.overall.count() as u64;
    let mut claims = vec![Claim::new(
        "session_ops_partition_merged",
        session_ops == merged_ops,
        format!("{session_ops} of {merged_ops}"),
    )];
    let analysis = analyse(&trace, &mut claims);
    let merged = json::to_string_pretty(m);
    let record = SoakRecord { seed, files, transactions, jobs: p.jobs, report };
    Outcome {
        report: merged,
        files: vec![
            ("multi_client.json".into(), json::to_string_pretty(&record).into()),
            ("multi_client_trace.jsonl".into(), trace.clone()),
            ("multi_client_trace_report.txt".into(), analysis.text.into()),
        ],
        trace,
        claims,
        summary,
    }
}
