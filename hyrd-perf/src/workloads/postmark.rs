//! `postmark_small` and `postmark_observed`: one PostMark op stream,
//! replayed closed-loop by one session — plain, or with the full
//! observatory on and the offline half of the operator's loop timed too.
//!
//! Every file is in the replicated tier (≤ 64 KiB against a 1 MiB
//! threshold) and every write ends in a metadata flush, so per-op fixed
//! cost is the whole story: `metastore`, dispatcher glue, `driver` and
//! `cloudsim` bookkeeping, with `gfec` idle. The live set (~40 MiB at
//! full scale) fits the 256 MiB `SmallFileCache`.

use std::hint::black_box;
use std::time::Instant;

use hyrd::driver::{replay_with_state, ReplayOptions, ReplayState};
use hyrd::observatory::{self, SharedObservatory};
use hyrd::HyrdConfig;
use hyrd_cloudsim::SimClock;
use hyrd_telemetry::{Collector, SharedBuf};
use hyrd_workloads::{FileSizeDist, FsOp, PostMark, PostMarkConfig};

use super::{
    build, fleet_delta, fleet_stats, hist_read_quantiles, median_size, Lap, Meter, Observed, Scale,
};
use crate::alloc::Snapshot;
use crate::tap::{Recorder, Tap};

/// Frozen sizing (see README, "Sizing"): files in the initial pool and
/// PostMark transactions, full / smoke scale.
const INITIAL_FILES: (usize, usize) = (2_000, 60);
const TRANSACTIONS: (usize, usize) = (8_000, 300);
const SUBDIRECTORIES: usize = 50;
const SIZE_RANGE: (u64, u64) = (512, 64 * 1024);

fn config(seed: u64, scale: Scale) -> PostMarkConfig {
    PostMarkConfig {
        initial_files: scale.pick(INITIAL_FILES.0, INITIAL_FILES.1),
        transactions: scale.pick(TRANSACTIONS.0, TRANSACTIONS.1),
        subdirectories: SUBDIRECTORIES,
        size_dist: FileSizeDist::log_uniform(SIZE_RANGE.0, SIZE_RANGE.1),
        list_every: 4,
        seed,
        ..PostMarkConfig::default()
    }
}

/// The op stream: `(pool creates, transactions, closing deletes)`. The
/// closing sweep is the stream's trailing run of deletes (it may take the
/// last transaction's delete with it; both sides are timed).
pub(crate) fn generate(seed: u64, scale: Scale) -> (Vec<FsOp>, Vec<FsOp>, Vec<FsOp>) {
    let config = config(seed, scale);
    let pool_len = config.initial_files;
    let (mut ops, _) = PostMark::new(config).generate();
    let sweep = ops.iter().rev().take_while(|op| matches!(op, FsOp::Delete { .. })).count();
    let deletes = ops.split_off(ops.len() - sweep);
    let txns = ops.split_off(pool_len);
    (ops, txns, deletes)
}

pub(crate) fn lap<R: Recorder>(seed: u64, scale: Scale, observed: bool, rec: &mut R) -> Lap {
    let setup = Meter::start();
    let gen = Instant::now();
    let (pool, txns, deletes) = rec.scoped("workloads.generate", |_| generate(seed, scale));
    let gen_s = gen.elapsed().as_secs_f64();

    rec.open("setup", None);
    let clock = SimClock::new();
    let trace = SharedBuf::new();
    let watcher = SharedObservatory::new();
    let collector = observed
        .then(|| Collector::builder(clock.clone()).jsonl(trace.clone()).tap(watcher.tap()).build());
    let config = HyrdConfig::default();
    let threshold = config.threshold;
    let (fleet, hyrd, telemetry) = build(config, false, collector, R::ENABLED, &clock);
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: if observed { telemetry.clone() } else { Collector::disabled() },
        ..ReplayOptions::default()
    };
    let mut state = ReplayState::default();
    let mut tap = Tap::new(hyrd, threshold, txns.len() + deletes.len(), rec);
    let pool_stats = replay_with_state(&mut tap, &pool, &clock, &opts, &mut state);
    assert_eq!(pool_stats.errors, 0, "pool build must succeed");
    drop(tap.take_samples());
    let trace_mark = trace.contents().len();
    tap.rec().close();
    let setup = setup.stop();

    let before = fleet_stats(&fleet);
    let allocs_before = Snapshot::now();
    let timed = Meter::start();
    tap.rec().open("driver.replay", None);
    let mut stats = replay_with_state(&mut tap, &txns, &clock, &opts, &mut state);
    // The space ratio is taken here, with the live set at its final size:
    // after the closing sweep there are no user bytes left to divide by.
    let stored_bytes = fleet.total_stored_bytes();
    let logical_bytes = tap.inner().logical_bytes();
    stats.absorb(&replay_with_state(&mut tap, &deletes, &clock, &opts, &mut state));
    tap.rec().close();
    let replay_wall_s = timed.stop().wall_s;
    let (replay_allocs, _) = Snapshot::now().since(&allocs_before);

    // The offline half of the operator's loop, inside the timed region:
    // parse the trace back, fold it, render the report.
    let observed = observed.then(|| {
        let offline = Instant::now();
        telemetry.flush();
        let whole = trace.text();
        let text = &whole[trace_mark..];
        let report = tap.rec().scoped("observatory.offline", |_| {
            let folded = observatory::from_trace(text, 1).expect("the trace it just wrote parses");
            folded.report().render()
        });
        black_box((report, watcher.report()));
        Observed {
            replay_wall_s,
            replay_allocs,
            offline_wall_s: offline.elapsed().as_secs_f64(),
            trace_bytes: text.len() as u64,
            records: text.lines().count() as u64,
            trace: if R::ENABLED { text.to_string() } else { String::new() },
        }
    });
    let timed = timed.stop();

    let (providers, cost_usd) = fleet_delta(&fleet, &before);
    let timed_samples = tap.take_samples();
    let (hist_read_p50_ns, hist_read_p99_ns) = hist_read_quantiles(&stats);
    let hyrd = tap.inner();
    let sizes = txns.iter().chain(&pool).filter_map(|op| match op {
        FsOp::Create { size, .. } => Some(*size),
        _ => None,
    });
    Lap {
        gen_s,
        setup,
        timed,
        peak_live: 0,
        attempted: (txns.len() + deletes.len()) as u64,
        failed: stats.errors + stats.verify_failures,
        providers,
        cost_usd,
        stored_bytes,
        logical_bytes,
        hist_read_p50_ns,
        hist_read_p99_ns,
        faults: hyrd.fault_counters(),
        median_small_file: median_size(sizes.collect()),
        median_large_file: 0,
        update_len: PostMarkConfig::default().update_len,
        ghost: false,
        steps: Vec::new(),
        recovery: None,
        observed,
        registry: R::ENABLED.then(|| {
            hyrd.publish_meta_metrics();
            telemetry.metrics()
        }),
        spans: Vec::new(),
        samples: timed_samples,
    }
}
