//! `large_ec_outage`: erasure-coded MiB files through the paper's headline
//! scenario — normal service, one provider down, two-phase recovery, full
//! read-back and audit (Fig. 6b, §III-C).
//!
//! Bytes, not ops, dominate: `gfec` encode / decode / ranged update /
//! rebuild, SHA-256 integrity and `cloudsim` payload copies do the work;
//! `metastore` does almost none. The mirror image of `postmark_small`.
//!
//! The benchmark generates the op lists itself. File sizes are the
//! `FILES` quantiles of a log-uniform distribution, and each phase reads
//! and updates the files round-robin in a seeded order, so a seed changes
//! which file meets which jitter draw but not how many bytes move: byte
//! and allocation totals stay comparable across seeds.

use std::time::Instant;

use hyrd::driver::{replay_with_state, ReplayOptions, ReplayState};
use hyrd::scheme::Scheme;
use hyrd::HyrdConfig;
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gcsapi::ProviderId;
use hyrd_telemetry::Collector;
use hyrd_workloads::FsOp;

use super::{
    build, fleet_delta, fleet_stats, hist_read_quantiles, median_size, Lap, Meter, Recovery, Scale,
    SplitMix,
};
use crate::tap::{Recorder, Tap};

/// Frozen sizing (see README, "Sizing"), full / smoke scale.
const FILES: (usize, usize) = (48, 5);
/// Reads per phase in P1 and P2; each phase issues as many updates.
const READS_PER_PHASE: (usize, usize) = (500, 12);
/// Files created while the provider is down.
const OUTAGE_CREATES: (usize, usize) = (24, 2);
const SIZE_RANGE: (u64, u64) = (1280 * 1024, 2560 * 1024);
const UPDATE_LEN: u64 = 64 * 1024;

/// The generated inputs.
pub(crate) struct Plan {
    pub(crate) pool: Vec<FsOp>,
    pub(crate) normal: Vec<FsOp>,
    pub(crate) degraded: Vec<FsOp>,
    pub(crate) read_back: Vec<FsOp>,
}

/// The `i`-th of `n` quantiles of a log-uniform size distribution.
fn quantile_size(i: usize, n: usize) -> u64 {
    let (lo, hi) = (SIZE_RANGE.0 as f64, SIZE_RANGE.1 as f64);
    (lo * (hi / lo).powf((i as f64 + 0.5) / n as f64)).round() as u64
}

pub(crate) fn generate(seed: u64, scale: Scale) -> Plan {
    let mut rng = SplitMix::new(seed);
    let files = scale.pick(FILES.0, FILES.1);
    let reads = scale.pick(READS_PER_PHASE.0, READS_PER_PHASE.1);
    let creates = scale.pick(OUTAGE_CREATES.0, OUTAGE_CREATES.1);

    let mut sizes: Vec<u64> = (0..files).map(|i| quantile_size(i, files)).collect();
    rng.shuffle(&mut sizes);
    let path = |i: usize| format!("/ec/f{i:03}");
    let pool: Vec<FsOp> =
        sizes.iter().enumerate().map(|(i, &size)| FsOp::Create { path: path(i), size }).collect();

    // One phase: reads and updates alternate, each walking its own seeded
    // permutation of the pool; `extra` ops are spread evenly in between.
    let phase = |rng: &mut SplitMix, extra: Vec<FsOp>| {
        let mut read_order: Vec<usize> = (0..files).collect();
        let mut update_order = read_order.clone();
        rng.shuffle(&mut read_order);
        rng.shuffle(&mut update_order);
        let every = (2 * reads).checked_div(extra.len()).unwrap_or(usize::MAX);
        let mut extra = extra.into_iter();
        let mut ops = Vec::with_capacity(2 * reads + extra.len());
        for k in 0..reads {
            ops.push(FsOp::Read { path: path(read_order[k % files]) });
            let target = update_order[k % files];
            let offset = rng.below(sizes[target] - UPDATE_LEN + 1);
            ops.push(FsOp::Update { path: path(target), offset, len: UPDATE_LEN });
            if (2 * k + 2) % every == 0 {
                ops.extend(extra.next());
            }
        }
        ops.extend(extra);
        ops
    };
    let normal = phase(&mut rng, Vec::new());
    let new_files: Vec<FsOp> = (0..creates)
        .map(|i| FsOp::Create { path: format!("/ec/g{i:03}"), size: quantile_size(i, creates) })
        .collect();
    let mut read_back: Vec<FsOp> = pool
        .iter()
        .chain(&new_files)
        .map(|op| FsOp::Read { path: op.path().to_string() })
        .collect();
    let degraded = phase(&mut rng, new_files);
    rng.shuffle(&mut read_back);
    Plan { pool, normal, degraded, read_back }
}

/// The provider holding data fragment 0 of every pool file (placement is
/// one fixed provider order, so whoever holds one `.f0` holds them all).
fn data_fragment_holder(fleet: &Fleet, files: usize) -> ProviderId {
    fleet
        .providers()
        .iter()
        .find(|p| {
            let held = p.object_inventory(Fleet::CONTAINER);
            held.iter().filter(|(name, _)| name.ends_with(".f0")).count() == files
        })
        .map(|p| hyrd_gcsapi::CloudStorage::id(p.as_ref()))
        .expect("one provider holds fragment 0 of every file")
}

pub(crate) fn lap<R: Recorder>(seed: u64, scale: Scale, rec: &mut R) -> Lap {
    let setup = Meter::start();
    let gen = Instant::now();
    let plan = rec.scoped("workloads.generate", |_| generate(seed, scale));
    let gen_s = gen.elapsed().as_secs_f64();

    rec.open("setup", None);
    let clock = SimClock::new();
    let config = HyrdConfig::default();
    let threshold = config.threshold;
    let (fleet, hyrd, telemetry) = build(config, false, None, R::ENABLED, &clock);
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: Collector::disabled(),
        ..ReplayOptions::default()
    };
    let mut state = ReplayState::default();
    let timed_ops = plan.normal.len() + plan.degraded.len() + plan.read_back.len();
    let mut tap = Tap::new(hyrd, threshold, timed_ops, rec);
    let pool_stats = replay_with_state(&mut tap, &plan.pool, &clock, &opts, &mut state);
    assert_eq!(pool_stats.errors, 0, "pool build must succeed");
    drop(tap.take_samples());
    let victim = data_fragment_holder(&fleet, plan.pool.len());
    tap.rec().close();
    let setup = setup.stop();

    let before = fleet_stats(&fleet);
    let timed = Meter::start();
    tap.rec().open("driver.replay", None);
    // P1: normal service.
    let mut stats = replay_with_state(&mut tap, &plan.normal, &clock, &opts, &mut state);
    // P2: the outage. Every read of a pool file is now a degraded read.
    let down = fleet.get(victim).expect("fleet member");
    down.force_down();
    stats.absorb(&replay_with_state(&mut tap, &plan.degraded, &clock, &opts, &mut state));
    // P3: the provider returns; the consistency update replays what it
    // missed and rebuilds what degraded updates dirtied.
    down.restore();
    let dirty_before = tap.inner().pending_dirty_fragments() as u64;
    let recovering = Instant::now();
    let (report, batch) = tap.recover_provider(victim).expect("recovery of a restored provider");
    let recovery_wall_s = recovering.elapsed().as_secs_f64();
    clock.advance(batch.latency);
    let hyrd = tap.inner();
    let dirty_after = hyrd.pending_dirty_fragments() as u64;
    let rebuilds = dirty_before - dirty_after;
    let recovery = Recovery {
        wall_s: recovery_wall_s,
        virt_s: batch.latency.as_secs_f64(),
        replays: report.puts_replayed + report.removes_replayed - rebuilds,
        rebuilds,
        bytes_moved: report.bytes_restored,
        pending_after: hyrd.pending_log_len() as u64 + dirty_after,
    };
    // P4: read everything back.
    stats.absorb(&replay_with_state(&mut tap, &plan.read_back, &clock, &opts, &mut state));
    tap.rec().close();
    let timed = timed.stop();

    let (providers, cost_usd) = fleet_delta(&fleet, &before);
    let timed_samples = tap.take_samples();
    let (hist_read_p50_ns, hist_read_p99_ns) = hist_read_quantiles(&stats);
    let hyrd = tap.inner();
    let median_file = median_size(
        plan.pool
            .iter()
            .filter_map(|op| match op {
                FsOp::Create { size, .. } => Some(*size),
                _ => None,
            })
            .collect(),
    );
    Lap {
        gen_s,
        setup,
        timed,
        peak_live: 0,
        attempted: timed_ops as u64,
        failed: stats.errors + stats.verify_failures,
        providers,
        cost_usd,
        stored_bytes: fleet.total_stored_bytes(),
        logical_bytes: hyrd.logical_bytes(),
        hist_read_p50_ns,
        hist_read_p99_ns,
        faults: hyrd.fault_counters(),
        median_small_file: 0,
        median_large_file: median_file,
        update_len: UPDATE_LEN,
        ghost: false,
        steps: Vec::new(),
        recovery: Some(recovery),
        observed: None,
        registry: R::ENABLED.then(|| {
            hyrd.publish_meta_metrics();
            telemetry.metrics()
        }),
        spans: Vec::new(),
        samples: timed_samples,
    }
}
