//! `replay`: seeded Internet-Archive weeks through HyRD and the
//! Cloud-of-Clouds baselines, one (scheme, week) cell per worker.
//!
//! Each cell owns a fresh ghost-mode fleet and virtual clock, so the grid
//! is embarrassingly parallel; [`replay_sweep`] collects the results in
//! submission order, which makes every output — the per-week mean
//! latencies written to `replay_sweep_latency.json` included —
//! byte-identical for every worker count. Claim: no scheme errs on the
//! archive weeks.

use std::fmt::Write as _;
use std::time::Instant;

use hyrd::prelude::*;
use hyrd::telemetry::json;
use hyrd_baselines::{DuraCloud, Racs};
use hyrd_workloads::{FsOp, IaTrace};

use super::{Claim, Options, Outcome, Point, Rig};
use crate::paper::SchemeFactory;
use crate::Series;

const SEED: u64 = 7;

/// HyRD plus the two baselines the paper's Figure 6 spends the most ink
/// on.
fn lineup() -> [(&'static str, SchemeFactory); 3] {
    [
        ("HyRD", |f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid default config"))),
        ("RACS", |f| Box::new(Racs::new(f).expect("4-provider fleet"))),
        ("DuraCloud", |f| Box::new(DuraCloud::standard(f).expect("standard fleet"))),
    ]
}

/// Seven sampled archive days, day-prefixed so weeks never collide on
/// paths. Create sizes are clamped to 2 MiB: both tiers stay exercised
/// (≥ 1 MiB is still erasure-coded) without 100 MB archive outliers
/// dominating the wall clock.
fn week_ops(trace: &IaTrace, week: usize, seed: u64) -> Vec<FsOp> {
    let mut ops = Vec::new();
    for day in 0..7u64 {
        let prefix = format!("/w{week:02}d{day}");
        let salt = seed ^ ((week as u64) << 16) ^ day;
        for op in trace.sample_day_ops(week % 12, 6e-6, salt) {
            ops.push(match op {
                FsOp::Create { path, size } => {
                    FsOp::Create { path: format!("{prefix}{path}"), size: size.min(2 << 20) }
                }
                FsOp::Read { path } => FsOp::Read { path: format!("{prefix}{path}") },
                FsOp::Update { path, offset, len } => {
                    FsOp::Update { path: format!("{prefix}{path}"), offset, len }
                }
                FsOp::Delete { path } => FsOp::Delete { path: format!("{prefix}{path}") },
                FsOp::ListDir { path } => FsOp::ListDir { path: format!("{prefix}{path}") },
            });
        }
    }
    ops
}

/// One cell: a fresh ghost-mode fleet replaying one week.
fn run_cell(make: SchemeFactory, ops: &[FsOp]) -> ReplayStats {
    let rig = Rig::untraced();
    for p in rig.fleet.providers() {
        p.set_ghost_mode(true);
    }
    let mut scheme = make(&rig.fleet);
    replay(scheme.as_mut(), ops, &rig.clock, &ReplayOptions::default())
}

pub(super) fn run(opts: &Options, p: Point) -> Outcome {
    let seed = opts.seed_or(SEED);
    let weeks = if opts.smoke { 1 } else { 4 };
    let trace = IaTrace::synthesize(seed);
    let weeks_ops: Vec<Vec<FsOp>> = (0..weeks).map(|w| week_ops(&trace, w, seed)).collect();
    let mut cells = Vec::new();
    for (_, make) in lineup() {
        for ops in &weeks_ops {
            cells.push(move || run_cell(make, ops));
        }
    }
    let wall = Instant::now();
    let results = replay_sweep(cells, p.jobs);
    let wall = wall.elapsed().as_secs_f64();

    let mut summary = format!(
        "{:<12} {:>8} {:>12} {:>10} {:>14}\n",
        "scheme", "ops", "mean lat", "errors", "provider ops"
    );
    let (mut series, mut claims) = (Vec::new(), Vec::new());
    for ((name, _), per_week) in lineup().iter().zip(results.chunks(weeks)) {
        let sum = |f: fn(&ReplayStats) -> u64| per_week.iter().map(f).sum::<u64>();
        let means: Vec<f64> = per_week.iter().map(|s| s.mean_latency().as_secs_f64()).collect();
        let ops = sum(|s| s.overall.count() as u64);
        let mean = means.iter().sum::<f64>() / weeks as f64;
        let _ = writeln!(
            summary,
            "{name:<12} {ops:>8} {mean:>11.3}s {:>10} {:>14}",
            sum(|s| s.errors),
            sum(|s| s.provider_ops)
        );
        claims.push(Claim::zero(format!("no_errors[{name}]"), sum(|s| s.errors)));
        series.push(Series { label: name.to_string(), values: means });
    }
    let ops = weeks_ops.iter().map(Vec::len).sum::<usize>() * lineup().len();
    let _ = writeln!(
        summary,
        "wall: {wall:.2}s, {:.0} replayed ops/s on {} worker(s)",
        ops as f64 / wall.max(1e-9),
        p.jobs
    );
    let latency = json::to_string_pretty(&series);
    Outcome {
        report: json::to_string(&results),
        files: vec![("replay_sweep_latency.json".into(), latency.into())],
        claims,
        summary,
        ..Outcome::default()
    }
}
