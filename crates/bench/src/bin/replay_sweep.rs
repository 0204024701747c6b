//! Parallel replay throughput: seeded Internet-Archive weeks through
//! HyRD and the Cloud-of-Clouds baselines, one (scheme, week) cell per
//! worker thread.
//!
//! Each cell owns a fresh fleet and virtual clock, so the grid is
//! embarrassingly parallel; [`replay_sweep`] collects the results in
//! submission order, which makes every output — including the JSON
//! record — byte-identical for every `--jobs` value. `--check` proves
//! that in-process by re-running the grid single-threaded and comparing
//! the serialized stats.
//!
//! Usage: `replay_sweep [--jobs N] [--weeks N] [--seed S] [--check]`

use std::time::Instant;

use hyrd::driver::{effective_jobs, replay, ReplayOptions, ReplayStats, SweepCell};
use hyrd::prelude::*;
use hyrd::telemetry::json;
use hyrd_baselines::{DuraCloud, Racs};
use hyrd_bench::paper::SchemeFactory;
use hyrd_bench::{flag_usize, header, write_json, Series};
use hyrd_workloads::{FsOp, IaTrace};

/// The swept lineup: HyRD plus the two baselines the paper's Figure 6
/// spends the most ink on.
fn lineup() -> Vec<(&'static str, SchemeFactory)> {
    vec![
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
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let mut scheme = make(&fleet);
    replay(scheme.as_mut(), ops, &clock, &ReplayOptions::default())
}

/// Runs the whole scheme × week grid on `jobs` workers.
fn run_grid(weeks_ops: &[Vec<FsOp>], jobs: usize) -> Vec<ReplayStats> {
    let mut cells: Vec<SweepCell<'_, ReplayStats>> = Vec::new();
    for (_, make) in lineup() {
        for ops in weeks_ops {
            cells.push(Box::new(move || run_cell(make, ops)));
        }
    }
    hyrd::driver::replay_sweep(cells, jobs)
}

fn main() {
    let jobs = flag_usize("jobs", 0);
    let weeks = flag_usize("weeks", 4);
    let seed = flag_usize("seed", 7) as u64;
    let check = std::env::args().any(|a| a == "--check");

    let trace = IaTrace::synthesize(seed);
    let weeks_ops: Vec<Vec<FsOp>> = (0..weeks).map(|w| week_ops(&trace, w, seed)).collect();
    let ops_per_scheme: usize = weeks_ops.iter().map(Vec::len).sum();
    header(&format!(
        "replay sweep: {} scheme(s) × {weeks} archive week(s) ({ops_per_scheme} ops each), \
         jobs={} (seed {seed})",
        lineup().len(),
        effective_jobs(jobs),
    ));

    let wall = Instant::now();
    let results = run_grid(&weeks_ops, jobs);
    let wall = wall.elapsed();

    let total_ops = ops_per_scheme * lineup().len();
    let total_bytes: u64 = results.iter().map(|s| s.bytes_in + s.bytes_out).sum();
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>14} {:>8}",
        "scheme", "ops", "mean lat", "errors", "provider ops", "MB"
    );
    let mut series = Vec::new();
    for ((name, _), per_week) in lineup().iter().zip(results.chunks(weeks.max(1))) {
        let ops: usize = per_week.iter().map(|s| s.overall.count()).sum();
        let errors: u64 = per_week.iter().map(|s| s.errors).sum();
        let provider_ops: u64 = per_week.iter().map(|s| s.provider_ops).sum();
        let bytes: u64 = per_week.iter().map(|s| s.bytes_in + s.bytes_out).sum();
        let mean: f64 = per_week.iter().map(|s| s.mean_latency().as_secs_f64()).sum::<f64>()
            / per_week.len().max(1) as f64;
        println!(
            "{:<12} {:>8} {:>11.3}s {:>10} {:>14} {:>8.1}",
            name,
            ops,
            mean,
            errors,
            provider_ops,
            bytes as f64 / 1e6
        );
        series.push(Series {
            label: name.to_string(),
            values: per_week.iter().map(|s| s.mean_latency().as_secs_f64()).collect(),
        });
        assert_eq!(errors, 0, "{name} errored on the archive weeks");
    }
    println!(
        "\nwall: {:.2}s — {:.0} replayed ops/s, {:.1} simulated MB/s (jobs={})",
        wall.as_secs_f64(),
        total_ops as f64 / wall.as_secs_f64().max(1e-9),
        total_bytes as f64 / 1e6 / wall.as_secs_f64().max(1e-9),
        effective_jobs(jobs),
    );

    if check {
        let single = run_grid(&weeks_ops, 1);
        let a = json::to_string(&results);
        let b = json::to_string(&single);
        assert_eq!(a, b, "jobs={} and jobs=1 must be byte-identical", effective_jobs(jobs));
        println!("check: jobs={} matches jobs=1 byte-for-byte ✓", effective_jobs(jobs));
    }

    write_json("replay_sweep_latency", &series);
}
