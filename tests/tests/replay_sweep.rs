//! Determinism contract of the parallel sweep engine: the same seeded
//! Internet-Archive month, replayed as sweep cells, must produce
//! identical [`ReplayStats`] *and* byte-identical JSONL telemetry traces
//! for every job count — worker threads may reorder execution, never
//! results.

use hyrd::driver::{replay, replay_sweep, ReplayOptions, SweepCell};
use hyrd::prelude::*;
use hyrd::telemetry::{Collector, SharedBuf};
use hyrd_baselines::Racs;
use hyrd_workloads::{FsOp, IaTrace};

/// One seeded archive month (day-prefixed so samples never collide on
/// paths), sizes clamped to 2 MiB so both placement tiers stay cheap to
/// exercise.
fn month_ops(seed: u64) -> Vec<FsOp> {
    let trace = IaTrace::synthesize(seed);
    let mut ops = Vec::new();
    for day in 0..4u64 {
        let prefix = format!("/d{day}");
        for op in trace.sample_day_ops(day as usize % 12, 4e-6, seed ^ day) {
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

/// One cell: fresh fleet + virtual clock + its own JSONL collector, so
/// nothing is shared across workers. Returns the stats and the trace.
fn run_cell(which: &str, ops: &[FsOp]) -> (ReplayStats, Vec<u8>) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let buf = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).build();
    let mut scheme: Box<dyn Scheme> = match which {
        "hyrd" => Box::new(
            Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
                .expect("valid default config"),
        ),
        _ => Box::new(Racs::new(&fleet).expect("4-provider fleet")),
    };
    let opts = ReplayOptions { telemetry: telemetry.clone(), ..ReplayOptions::default() };
    let stats = replay(scheme.as_mut(), ops, &clock, &opts);
    telemetry.flush();
    (stats, buf.contents())
}

#[test]
fn sweep_results_are_identical_for_every_job_count() {
    let ops = month_ops(0x000A_11CE);
    assert!(ops.len() > 60, "month sample has substance: {}", ops.len());

    let grid = |jobs: usize| -> Vec<(ReplayStats, Vec<u8>)> {
        let cells: Vec<SweepCell<'_, (ReplayStats, Vec<u8>)>> = vec![
            Box::new(|| run_cell("hyrd", &ops)),
            Box::new(|| run_cell("racs", &ops)),
            Box::new(|| run_cell("hyrd", &ops)),
        ];
        replay_sweep(cells, jobs)
    };

    let baseline = grid(1);
    for (stats, trace) in &baseline {
        assert_eq!(stats.errors, 0);
        assert!(!trace.is_empty(), "collector captured the replay");
    }
    // The two HyRD cells are the same computation: same stats, same
    // bytes — the trace carries virtual-clock stamps only.
    assert_eq!(baseline[0].0, baseline[2].0);
    assert_eq!(baseline[0].1, baseline[2].1);

    for jobs in [2, 8] {
        let swept = grid(jobs);
        for (i, (cell, base)) in swept.iter().zip(&baseline).enumerate() {
            assert_eq!(cell.0, base.0, "cell {i} stats diverged at jobs={jobs}");
            assert_eq!(
                cell.1, base.1,
                "cell {i} JSONL trace diverged at jobs={jobs} (byte-identity broken)"
            );
        }
    }
}

#[test]
fn sweep_preserves_submission_order_not_completion_order() {
    // Unequal workloads: later cells finish first under parallelism if
    // completion order leaked into collection order.
    let cells: Vec<SweepCell<'_, usize>> = (0..12usize)
        .map(|i| {
            Box::new(move || {
                let mut acc = 0u64;
                for k in 0..((12 - i) * 20_000) as u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
                i
            }) as SweepCell<'_, usize>
        })
        .collect();
    assert_eq!(replay_sweep(cells, 8), (0..12).collect::<Vec<_>>());
}
