//! Criterion micro-benchmarks for the replay-throughput overhaul: the
//! SHA-256 kernels behind dedup fingerprinting and read verification,
//! the single-thread replay hot loop, and the parallel sweep engine.
//!
//! Besides the Criterion groups, this binary maintains the machine-
//! readable baseline `BENCH_replay.json` at the repo root (DESIGN.md
//! §10). Set `BENCH_JSON_ONLY=1` to skip Criterion and only refresh the
//! JSON — the mode CI's bench-smoke job runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion, Throughput};

use hyrd::driver::{effective_jobs, replay, replay_sweep, ReplayOptions};
use hyrd::prelude::*;
use hyrd_bench::summary;
use hyrd_dedup::sha256;
use hyrd_workloads::{PostMark, PostMarkConfig};

const MB: usize = 1 << 20;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect()
}

fn bench_sha_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256-kernels");
    let data = payload(MB);
    g.throughput(Throughput::Bytes(MB as u64));
    for kernel in sha256::Kernel::available() {
        g.bench_function(format!("{}/1MiB", kernel.name()), |b| {
            b.iter(|| sha256::sha256_with_kernel(kernel, black_box(&data)))
        });
    }
    g.finish();
}

const BLOCK: usize = hyrd::DIGEST_BLOCK;
const REPLICA: usize = 512 * 1024;

/// The integrity index's digest of a 512 KiB replica as one `sha256`
/// per 4 KiB block — what `record` and `verify` did until PR 21, and
/// what `block_digests` still does where there is no wide kernel.
fn per_block_loop(data: &[u8], out: &mut [sha256::Digest]) {
    sha256::block_digests_with(usize::MAX, data, BLOCK, out);
}

fn bench_block_digests(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256-blocks");
    let data = payload(REPLICA);
    let mut out = vec![[0u8; 32]; REPLICA / BLOCK];
    g.throughput(Throughput::Bytes(REPLICA as u64));
    g.bench_function("blocks/512KiB/per-block", |b| {
        b.iter(|| per_block_loop(black_box(&data), &mut out))
    });
    g.bench_function("blocks/512KiB/block_digests", |b| {
        b.iter(|| sha256::block_digests(black_box(&data), BLOCK, &mut out))
    });
    g.finish();
}

fn replay_config(seed: u64) -> PostMarkConfig {
    PostMarkConfig {
        initial_files: 30,
        transactions: 120,
        size_dist: hyrd_workloads::FileSizeDist::log_uniform(1024, 512 * 1024),
        seed,
        ..PostMarkConfig::default()
    }
}

/// One sweep cell: a fresh ghost-mode fleet replaying one PostMark run.
fn run_cell(seed: u64) -> u64 {
    let (ops, _) = PostMark::new(replay_config(seed)).generate();
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let mut h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let stats = replay(&mut h, &ops, &clock, &ReplayOptions::default());
    stats.provider_ops
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("replay-sweep");
    g.sample_size(10);
    for jobs in [1usize, effective_jobs(0)] {
        g.bench_function(format!("8-cells/jobs-{jobs}"), |b| {
            b.iter(|| {
                let cells: Vec<Box<dyn FnOnce() -> u64 + Send>> =
                    (0..8u64).map(|s| Box::new(move || run_cell(s)) as _).collect();
                replay_sweep(cells, jobs)
            })
        });
    }
    g.finish();
}

/// Wall-clock numbers for the repo-root baseline: SHA-256 MiB/s (one
/// stream at 1 MiB; the 128 block digests of a 512 KiB replica as a
/// per-block loop and through `block_digests`), single-thread replay
/// ops/s, and the 8-cell sweep at jobs=1 vs jobs=8. On a single-core
/// host the sweep ratio is ~1 by construction; `host_cores` records the
/// context.
fn write_summary() {
    let t =
        if summary::json_only() { Duration::from_millis(120) } else { Duration::from_millis(400) };
    let data = payload(MB);

    let fast_kernel = sha256::Kernel::detect();
    let fast = summary::throughput_mbps(MB, t, || {
        black_box(sha256::sha256(black_box(&data)));
    });
    let mut digests = vec![[0u8; 32]; REPLICA / BLOCK];
    let per_block = summary::throughput_mbps(REPLICA, t, || {
        per_block_loop(black_box(&data[..REPLICA]), &mut digests);
    });
    let batch = summary::throughput_mbps(REPLICA, t, || {
        sha256::block_digests(black_box(&data[..REPLICA]), BLOCK, &mut digests);
    });

    // Single-thread replay: ops per wall-clock second through the full
    // dispatcher (ghost-mode providers — pure client CPU).
    let (ops, _) = PostMark::new(replay_config(1)).generate();
    let lap = || {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        black_box(replay(&mut h, &ops, &clock, &ReplayOptions::default()));
    };
    lap();
    let start = Instant::now();
    let mut laps = 0u64;
    while laps < 3 || start.elapsed() < t {
        lap();
        laps += 1;
    }
    let replay_ops_per_sec =
        ops.len() as f64 * laps as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let sweep_secs = |jobs: usize| {
        let start = Instant::now();
        let cells: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (0..8u64).map(|s| Box::new(move || run_cell(s)) as _).collect();
        black_box(replay_sweep(cells, jobs));
        start.elapsed().as_secs_f64()
    };
    let jobs1 = sweep_secs(1);
    let jobs8 = sweep_secs(8);

    summary::merge_into(
        &summary::replay_summary_path(),
        &[
            ("sha256_kernel", serde_json::json!(fast_kernel.name())),
            ("sha256_fast_1mib_mbps", summary::round1(fast)),
            ("sha256_blocks_512kib_per_block_mibps", summary::round1(per_block)),
            ("sha256_blocks_512kib_batch_mibps", summary::round1(batch)),
            ("sha256_blocks_speedup", summary::round1(batch / per_block.max(1e-9))),
            ("replay_ops_per_sec", summary::round1(replay_ops_per_sec)),
            ("sweep_8cells_jobs1_secs", serde_json::json!((jobs1 * 1000.0).round() / 1000.0)),
            ("sweep_8cells_jobs8_secs", serde_json::json!((jobs8 * 1000.0).round() / 1000.0)),
            ("sweep_speedup", summary::round1(jobs1 / jobs8.max(1e-9))),
            (
                "host_cores",
                serde_json::json!(std::thread::available_parallelism().map_or(1, |n| n.get())),
            ),
        ],
    );
}

criterion_group!(benches, bench_sha_kernels, bench_block_digests, bench_sweep);

fn main() {
    if summary::json_only() {
        write_summary();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
    write_summary();
}
