//! Criterion micro-benchmarks for the erasure-coding substrate: the hot
//! loops behind every large-file operation in the system.
//!
//! Besides the Criterion groups, this binary maintains the machine-
//! readable baseline `BENCH_gfec.json` at the repo root (DESIGN.md §8).
//! Set `BENCH_JSON_ONLY=1` to skip Criterion and only refresh the JSON —
//! the mode CI's bench-smoke job runs.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

use hyrd_bench::summary;
use hyrd_gfec::gf256::{mul_slice_acc, reference, xor_slice, Gf256};
use hyrd_gfec::parallel::encode_parallel;
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::update::{apply_ranged_update_multi, parity_window, plan_update};
use hyrd_gfec::{decode_object, ErasureCode, Raid5, Raid6, ReedSolomon};

const MB: usize = 1 << 20;

fn shards(m: usize, len: usize) -> Vec<Vec<u8>> {
    (0..m).map(|i| (0..len).map(|b| ((b * 31 + i * 7) % 251) as u8).collect()).collect()
}

fn bench_gf_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256-kernels");
    let src = vec![0xA7u8; MB];
    let mut dst = vec![0x5Cu8; MB];
    g.throughput(Throughput::Bytes(MB as u64));
    g.bench_function("xor_slice/1MiB", |b| b.iter(|| xor_slice(&mut dst, &src)));
    g.bench_function("mul_slice_acc/1MiB", |b| {
        b.iter(|| mul_slice_acc(&mut dst, &src, Gf256(0x53)))
    });
    // The seed's naive log/exp loop, kept as the correctness oracle —
    // benched here so the nibble-kernel speedup stays visible.
    g.bench_function("mul_slice_acc-naive/1MiB", |b| {
        b.iter(|| reference::mul_slice_acc(&mut dst, &src, Gf256(0x53)))
    });
    g.finish();
}

/// Borrowed views of every fragment except the `lost` ones.
fn without<'a>(fragments: &'a [Vec<u8>], lost: &[usize]) -> Vec<(usize, &'a [u8])> {
    fragments
        .iter()
        .enumerate()
        .filter(|(i, _)| !lost.contains(i))
        .map(|(i, f)| (i, f.as_slice()))
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    for len in [64 * 1024usize, 1 << 20, 4 << 20] {
        let data = shards(3, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        g.throughput(Throughput::Bytes(3 * len as u64));

        let raid5 = Raid5::new(3).expect("valid shape");
        g.bench_with_input(BenchmarkId::new("raid5(3+1)", len), &refs, |b, refs| {
            b.iter(|| raid5.encode(refs).expect("valid shards"))
        });
        let rs = ReedSolomon::new(3, 5).expect("valid shape");
        g.bench_with_input(BenchmarkId::new("rs(3,5)", len), &refs, |b, refs| {
            b.iter(|| rs.encode(refs).expect("valid shards"))
        });
        let mut parity = vec![vec![0u8; len]; 2];
        let mut rows: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        g.bench_with_input(BenchmarkId::new("rs(3,5)-into", len), &refs, |b, refs| {
            b.iter(|| rs.encode_into(refs, &mut rows).expect("valid shards"))
        });
        let raid6 = Raid6::new(3).expect("valid shape");
        g.bench_with_input(BenchmarkId::new("raid6(3+2)", len), &refs, |b, refs| {
            b.iter(|| raid6.encode(refs).expect("valid shards"))
        });
        g.bench_with_input(BenchmarkId::new("raid5-rayon", len), &refs, |b, refs| {
            b.iter(|| encode_parallel(&raid5, refs).expect("valid shards"))
        });
    }
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruct");
    let len = 1usize << 20;
    let planner = StripePlanner::new(3, 4).expect("valid shape");
    let code = Raid5::new(3).expect("valid shape");
    let object: Vec<u8> = (0..3 * len).map(|i| (i % 251) as u8).collect();
    let (layout, frags) = planner.split_encode(&code, &object).expect("encodes");
    g.throughput(Throughput::Bytes(object.len() as u64));

    // Losing a data fragment forces the XOR rebuild.
    let degraded = without(&frags, &[1]);
    g.bench_function("raid5-degraded/3MiB", |b| {
        b.iter(|| decode_object(&code, &layout, &degraded).expect("decodable"))
    });
    // All data fragments present: the systematic copy-only path.
    let healthy = without(&frags, &[3]);
    g.bench_function("raid5-systematic/3MiB", |b| {
        b.iter(|| decode_object(&code, &layout, &healthy).expect("decodable"))
    });

    let rs = ReedSolomon::new(3, 5).expect("valid shape");
    let (layout5, frags5) =
        StripePlanner::new(3, 5).expect("valid shape").split_encode(&rs, &object).expect("encodes");
    let two_lost = without(&frags5, &[0, 2]);
    g.bench_function("rs(3,5)-two-erasures/3MiB", |b| {
        b.iter(|| decode_object(&rs, &layout5, &two_lost).expect("decodable"))
    });
    g.finish();
}

fn bench_update_planning(c: &mut Criterion) {
    let planner = StripePlanner::new(3, 4).expect("valid shape");
    let layout = planner.plan(100 << 20);
    c.bench_function("plan_update/4KB-in-100MB", |b| {
        b.iter(|| plan_update(&layout, 12_345_678, 4096).expect("in bounds"))
    });
}

/// Refreshes the repo-root `BENCH_gfec.json` with wall-clock MB/s for
/// each hot path, fast kernels and the naive log/exp reference side by
/// side. `BENCH_JSON_ONLY` shortens the per-measurement time box so the
/// CI smoke run finishes in seconds.
fn write_summary() {
    let t =
        if summary::json_only() { Duration::from_millis(120) } else { Duration::from_millis(400) };

    // Raw slice kernels, 1 MiB.
    let src = vec![0xA7u8; MB];
    let mut dst = vec![0x5Cu8; MB];
    let mul_fast = summary::throughput_mbps(MB, t, || mul_slice_acc(&mut dst, &src, Gf256(0x53)));
    let mul_naive =
        summary::throughput_mbps(MB, t, || reference::mul_slice_acc(&mut dst, &src, Gf256(0x53)));
    let xor = summary::throughput_mbps(MB, t, || xor_slice(&mut dst, &src));

    // Encode, 3 × 1 MiB shards.
    let data = shards(3, MB);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let rs = ReedSolomon::new(3, 5).expect("valid shape");
    let rs_fast = summary::throughput_mbps(3 * MB, t, || {
        black_box(rs.encode(&refs).expect("valid shards"));
    });
    // Reused caller buffers: no per-call allocation, no page faults —
    // the number the dispatcher's hot paths see.
    let mut parity_bufs = vec![vec![0u8; MB]; 2];
    let mut rows: Vec<&mut [u8]> = parity_bufs.iter_mut().map(Vec::as_mut_slice).collect();
    let rs_into = summary::throughput_mbps(3 * MB, t, || {
        rs.encode_into(&refs, &mut rows).expect("valid shards");
        black_box(&rows);
    });
    // The seed algorithm: one naive log/exp sweep per parity row, with
    // per-call allocation (as the seed's encode had) and warm-buffer.
    let coeffs = rs.parity_coefficients();
    let rs_naive = summary::throughput_mbps(3 * MB, t, || {
        let mut parity = vec![vec![0u8; MB]; coeffs.len()];
        for (row, cs) in parity.iter_mut().zip(&coeffs) {
            for (shard, &c) in refs.iter().zip(cs.iter()) {
                reference::mul_slice_acc(row, shard, c);
            }
        }
        black_box(parity);
    });
    let mut naive_bufs = vec![vec![0u8; MB]; coeffs.len()];
    let rs_naive_warm = summary::throughput_mbps(3 * MB, t, || {
        for (row, cs) in naive_bufs.iter_mut().zip(&coeffs) {
            row.fill(0);
            for (shard, &c) in refs.iter().zip(cs.iter()) {
                reference::mul_slice_acc(row, shard, c);
            }
        }
        black_box(&naive_bufs);
    });
    let raid5 = Raid5::new(3).expect("valid shape");
    let raid5_enc = summary::throughput_mbps(3 * MB, t, || {
        black_box(raid5.encode(&refs).expect("valid shards"));
    });
    let raid6 = Raid6::new(3).expect("valid shape");
    let raid6_enc = summary::throughput_mbps(3 * MB, t, || {
        black_box(raid6.encode(&refs).expect("valid shards"));
    });

    // Decode, 3 MiB object.
    let object: Vec<u8> = (0..3 * MB).map(|i| (i % 251) as u8).collect();
    let planner5 = StripePlanner::new(3, 5).expect("valid shape");
    let (layout5, frags5) = planner5.split_encode(&rs, &object).expect("encodes");
    let two_lost = without(&frags5, &[0, 3]);
    let rs_dec = summary::throughput_mbps(3 * MB, t, || {
        black_box(decode_object(&rs, &layout5, &two_lost).expect("decodable"));
    });
    let planner4 = StripePlanner::new(3, 4).expect("valid shape");
    let (layout4, frags4) = planner4.split_encode(&raid5, &object).expect("encodes");
    let degraded = without(&frags4, &[1]);
    let raid5_dec = summary::throughput_mbps(3 * MB, t, || {
        black_box(decode_object(&raid5, &layout4, &degraded).expect("decodable"));
    });

    // Ranged partial update: 4 KiB rewritten inside the 3 MiB object.
    let plan = plan_update(&layout5, 1_234_567, 4096).expect("in bounds");
    let (lo, hi) = parity_window(&plan.touched);
    let old_segments: Vec<Vec<u8>> =
        plan.touched.iter().map(|&(sh, st, l)| frags5[sh][st..st + l].to_vec()).collect();
    let old_parities: Vec<Vec<u8>> = (3..5).map(|p| frags5[p][lo..hi].to_vec()).collect();
    let new_bytes: Vec<u8> = (0..4096).map(|i| (i * 89) as u8).collect();
    let upd = summary::throughput_mbps(4096, t, || {
        black_box(
            apply_ranged_update_multi(
                &plan.touched,
                &old_segments,
                &old_parities,
                &new_bytes,
                &coeffs,
            )
            .expect("consistent update"),
        );
    });

    summary::merge(&[
        ("shard_bytes", serde_json::json!(MB)),
        ("mul_slice_acc_mbps", summary::round1(mul_fast)),
        ("mul_slice_acc_naive_mbps", summary::round1(mul_naive)),
        ("xor_slice_mbps", summary::round1(xor)),
        ("rs_3_5_encode_mbps", summary::round1(rs_fast)),
        ("rs_3_5_encode_into_mbps", summary::round1(rs_into)),
        ("rs_3_5_encode_naive_mbps", summary::round1(rs_naive)),
        ("rs_3_5_encode_naive_warm_mbps", summary::round1(rs_naive_warm)),
        // Warm-vs-warm is the kernel comparison; the alloc-inclusive
        // pair above shows how much page faults cost either path.
        (
            "rs_3_5_encode_speedup",
            serde_json::json!(((rs_into / rs_naive_warm) * 100.0).round() / 100.0),
        ),
        ("raid5_encode_mbps", summary::round1(raid5_enc)),
        ("raid6_encode_mbps", summary::round1(raid6_enc)),
        ("rs_3_5_decode_two_erasures_mbps", summary::round1(rs_dec)),
        ("raid5_degraded_decode_mbps", summary::round1(raid5_dec)),
        ("ranged_update_4k_mbps", summary::round1(upd)),
    ]);
}

criterion_group!(benches, bench_gf_kernels, bench_encode, bench_reconstruct, bench_update_planning);

fn main() {
    if summary::json_only() {
        write_summary();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
    write_summary();
}
