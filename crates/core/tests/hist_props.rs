//! Property checks for the telemetry [`Histogram`] the observatory
//! leans on: merging two histograms must be indistinguishable from
//! feeding both sample streams into one, quantiles must be monotone in
//! `q`, and every quantile estimate must stay inside the exact
//! `[min, max]` envelope. The observatory merges per-chunk histograms
//! when it parses traces in parallel, so merge-equivalence is what
//! makes its reports worker-count invariant.

use hyrd_testkit::{check, Gen};

use hyrd::telemetry::Histogram;

fn feed(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Samples spread across the interesting ranges: zero, small counts,
/// nanosecond-scale latencies, and the extreme top buckets.
fn sample(g: &mut Gen) -> u64 {
    match g.range(0..4u8) {
        0 => 0,
        1 => g.range(1u64..1024),
        2 => g.range(1_000u64..10_000_000_000),
        _ => g.range((u64::MAX - 1024)..=u64::MAX),
    }
}

/// merge(a, b) == feed(a ++ b): same buckets, count, sum, min, max —
/// structural equality, not just matching summaries.
#[test]
fn merge_equals_combined_feed() {
    check(
        64,
        |g| (g.vec(0..200, sample), g.vec(0..200, sample)),
        |(xs, ys)| {
            let mut merged = feed(&xs);
            merged.merge(&feed(&ys));

            let mut combined: Vec<u64> = xs.clone();
            combined.extend_from_slice(&ys);
            assert_eq!(merged, feed(&combined));
        },
    );
}

/// Merging is commutative and merging an empty histogram is the
/// identity — the fold order over parse chunks cannot matter.
#[test]
fn merge_is_commutative_with_empty_identity() {
    check(
        64,
        |g| (g.vec(0..100, sample), g.vec(0..100, sample)),
        |(xs, ys)| {
            let mut ab = feed(&xs);
            ab.merge(&feed(&ys));
            let mut ba = feed(&ys);
            ba.merge(&feed(&xs));
            assert_eq!(&ab, &ba);

            let mut with_empty = feed(&xs);
            with_empty.merge(&Histogram::new());
            assert_eq!(with_empty, feed(&xs));
        },
    );
}

/// Quantiles are monotone non-decreasing in q and bounded by the
/// exact min/max, on any sample set.
#[test]
fn quantiles_are_monotone_and_bounded() {
    check(
        64,
        |g| (g.vec(1..300, sample), g.vec(2..16, |g| g.unit_inclusive())),
        |(xs, qs)| {
            let h = feed(&xs);
            let mut sorted_q = qs.clone();
            sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());

            let mut prev = h.quantile(0.0);
            assert!(prev >= h.min());
            for &q in &sorted_q {
                let v = h.quantile(q);
                assert!(v >= prev, "quantile({q}) = {v} < earlier {prev}");
                assert!(v >= h.min() && v <= h.max());
                prev = v;
            }
            assert_eq!(h.quantile(1.0), h.max());
        },
    );
}

/// Exact aggregates survive a merge: count adds, sum saturating-adds,
/// min/max take the extremes of either side.
#[test]
fn merge_preserves_exact_aggregates() {
    check(
        64,
        |g| (g.vec(1..100, sample), g.vec(1..100, sample)),
        |(xs, ys)| {
            let (a, b) = (feed(&xs), feed(&ys));
            let mut m = a.clone();
            m.merge(&b);
            assert_eq!(m.count(), a.count() + b.count());
            assert_eq!(m.sum(), a.sum().saturating_add(b.sum()));
            assert_eq!(m.min(), a.min().min(b.min()));
            assert_eq!(m.max(), a.max().max(b.max()));
        },
    );
}
