//! Statistics over raw samples: exact nearest-rank percentiles that refuse
//! to report a tail the sample cannot support, median / inter-quartile
//! range over laps, and the relative error of a bucketed quantile against
//! the exact one.

/// A percentile is reported only when at least this many samples lie
/// beyond it — below that the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank `p`-percentile (`0 < p < 1`) of an ascending
/// `sorted` slice: the value at rank `ceil(p * n)`. `None` — printed as
/// "n/a" — when fewer than [`MIN_BEYOND`] samples lie beyond that rank
/// (for the median: on either side of it).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile wants sorted samples");
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = (n - rank).min(if p <= 0.5 { rank - 1 } else { usize::MAX });
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// A percentile in seconds; a refused one is NaN, which prints as "n/a"
/// and is written to JSON as 0.
pub fn secs(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |ns| ns as f64 / 1e9)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median over laps (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted_copy(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile over laps, as Python's
/// `statistics.quantiles(values, n=4)` returns them (the exclusive method:
/// position `q * (n + 1)`, linearly interpolated, clamped to the ends) —
/// the same rule the acceptance check applies to run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted_copy(values);
    match v.len() {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let quartile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (quartile(0.25), quartile(0.75))
}

/// Inter-quartile range over laps.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// `|approx − exact| ÷ exact`: how far a bucketed quantile sits from the
/// exact nearest-rank one. 0 when the exact value is 0 or unavailable.
pub fn rel_err(approx_ns: u64, exact_ns: Option<u64>) -> f64 {
    match exact_ns {
        Some(exact) if exact > 0 => (approx_ns as f64 - exact as f64).abs() / exact as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_cases() {
        let v: Vec<u64> = (1..=100).collect();
        // rank = ceil(0.5 * 100) = 50 → 50; 50 samples beyond, 49 before.
        assert_eq!(percentile(&v, 0.5), Some(50));
        // rank 90 → 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 0.90), Some(90));
        // rank 91 → only 9 beyond: refused.
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v, 0.99), None);

        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.999), None, "1 sample beyond is not a p999");
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.999), Some(9990));

        // A median needs support on both sides.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&v, 0.5), Some(11));

        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1, 2, 3], 1.0), None);
        assert!(secs(None).is_nan());
        assert_eq!(secs(Some(1_500_000_000)), 1.5);
    }

    #[test]
    fn duplicates_resolve_to_the_rank_value() {
        let mut v = vec![5u64; 90];
        v.extend([7u64; 30]);
        // n = 120, p90 → rank 108 → 7 (12 beyond).
        assert_eq!(percentile(&v, 0.9), Some(7));
        // p75 → rank 90 → last 5.
        assert_eq!(percentile(&v, 0.75), Some(5));
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 3.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&ten) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr(&[1.0, 2.0, 4.0]) - 3.0).abs() < 1e-12);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(iqr(&[7.0]), 0.0);
        assert_eq!(quartiles(&[]), (0.0, 0.0));
        assert_eq!(mean(&[1, 2, 6]), 3.0);
    }

    #[test]
    fn bucket_quantile_error_is_relative_to_the_exact_value() {
        // A log2 bucket edge of 2^32-1 ns against an exact 3.1 s.
        let err = rel_err(4_294_967_295, Some(3_100_000_000));
        assert!((err - 0.38547).abs() < 1e-4, "{err}");
        assert_eq!(rel_err(10, Some(10)), 0.0);
        assert_eq!(rel_err(10, None), 0.0);
        assert_eq!(rel_err(10, Some(0)), 0.0);
    }
}
