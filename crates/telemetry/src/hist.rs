//! Bounded log₂-bucketed histogram.
//!
//! Fixed memory (65 buckets of `u64`), exact `count`/`sum`/`min`/`max`,
//! mergeable, and quantiles computed by a nearest-rank walk over the
//! buckets. Bucket 0 holds the value 0; bucket `i ≥ 1` holds the half-open
//! range `[2^(i-1), 2^i)`, so a quantile estimate is never more than one
//! bucket width above the exact nearest-rank sample (and never below it):
//! the exact value `v` lands in some bucket `[2^(i-1), 2^i)`, the estimate
//! is that bucket's inclusive upper edge clamped to the observed `[min,
//! max]`, and `(2^i - 1) - v < 2^(i-1)` = the bucket width.

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
pub const HIST_BUCKETS: usize = 65;

crate::json_struct! {
    /// A fixed-size log₂ histogram over `u64` samples (typically nanoseconds or
    /// bytes). `O(HIST_BUCKETS)` memory regardless of sample count.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Histogram {
        buckets: Vec<u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: vec![0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper edge of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Sum saturates rather than wrapping.
    pub fn record(&mut self, v: u64) {
        // Guard against deserialized histograms with a short bucket vector.
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        for (i, n) in other.buckets.iter().enumerate().take(HIST_BUCKETS) {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean as f64 (exact sum / exact count); 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate from the buckets. `q` is clamped to
    /// `[0, 1]`. Returns the upper edge of the bucket containing the
    /// nearest-rank sample, clamped to the exact `[min, max]` — i.e. at
    /// most one bucket width above the exact answer, never below it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Same nearest-rank convention as the original LatencyStats:
        // rank = round(q * (n - 1)), 0-based.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn exact_aggregates() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 9, 1000, 65536] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 7 + 9 + 1000 + 65536);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 65536);
        assert!((h.mean() - (66552.0 / 5.0)).abs() < 1e-9);
    }

    /// Exact nearest-rank on the raw samples, for comparison.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn quantile_within_one_bucket_width() {
        // Deterministic pseudo-random samples via splitmix64.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut samples: Vec<u64> = (0..500)
            .map(|_| {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                (z ^ (z >> 31)) % 3_000_000
            })
            .collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q);
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            // Within one bucket width of the bucket containing the exact value.
            let width = if exact == 0 { 1 } else { 1u64 << bucket_index(exact).saturating_sub(1) };
            assert!(
                approx - exact <= width,
                "q={q}: approx {approx} over exact {exact} by more than bucket width {width}"
            );
        }
        assert_eq!(h.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn merge_matches_combined() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 3, 70000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }
}
