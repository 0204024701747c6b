//! Latency statistics the figures report: mean (the paper's headline
//! metric is "average response time"), percentiles, and per-class
//! breakdowns.
//!
//! Samples land in a bounded log₂-bucketed [`Histogram`] (the same type
//! the telemetry registry uses), so memory is O(buckets) no matter how
//! long a replay runs. Mean and standard deviation stay *exact* — they
//! are computed from the running sum and sum-of-squares, not from the
//! buckets. Quantiles are approximate: nearest-rank resolved to the
//! upper edge of the rank's bucket (clamped to the observed min/max),
//! which over-reports by at most one bucket width — for a value `v`,
//! the result is in `[v, 2v]`.

use std::time::Duration;

use hyrd_telemetry::Histogram;

hyrd_telemetry::json_struct! {
    /// Online latency statistics: exact mean/std-dev, bucketed quantiles.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct LatencyStats {
        hist: Histogram,
        sum_secs: f64,
        sum_sq_secs: f64,
    }
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let s = d.as_secs_f64();
        self.hist.record(d.as_nanos() as u64);
        self.sum_secs += s;
        self.sum_sq_secs += s * s;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// Mean latency (zero if empty). Exact: computed from the running
    /// sum, not the buckets.
    pub fn mean(&self) -> Duration {
        if self.hist.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(self.sum_secs / self.hist.count() as f64)
    }

    /// The `q`-quantile (0.0–1.0): nearest-rank resolved to the rank's
    /// bucket upper edge, clamped to the observed min/max. The result
    /// is at least the exact nearest-rank value and overshoots it by
    /// less than one bucket width.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.hist.quantile(q))
    }

    /// Sample standard deviation (the "deviation values" of §IV-C).
    /// Exact, via the running sum of squares.
    pub fn std_dev(&self) -> Duration {
        let n = self.hist.count();
        if n < 2 {
            return Duration::ZERO;
        }
        let n = n as f64;
        let var = ((self.sum_sq_secs - self.sum_secs * self.sum_secs / n) / (n - 1.0)).max(0.0);
        Duration::from_secs_f64(var.sqrt())
    }

    /// Maximum sample (exact; the histogram tracks it alongside the
    /// buckets).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.hist.max())
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
        self.sum_secs += other.sum_secs;
        self.sum_sq_secs += other.sum_sq_secs;
    }
}

/// The operation classes the experiments break latency down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Creates at or below the threshold.
    SmallWrite,
    /// Creates above the threshold.
    LargeWrite,
    /// Reads at or below the threshold.
    SmallRead,
    /// Reads above the threshold.
    LargeRead,
    /// Byte-range updates.
    Update,
    /// Deletes.
    Delete,
    /// Directory listings / metadata fetches.
    Metadata,
}

impl OpClass {
    /// All classes, for table rendering.
    pub const ALL: [OpClass; 7] = [
        OpClass::SmallWrite,
        OpClass::LargeWrite,
        OpClass::SmallRead,
        OpClass::LargeRead,
        OpClass::Update,
        OpClass::Delete,
        OpClass::Metadata,
    ];

    /// The class's name in reports and traces (what `Display` prints).
    pub const fn as_str(self) -> &'static str {
        match self {
            OpClass::SmallWrite => "small-write",
            OpClass::LargeWrite => "large-write",
            OpClass::SmallRead => "small-read",
            OpClass::LargeRead => "large-read",
            OpClass::Update => "update",
            OpClass::Delete => "delete",
            OpClass::Metadata => "metadata",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn mean_and_count() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), Duration::ZERO);
        for v in [10, 20, 30] {
            s.record(ms(v));
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), ms(20));
    }

    #[test]
    fn quantiles_upper_bound_within_one_bucket() {
        let mut s = LatencyStats::new();
        for v in 1..=100 {
            s.record(ms(v));
        }
        // Bucketed quantiles: at least the exact nearest-rank value,
        // at most one log₂ bucket above it (and never above the max).
        for (q, exact) in [(0.0, ms(1)), (0.5, ms(50)), (0.95, ms(95)), (1.0, ms(100))] {
            let got = s.quantile(q);
            assert!(got >= exact, "q={q}: {got:?} < exact {exact:?}");
            assert!(got <= exact * 2, "q={q}: {got:?} > 2x exact {exact:?}");
            assert!(got <= s.max());
        }
        assert_eq!(s.quantile(1.0), ms(100), "max is tracked exactly");
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_a_bucket() {
        // Equivalence with the retained-samples implementation this one
        // replaced: for seeded pseudo-random samples, the bucketed
        // quantile brackets the exact nearest-rank value from above by
        // less than one bucket width (upper edge ≤ 2× the value).
        let mut x = 0x9E3779B97F4A7C15u64; // splitmix64
        let mut next = move || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut s = LatencyStats::new();
        let mut samples_ns: Vec<u64> = Vec::new();
        for _ in 0..500 {
            let ns = 1_000 + next() % 50_000_000; // 1µs .. 50ms
            samples_ns.push(ns);
            s.record(Duration::from_nanos(ns));
        }
        samples_ns.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = (q * (samples_ns.len() - 1) as f64).round() as usize;
            let exact = samples_ns[rank];
            let got = s.quantile(q).as_nanos() as u64;
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(got <= exact.saturating_mul(2), "q={q}: {got} > 2x exact {exact}");
        }
        // Mean stays exact up to Duration's nanosecond quantization
        // (running sums, not buckets).
        let mean_ns = samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64;
        assert!((s.mean().as_secs_f64() - mean_ns / 1e9).abs() < 1e-9);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let mut s = LatencyStats::new();
        for _ in 0..10 {
            s.record(ms(42));
        }
        assert!(s.std_dev() < Duration::from_micros(1));
        assert_eq!(s.max(), ms(42));
    }

    #[test]
    fn std_dev_matches_two_pass_formula() {
        let mut s = LatencyStats::new();
        let vals = [10u64, 20, 30, 40, 50];
        for v in vals {
            s.record(ms(v));
        }
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64 / 1e3;
        let var = vals
            .iter()
            .map(|&v| {
                let s = v as f64 / 1e3;
                (s - mean) * (s - mean)
            })
            .sum::<f64>()
            / (vals.len() - 1) as f64;
        assert!((s.std_dev().as_secs_f64() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(ms(10));
        let mut b = LatencyStats::new();
        b.record(ms(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), ms(20));
        assert_eq!(a.max(), ms(30));
    }

    #[test]
    fn memory_stays_bounded() {
        // The point of the histogram backing: a million samples cost the
        // same memory as ten. Nothing to assert directly on size, but
        // recording must stay O(1) state — count/mean/quantile still work.
        let mut s = LatencyStats::new();
        for i in 0..1_000_000u64 {
            s.record(Duration::from_nanos(1 + i % 1_000));
        }
        assert_eq!(s.count(), 1_000_000);
        assert!(s.quantile(0.5) >= Duration::from_nanos(1));
    }

    #[test]
    fn op_class_display_and_all() {
        assert_eq!(OpClass::ALL.len(), 7);
        assert_eq!(OpClass::LargeRead.to_string(), "large-read");
        assert!(OpClass::ALL.iter().all(|c| c.to_string() == c.as_str()));
    }
}
