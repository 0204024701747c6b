//! File-size distributions calibrated to the workload facts the paper's
//! design rests on (§II-B, citing Agrawal et al. FAST'07):
//!
//! 1. "more than 50 % of files are smaller than 4 KB",
//! 2. "files whose size ranges from 3 MB to 9 MB account for more than
//!    80 % of the total storage capacity",
//! 3. large files are "a very small percentage (10 % to 20 %) of the
//!    total number of files".
//!
//! The distribution is a three-component mixture of log-uniform bands:
//! a small band [512 B, 4 KB], a medium band [4 KB, 1 MB], and a large
//! band [3 MB, 9 MB]. With weights 0.55 / 0.33 / 0.12 all three facts
//! hold (verified by the tests below and by property tests at the
//! integration level).

use crate::rng::Rng;

/// One log-uniform band of the mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Band {
    lo: u64,
    hi: u64,
    weight: f64,
}

impl Band {
    fn sample(&self, rng: &mut Rng) -> u64 {
        let (lo, hi) = (self.lo as f64, self.hi as f64);
        let u = rng.unit();
        (lo * (hi / lo).powf(u)).round().clamp(lo, hi) as u64
    }

    /// Mean of a log-uniform on [lo, hi]: (hi - lo) / ln(hi / lo).
    fn mean(&self) -> f64 {
        let (lo, hi) = (self.lo as f64, self.hi as f64);
        (hi - lo) / (hi / lo).ln()
    }
}

/// A file-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSizeDist {
    bands: Vec<Band>,
}

impl FileSizeDist {
    /// The calibrated Agrawal-style mixture described in the module docs.
    pub fn agrawal() -> Self {
        FileSizeDist {
            bands: vec![
                Band { lo: 512, hi: 4 * 1024, weight: 0.55 },
                Band { lo: 4 * 1024, hi: 1024 * 1024, weight: 0.33 },
                Band { lo: 3 * 1024 * 1024, hi: 9 * 1024 * 1024, weight: 0.12 },
            ],
        }
    }

    /// The PostMark configuration of the paper's Figure 6 runs: "files of
    /// size ranging from 1 KB to 100 MB". Mostly the Agrawal mixture with
    /// a thin tail up to 100 MB so the pool contains truly large media
    /// files.
    pub fn postmark_paper() -> Self {
        FileSizeDist {
            bands: vec![
                Band { lo: 1024, hi: 4 * 1024, weight: 0.53 },
                Band { lo: 4 * 1024, hi: 1024 * 1024, weight: 0.32 },
                Band { lo: 3 * 1024 * 1024, hi: 9 * 1024 * 1024, weight: 0.12 },
                Band { lo: 9 * 1024 * 1024, hi: 100 * 1024 * 1024, weight: 0.03 },
            ],
        }
    }

    /// A single log-uniform band (for sensitivity sweeps).
    pub fn log_uniform(lo: u64, hi: u64) -> Self {
        assert!(lo > 0 && hi > lo, "need 0 < lo < hi");
        FileSizeDist { bands: vec![Band { lo, hi, weight: 1.0 }] }
    }

    /// Expected file size under the mixture.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.bands.iter().map(|b| b.weight).sum();
        self.bands.iter().map(|b| b.weight * b.mean()).sum::<f64>() / total
    }

    /// Fraction of *files* at or below `threshold` bytes (approximate,
    /// from the band structure).
    pub fn count_frac_below(&self, threshold: u64) -> f64 {
        let total: f64 = self.bands.iter().map(|b| b.weight).sum();
        let mut acc = 0.0;
        for b in &self.bands {
            if threshold >= b.hi {
                acc += b.weight;
            } else if threshold > b.lo {
                // log-uniform CDF within the band
                let f =
                    ((threshold as f64 / b.lo as f64).ln()) / ((b.hi as f64 / b.lo as f64).ln());
                acc += b.weight * f;
            }
        }
        acc / total
    }

    /// Fraction of *bytes* contributed by files larger than `threshold`
    /// (approximate, from band means).
    pub fn bytes_frac_above(&self, threshold: u64) -> f64 {
        let mut above = 0.0;
        let mut total = 0.0;
        for b in &self.bands {
            if threshold <= b.lo {
                let contrib = b.weight * b.mean();
                above += contrib;
                total += contrib;
            } else if threshold >= b.hi {
                total += b.weight * b.mean();
            } else {
                // Split the band at the threshold: a log-uniform
                // conditioned on a sub-range is log-uniform on it.
                let cdf = whole_cdf(b, threshold);
                let lower = Band { lo: b.lo, hi: threshold, weight: 1.0 };
                let upper = Band { lo: threshold, hi: b.hi, weight: 1.0 };
                let up = b.weight * (1.0 - cdf) * upper.mean();
                above += up;
                total += b.weight * cdf * lower.mean() + up;
            }
        }
        above / total
    }

    /// One file size drawn from the mixture.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let total: f64 = self.bands.iter().map(|b| b.weight).sum();
        let mut pick = rng.unit() * total;
        for b in &self.bands {
            if pick < b.weight {
                return b.sample(rng);
            }
            pick -= b.weight;
        }
        self.bands.last().expect("mixture has at least one band").sample(rng)
    }

    /// Summarizes the small/large mix at a given threshold by sampling —
    /// the numbers the HyRD dispatcher's behaviour is driven by.
    pub fn summarize(&self, threshold: u64, samples: usize, rng: &mut Rng) -> SizeMixSummary {
        let mut small_count = 0u64;
        let mut small_bytes = 0u64;
        let mut total_bytes = 0u64;
        for _ in 0..samples {
            let s = self.sample(rng);
            total_bytes += s;
            if s <= threshold {
                small_count += 1;
                small_bytes += s;
            }
        }
        SizeMixSummary {
            threshold,
            small_count_frac: small_count as f64 / samples as f64,
            small_bytes_frac: if total_bytes == 0 {
                0.0
            } else {
                small_bytes as f64 / total_bytes as f64
            },
        }
    }
}

fn whole_cdf(b: &Band, x: u64) -> f64 {
    ((x as f64 / b.lo as f64).ln() / (b.hi as f64 / b.lo as f64).ln()).clamp(0.0, 1.0)
}

/// Sampled small/large mix at a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeMixSummary {
    /// The large/small boundary used.
    pub threshold: u64,
    /// Fraction of files at or below the threshold.
    pub small_count_frac: f64,
    /// Fraction of bytes in files at or below the threshold.
    pub small_bytes_frac: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_n(dist: &FileSizeDist, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn agrawal_fact_1_half_of_files_under_4kb() {
        let sizes = sample_n(&FileSizeDist::agrawal(), 50_000, 42);
        let small = sizes.iter().filter(|&&s| s <= 4 * 1024).count() as f64;
        let frac = small / sizes.len() as f64;
        assert!(frac > 0.50 && frac < 0.62, "small-file fraction {frac}");
    }

    #[test]
    fn agrawal_fact_2_3_to_9mb_carry_80pct_of_bytes() {
        let sizes = sample_n(&FileSizeDist::agrawal(), 50_000, 43);
        let total: u64 = sizes.iter().sum();
        let band: u64 = sizes.iter().filter(|s| ((3 << 20)..=(9 << 20)).contains(*s)).sum();
        let frac = band as f64 / total as f64;
        assert!(frac > 0.80, "3-9MB byte fraction {frac}");
    }

    #[test]
    fn agrawal_fact_3_large_files_are_10_to_20pct_of_count() {
        let sizes = sample_n(&FileSizeDist::agrawal(), 50_000, 44);
        let large = sizes.iter().filter(|&&s| s >= (1 << 20)).count() as f64;
        let frac = large / sizes.len() as f64;
        assert!((0.10..=0.20).contains(&frac), "large-file count fraction {frac}");
    }

    #[test]
    fn samples_stay_within_band_bounds() {
        let sizes = sample_n(&FileSizeDist::agrawal(), 10_000, 45);
        for s in sizes {
            assert!((512..=9 << 20).contains(&s), "sample {s} out of range");
        }
        let pm = sample_n(&FileSizeDist::postmark_paper(), 10_000, 46);
        for s in pm {
            assert!((1024..=100 << 20).contains(&s), "postmark sample {s} out of range");
        }
    }

    #[test]
    fn analytic_count_frac_matches_sampling() {
        let dist = FileSizeDist::agrawal();
        let analytic = dist.count_frac_below(4 * 1024);
        let sizes = sample_n(&dist, 50_000, 47);
        let sampled = sizes.iter().filter(|&&s| s <= 4 * 1024).count() as f64 / sizes.len() as f64;
        assert!((analytic - sampled).abs() < 0.02, "analytic={analytic} sampled={sampled}");
    }

    #[test]
    fn analytic_bytes_frac_above_1mb_is_large_dominated() {
        let dist = FileSizeDist::agrawal();
        let above = dist.bytes_frac_above(1 << 20);
        assert!(above > 0.8, "bytes above 1MB = {above}");
    }

    #[test]
    fn summarize_reports_the_papers_asymmetry() {
        // The HyRD premise: small files are most of the *count* but a tiny
        // share of the *bytes* at the 1 MB threshold.
        let dist = FileSizeDist::agrawal();
        let mut rng = Rng::seed_from_u64(48);
        let s = dist.summarize(1 << 20, 40_000, &mut rng);
        assert!(s.small_count_frac > 0.8, "count frac {}", s.small_count_frac);
        assert!(s.small_bytes_frac < 0.2, "bytes frac {}", s.small_bytes_frac);
    }

    #[test]
    fn log_uniform_mean_formula() {
        let d = FileSizeDist::log_uniform(1024, 1024 * 1024);
        let analytic = d.mean();
        let sizes = sample_n(&d, 100_000, 49);
        let sampled = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!((analytic - sampled).abs() / analytic < 0.03);
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let d = FileSizeDist::postmark_paper();
        assert_eq!(sample_n(&d, 100, 7), sample_n(&d, 100, 7));
        assert_ne!(sample_n(&d, 100, 7), sample_n(&d, 100, 8));
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn log_uniform_validates() {
        let _ = FileSizeDist::log_uniform(10, 10);
    }
}
