//! Zipf-skewed popularity workload for the redundancy-policy engine.
//!
//! The adaptive placement policy ([`hyrd::policy`] in the core crate)
//! reacts to *heat*: files read far more often than their peers are
//! promotion candidates, files never touched again after creation are
//! demotion candidates. Uniform access (as in [`crate::openloop`])
//! produces neither. This generator samples file popularity from a Zipf
//! distribution with exponent `theta` — rank 1 absorbs a large constant
//! fraction of all accesses, the tail is effectively cold — which is
//! the empirical shape of object-store traces and exactly the regime
//! the policy engine is designed for.
//!
//! Layout choices that make the workload a policy stressor rather than
//! a neutral benchmark:
//!
//! * Popularity rank maps to file index **identically** (rank 1 =
//!   `f0000`), and every `large_every`-th index is a large file. The
//!   hottest files are therefore erasure-coded large files — the
//!   promotion case — while the cold tail includes sizable replicated
//!   files that an adaptive policy should demote to erasure coding.
//! * A small `write_frac` of accesses are byte-range updates, so the
//!   policy's interaction with RAID5 read-modify-write and hot-copy
//!   invalidation gets exercised, not just the pure-read path.
//!
//! Randomness comes from a [`SplitMix64`] stream: the op stream is a pure
//! function of the seed, so the policy experiments replay
//! byte-identically at any `--jobs` level.

use crate::ops::FsOp;
use crate::rng::SplitMix64;

/// Knobs for the Zipf-popularity generator.
#[derive(Debug, Clone)]
pub struct ZipfConfig {
    /// Seed of the splitmix64 stream.
    pub seed: u64,
    /// Number of files in the pool.
    pub files: usize,
    /// Zipf exponent. 0 is uniform; 0.99 is the classic YCSB default
    /// where the head of the distribution dominates.
    pub theta: f64,
    /// Number of timed accesses to generate.
    pub ops: usize,
    /// Fraction of accesses that are small byte-range updates instead
    /// of whole-file reads.
    pub write_frac: f64,
    /// Every `large_every`-th file index is a large file (index 0
    /// included, so the hottest rank is always large).
    pub large_every: usize,
    /// Size of each small file, bytes. Keep above the policy's
    /// `demote_min_bytes` so cold small files are demotion candidates,
    /// but below the replication threshold so they start replicated.
    pub small_bytes: u64,
    /// Size of each large file, bytes. Keep above the replication
    /// threshold so these start erasure-coded.
    pub large_bytes: u64,
    /// Bytes rewritten by each update access.
    pub update_bytes: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            seed: 0x21BF_90B5,
            files: 60,
            theta: 0.99,
            ops: 600,
            write_frac: 0.1,
            large_every: 3,
            small_bytes: 512 * 1024,
            large_bytes: 3 * 1024 * 1024,
            update_bytes: 4096,
        }
    }
}

/// Precomputed Zipf sampler: rank `r` (0-based) is drawn with
/// probability proportional to `1 / (r + 1)^theta`.
#[derive(Debug, Clone)]
pub struct ZipfPopularity {
    /// Cumulative distribution over ranks, normalised to 1.0; sampling
    /// is a binary search for the first entry ≥ a uniform draw.
    cdf: Vec<f64>,
}

impl ZipfPopularity {
    /// A sampler over `n` ranks with exponent `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(theta >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Clamp the final entry so a unit draw of exactly 1.0 (the
        // splitmix stream's upper bound) always lands inside the table.
        *cdf.last_mut().unwrap() = 1.0;
        ZipfPopularity { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Map a uniform draw in (0, 1] to a rank (0-based; rank 0 is the
    /// most popular).
    pub fn rank_of(&self, unit: f64) -> usize {
        self.cdf.partition_point(|&c| c < unit).min(self.cdf.len() - 1)
    }
}

/// The Zipf workload generator. Construct with a config, then replay
/// [`setup_ops`](ZipfWorkload::setup_ops) (untimed pool creation)
/// followed by [`access_ops`](ZipfWorkload::access_ops) (the skewed
/// access stream).
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    cfg: ZipfConfig,
}

/// Directory the pool lives under.
const POOL_DIR: &str = "/zipf";

impl ZipfWorkload {
    /// A generator for `cfg`.
    pub fn new(cfg: ZipfConfig) -> Self {
        assert!(cfg.files > 0, "zipf pool must be non-empty");
        assert!(cfg.large_every > 0, "large_every must be positive");
        assert!((0.0..=1.0).contains(&cfg.write_frac), "write_frac must be a fraction");
        ZipfWorkload { cfg }
    }

    /// The generator's config.
    pub fn config(&self) -> &ZipfConfig {
        &self.cfg
    }

    /// Path of pool file `i` (also popularity rank `i`).
    pub fn path(i: usize) -> String {
        format!("{POOL_DIR}/f{i:04}")
    }

    /// Whether pool file `i` is a large (erasure-coded) file.
    pub fn is_large(&self, i: usize) -> bool {
        i.is_multiple_of(self.cfg.large_every)
    }

    /// Size of pool file `i`.
    pub fn size_of(&self, i: usize) -> u64 {
        if self.is_large(i) {
            self.cfg.large_bytes
        } else {
            self.cfg.small_bytes
        }
    }

    /// The untimed create phase: every pool file in index order.
    pub fn setup_ops(&self) -> Vec<FsOp> {
        (0..self.cfg.files)
            .map(|i| FsOp::Create { path: Self::path(i), size: self.size_of(i) })
            .collect()
    }

    /// The skewed access phase: `cfg.ops` accesses, each hitting a file
    /// drawn from the Zipf distribution; a `write_frac` fraction are
    /// small updates at a sampled offset, the rest whole-file reads.
    pub fn access_ops(&self) -> Vec<FsOp> {
        let cfg = &self.cfg;
        let zipf = ZipfPopularity::new(cfg.files, cfg.theta);
        let mut rng = SplitMix64::new(cfg.seed);
        let mut out = Vec::with_capacity(cfg.ops);
        for _ in 0..cfg.ops {
            let i = zipf.rank_of(rng.unit_nonzero());
            let path = Self::path(i);
            let op = if rng.unit_nonzero() <= cfg.write_frac {
                let size = self.size_of(i);
                let len = cfg.update_bytes.min(size);
                let span = size - len;
                let offset = if span == 0 { 0 } else { rng.next_u64() % (span + 1) };
                FsOp::Update { path, offset, len }
            } else {
                FsOp::Read { path }
            };
            out.push(op);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_dominates_the_tail() {
        let zipf = ZipfPopularity::new(50, 0.99);
        let mut rng = SplitMix64::new(7);
        let mut hits = vec![0usize; 50];
        for _ in 0..20_000 {
            hits[zipf.rank_of(rng.unit_nonzero())] += 1;
        }
        let head: usize = hits[..5].iter().sum();
        let tail: usize = hits[25..].iter().sum();
        assert!(
            head > 3 * tail,
            "head-5 ranks should dominate the cold half: head={head} tail={tail}"
        );
        assert!(hits[0] > hits[10], "rank 0 must beat rank 10");
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let zipf = ZipfPopularity::new(10, 0.0);
        let mut rng = SplitMix64::new(3);
        let mut hits = vec![0usize; 10];
        for _ in 0..10_000 {
            hits[zipf.rank_of(rng.unit_nonzero())] += 1;
        }
        for &h in &hits {
            assert!((700..=1300).contains(&h), "uniform bucket out of band: {hits:?}");
        }
    }

    #[test]
    fn rank_of_handles_the_unit_extremes() {
        let zipf = ZipfPopularity::new(4, 0.99);
        assert_eq!(zipf.rank_of(f64::MIN_POSITIVE), 0);
        assert_eq!(zipf.rank_of(1.0), 3.min(zipf.ranks() - 1));
    }

    #[test]
    fn same_seed_same_stream() {
        let w = ZipfWorkload::new(ZipfConfig::default());
        assert_eq!(w.access_ops(), w.access_ops());
        assert_eq!(w.setup_ops(), w.setup_ops());
        let other = ZipfWorkload::new(ZipfConfig { seed: 1, ..ZipfConfig::default() });
        assert_ne!(w.access_ops(), other.access_ops());
    }

    #[test]
    fn hottest_rank_is_a_large_file_and_the_tail_has_cold_small_files() {
        let w = ZipfWorkload::new(ZipfConfig::default());
        assert!(w.is_large(0), "rank 0 must be an erasure-coded promotion candidate");
        assert!(!w.is_large(1), "the pool must include replicated files too");
        let setup = w.setup_ops();
        assert_eq!(setup.len(), w.config().files);
        let cold = &setup[w.config().files - 1];
        match cold {
            FsOp::Create { size, .. } => {
                assert!(*size >= 256 * 1024, "cold-tail files must clear demote_min_bytes")
            }
            other => panic!("setup emits creates only, got {other:?}"),
        }
    }

    #[test]
    fn updates_stay_inside_the_file() {
        let cfg = ZipfConfig { write_frac: 1.0, ops: 300, ..ZipfConfig::default() };
        let w = ZipfWorkload::new(cfg);
        for op in w.access_ops() {
            let FsOp::Update { path, offset, len } = op else {
                panic!("write_frac=1.0 must emit updates only")
            };
            let i: usize = path[POOL_DIR.len() + 2..].parse().unwrap();
            assert!(offset + len <= w.size_of(i), "update out of range for {path}");
            assert!(len > 0);
        }
    }
}
