//! Open-loop Poisson arrival workload: offered load drives the tail.
//!
//! The closed-loop generators ([`crate::postmark`], [`crate::ia_trace`])
//! issue the next request only after the previous one completes, so a
//! slow provider throttles the workload itself and queueing delay never
//! accumulates — exactly the regime where tail latency hides. The
//! open-loop generator instead schedules request *arrivals* on a Poisson
//! process at a configured offered rate. The driver advances the virtual
//! clock to each arrival time regardless of how long earlier requests
//! took, which is what makes latency spikes, hedging, and p99/p999
//! measurable.
//!
//! Two phases:
//!
//! 1. [`OpenLoop::setup_ops`] — an untimed create phase that populates a
//!    fixed file pool spanning both redundancy tiers (small files below
//!    the replication threshold, large files above it).
//! 2. [`OpenLoop::arrivals`] — the timed read-mostly phase: a sorted
//!    stream of [`Arrival`]s (small reads, large reads, directory
//!    listings) with exponential interarrival gaps.
//!
//! Randomness comes from a [`SplitMix64`] stream, so the arrival schedule
//! is a pure function of the seed: same seed ⇒ byte-identical op stream.

use std::time::Duration;

use crate::ops::FsOp;
use crate::rng::SplitMix64;

/// Knobs for the open-loop generator.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Seed of the splitmix64 stream.
    pub seed: u64,
    /// Offered load: mean arrivals per (virtual) second.
    pub rate_per_sec: f64,
    /// Number of timed arrivals to generate.
    pub arrivals: usize,
    /// Small files in the setup pool (replicated tier).
    pub small_files: usize,
    /// Large files in the setup pool (erasure-coded tier).
    pub large_files: usize,
    /// Size of each small file, bytes. Keep at or below the scheme's
    /// replication threshold so these land in the replicated tier.
    pub small_size: u64,
    /// Size of each large file, bytes. Keep above the threshold so these
    /// land in the erasure-coded tier.
    pub large_size: u64,
    /// Relative weight of small-file reads in the arrival mix.
    pub weight_small_read: u32,
    /// Relative weight of large-file reads in the arrival mix.
    pub weight_large_read: u32,
    /// Relative weight of directory listings in the arrival mix.
    pub weight_list: u32,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 0xB10C_FEED,
            rate_per_sec: 2.0,
            arrivals: 400,
            small_files: 24,
            large_files: 12,
            small_size: 256 * 1024,
            large_size: 3 * 1024 * 1024,
            // Large reads dominate: they fan out over erasure fragments,
            // which is where stragglers (and hedges) live.
            weight_small_read: 3,
            weight_large_read: 6,
            weight_list: 1,
        }
    }
}

/// One timed request: execute `op` when the virtual clock reaches `at`
/// (measured from the start of the timed phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival offset from the start of the timed phase.
    pub at: Duration,
    /// The request itself.
    pub op: FsOp,
}

/// Open-loop workload generator. Construct with a config, then replay
/// [`setup_ops`](OpenLoop::setup_ops) (untimed) followed by
/// [`arrivals`](OpenLoop::arrivals) (timed).
#[derive(Debug, Clone)]
pub struct OpenLoop {
    cfg: OpenLoopConfig,
}

/// Directory the pool lives under (also the `ListDir` target).
const POOL_DIR: &str = "/open";

impl OpenLoop {
    /// A generator for `cfg`.
    pub fn new(cfg: OpenLoopConfig) -> Self {
        OpenLoop { cfg }
    }

    /// The generator's config.
    pub fn config(&self) -> &OpenLoopConfig {
        &self.cfg
    }

    /// Path of small pool file `i`.
    fn small_path(i: usize) -> String {
        format!("{POOL_DIR}/s{i:03}")
    }

    /// Path of large pool file `i`.
    fn large_path(i: usize) -> String {
        format!("{POOL_DIR}/l{i:03}")
    }

    /// The untimed create phase: every pool file, small then large, in
    /// index order.
    pub fn setup_ops(&self) -> Vec<FsOp> {
        let mut ops = Vec::with_capacity(self.cfg.small_files + self.cfg.large_files);
        for i in 0..self.cfg.small_files {
            ops.push(FsOp::Create { path: Self::small_path(i), size: self.cfg.small_size });
        }
        for i in 0..self.cfg.large_files {
            ops.push(FsOp::Create { path: Self::large_path(i), size: self.cfg.large_size });
        }
        ops
    }

    /// The timed phase: `cfg.arrivals` requests with exponential
    /// interarrival gaps at `cfg.rate_per_sec`, sorted by arrival time
    /// (the generator emits them in order — Poisson arrivals are a
    /// cumulative sum of positive gaps).
    pub fn arrivals(&self) -> Vec<Arrival> {
        let cfg = &self.cfg;
        assert!(cfg.rate_per_sec > 0.0, "open-loop rate must be positive");
        let total_weight = cfg.weight_small_read + cfg.weight_large_read + cfg.weight_list;
        assert!(total_weight > 0, "open-loop op mix must have positive total weight");
        assert!(
            cfg.small_files > 0 || cfg.weight_small_read == 0,
            "small reads need a small-file pool"
        );
        assert!(
            cfg.large_files > 0 || cfg.weight_large_read == 0,
            "large reads need a large-file pool"
        );

        let mut rng = SplitMix64::new(cfg.seed);
        let mut out = Vec::with_capacity(cfg.arrivals);
        let mut t_ns: u64 = 0;
        for _ in 0..cfg.arrivals {
            // Exponential gap via inverse transform: -ln(U)/λ, U ∈ (0, 1].
            let gap_secs = -rng.unit_nonzero().ln() / cfg.rate_per_sec;
            t_ns += (gap_secs * 1e9) as u64;

            let pick = (rng.next_u64() % total_weight as u64) as u32;
            let op = if pick < cfg.weight_small_read {
                let i = (rng.next_u64() % cfg.small_files as u64) as usize;
                FsOp::Read { path: Self::small_path(i) }
            } else if pick - cfg.weight_small_read < cfg.weight_large_read {
                let i = (rng.next_u64() % cfg.large_files as u64) as usize;
                FsOp::Read { path: Self::large_path(i) }
            } else {
                FsOp::ListDir { path: POOL_DIR.to_string() }
            };
            out.push(Arrival { at: Duration::from_nanos(t_ns), op });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_creates_the_whole_pool_in_index_order() {
        let w = OpenLoop::new(OpenLoopConfig::default());
        let ops = w.setup_ops();
        assert_eq!(ops.len(), 24 + 12);
        assert_eq!(ops[0], FsOp::Create { path: "/open/s000".into(), size: 256 * 1024 });
        assert_eq!(ops[24], FsOp::Create { path: "/open/l000".into(), size: 3 * 1024 * 1024 });
        assert!(ops.iter().all(|op| op.is_write()));
    }

    #[test]
    fn same_seed_is_byte_identical_and_different_seed_is_not() {
        let a = OpenLoop::new(OpenLoopConfig::default()).arrivals();
        let b = OpenLoop::new(OpenLoopConfig::default()).arrivals();
        assert_eq!(a, b);
        let c = OpenLoop::new(OpenLoopConfig { seed: 7, ..OpenLoopConfig::default() }).arrivals();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_read_only_and_hit_the_pool() {
        let w = OpenLoop::new(OpenLoopConfig::default());
        let arrivals = w.arrivals();
        assert_eq!(arrivals.len(), 400);
        let mut prev = Duration::ZERO;
        let (mut small, mut large, mut list) = (0usize, 0usize, 0usize);
        for a in &arrivals {
            assert!(a.at >= prev, "arrival times must be nondecreasing");
            prev = a.at;
            match &a.op {
                FsOp::Read { path } if path.starts_with("/open/s") => small += 1,
                FsOp::Read { path } if path.starts_with("/open/l") => large += 1,
                FsOp::ListDir { path } => {
                    assert_eq!(path, "/open");
                    list += 1;
                }
                other => panic!("unexpected op in timed phase: {other:?}"),
            }
            assert!(!a.op.is_write(), "timed phase is read-only");
        }
        assert!(small > 0 && large > 0 && list > 0, "all mix classes occur");
        assert!(large > small, "large reads carry the heaviest weight");
    }

    #[test]
    fn mean_interarrival_converges_to_the_offered_rate() {
        let cfg = OpenLoopConfig { arrivals: 4000, rate_per_sec: 5.0, ..OpenLoopConfig::default() };
        let arrivals = OpenLoop::new(cfg).arrivals();
        let span = arrivals.last().unwrap().at.as_secs_f64();
        let mean_gap = span / arrivals.len() as f64;
        let want = 1.0 / 5.0;
        assert!(
            (mean_gap - want).abs() / want < 0.1,
            "mean gap {mean_gap:.4}s should be within 10% of {want:.4}s"
        );
    }

    #[test]
    fn unit_samples_stay_in_half_open_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let u = rng.unit_nonzero();
            assert!(u > 0.0 && u <= 1.0, "u={u}");
        }
    }
}
