//! A PostMark-compatible transaction engine.
//!
//! PostMark (Katcher, NetApp TR-3022) models mail/news/web-commerce
//! servers: build a pool of small files across subdirectories, run a
//! fixed number of transactions — each transaction pairs a *read or
//! append* with a *create or delete* — then delete the remaining pool.
//! The paper drives its Figure 6 latency experiments with PostMark
//! configured for file sizes 1 KB – 100 MB.
//!
//! This implementation emits the operation stream as [`FsOp`]s so any
//! scheme can replay it; it does not itself touch storage.

use crate::filesize::FileSizeDist;
use crate::ops::FsOp;
use crate::rng::Rng;

/// PostMark knobs (names follow the original's configuration file).
#[derive(Debug, Clone)]
pub struct PostMarkConfig {
    /// Files created in the initial pool.
    pub initial_files: usize,
    /// Transactions to run.
    pub transactions: usize,
    /// Subdirectories the pool spreads across.
    pub subdirectories: usize,
    /// File-size distribution (the original uses uniform; the paper's
    /// setup is 1 KB–100 MB, we default to the calibrated mixture).
    pub size_dist: FileSizeDist,
    /// Probability a transaction's I/O half is a read (vs an update
    /// append); PostMark's `set bias read` (default 5 → 50 %).
    pub read_bias: f64,
    /// Probability a transaction's pool half is a create (vs a delete);
    /// PostMark's `set bias create`.
    pub create_bias: f64,
    /// Bytes per update/append op.
    pub update_len: u64,
    /// Whether to interleave directory listings (metadata accesses are
    /// "the most frequent kind" — §II-B), one per this many transactions.
    /// 0 disables.
    pub list_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Directory the pool lives under. Multi-client soaks give each
    /// generator its own root so independently seeded streams never
    /// collide on paths; defaults to the classic `/postmark`.
    pub root: String,
}

impl Default for PostMarkConfig {
    fn default() -> Self {
        PostMarkConfig {
            initial_files: 100,
            transactions: 500,
            subdirectories: 10,
            size_dist: FileSizeDist::postmark_paper(),
            read_bias: 0.5,
            create_bias: 0.5,
            update_len: 4 * 1024,
            list_every: 4,
            seed: 0xB0A7,
            root: "/postmark".to_string(),
        }
    }
}

hyrd_telemetry::json_struct! {
    /// Aggregate counts of an emitted PostMark run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PostMarkReport {
        /// Files created (pool + transaction creates).
        pub creates: u64,
        /// Whole-file reads.
        pub reads: u64,
        /// Small updates.
        pub updates: u64,
        /// Deletes (transaction deletes + final cleanup).
        pub deletes: u64,
        /// Directory listings.
        pub lists: u64,
        /// Total logical bytes written (creates + updates).
        pub bytes_written: u64,
    }
}

/// The PostMark engine.
///
/// ```
/// use hyrd_workloads::{PostMark, PostMarkConfig};
///
/// let config = PostMarkConfig { initial_files: 10, transactions: 30, ..Default::default() };
/// let (ops, report) = PostMark::new(config).generate();
/// assert_eq!(report.reads + report.updates, 30); // one I/O per transaction
/// assert!(ops.len() > 40); // pool creates + transactions + cleanup
/// ```
#[derive(Debug, Clone)]
pub struct PostMark {
    config: PostMarkConfig,
}

impl PostMark {
    /// Creates an engine with the given configuration.
    pub fn new(config: PostMarkConfig) -> Self {
        assert!(config.initial_files > 0, "pool must be nonempty");
        assert!(config.subdirectories > 0, "need at least one subdirectory");
        PostMark { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PostMarkConfig {
        &self.config
    }

    /// Generates the full operation stream (init pool → transactions →
    /// cleanup) plus aggregate counts.
    pub fn generate(&self) -> (Vec<FsOp>, PostMarkReport) {
        let c = &self.config;
        let mut rng = Rng::seed_from_u64(c.seed);
        let mut ops = Vec::new();
        let mut report = PostMarkReport::default();
        let mut next_file = 0usize;
        let mut pool: Vec<(String, u64)> = Vec::with_capacity(c.initial_files);

        let mut used_dirs: Vec<usize> = Vec::new();
        let new_path = |n: usize, rng: &mut Rng, used: &mut Vec<usize>| {
            let dir = rng.index(c.subdirectories);
            if !used.contains(&dir) {
                used.push(dir);
            }
            format!("{}/s{dir:02}/f{n:06}", c.root)
        };

        // Phase 1: build the pool.
        for _ in 0..c.initial_files {
            let size = c.size_dist.sample(&mut rng);
            let path = new_path(next_file, &mut rng, &mut used_dirs);
            next_file += 1;
            ops.push(FsOp::Create { path: path.clone(), size });
            report.creates += 1;
            report.bytes_written += size;
            pool.push((path, size));
        }

        // Phase 2: transactions.
        for t in 0..c.transactions {
            // I/O half: read or update an existing file.
            let (path, size) = rng.choose(&pool).expect("pool never empties").clone();
            if rng.chance(c.read_bias) {
                ops.push(FsOp::Read { path });
                report.reads += 1;
            } else {
                let len = c.update_len.min(size).max(1);
                let offset = if size > len { rng.range_inclusive(0, size - len) } else { 0 };
                ops.push(FsOp::Update { path, offset, len });
                report.updates += 1;
                report.bytes_written += len;
            }

            // Pool half: create or delete (keep at least one file).
            if pool.len() <= 1 || rng.chance(c.create_bias) {
                let size = c.size_dist.sample(&mut rng);
                let path = new_path(next_file, &mut rng, &mut used_dirs);
                next_file += 1;
                ops.push(FsOp::Create { path: path.clone(), size });
                report.creates += 1;
                report.bytes_written += size;
                pool.push((path, size));
            } else {
                let idx = rng.index(pool.len());
                let (path, _) = pool.swap_remove(idx);
                ops.push(FsOp::Delete { path });
                report.deletes += 1;
            }

            // Metadata accesses: list only directories that exist (have
            // received at least one file).
            if c.list_every > 0 && (t + 1) % c.list_every == 0 && !used_dirs.is_empty() {
                let dir = used_dirs[rng.index(used_dirs.len())];
                ops.push(FsOp::ListDir { path: format!("{}/s{dir:02}", c.root) });
                report.lists += 1;
            }
        }

        // Phase 3: delete the remaining pool.
        for (path, _) in pool.drain(..) {
            ops.push(FsOp::Delete { path });
            report.deletes += 1;
        }

        (ops, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_config(seed: u64) -> PostMarkConfig {
        PostMarkConfig {
            initial_files: 20,
            transactions: 100,
            subdirectories: 4,
            seed,
            ..PostMarkConfig::default()
        }
    }

    #[test]
    fn stream_is_replayable_every_op_targets_a_live_file() {
        let (ops, _) = PostMark::new(small_config(1)).generate();
        let mut live: HashSet<String> = HashSet::new();
        for op in &ops {
            match op {
                FsOp::Create { path, .. } => {
                    assert!(live.insert(path.clone()), "duplicate create {path}");
                }
                FsOp::Read { path } | FsOp::Update { path, .. } => {
                    assert!(live.contains(path), "access to dead file {path}");
                }
                FsOp::Delete { path } => {
                    assert!(live.remove(path), "delete of dead file {path}");
                }
                FsOp::ListDir { .. } => {}
            }
        }
        assert!(live.is_empty(), "cleanup must delete the whole pool");
    }

    #[test]
    fn update_ranges_are_in_bounds() {
        let (ops, _) = PostMark::new(small_config(2)).generate();
        let mut sizes: std::collections::HashMap<String, u64> = Default::default();
        for op in &ops {
            match op {
                FsOp::Create { path, size } => {
                    sizes.insert(path.clone(), *size);
                }
                FsOp::Update { path, offset, len } => {
                    let size = sizes[path];
                    assert!(offset + len <= size, "update {offset}+{len} > {size}");
                    assert!(*len > 0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn report_matches_stream() {
        let (ops, report) = PostMark::new(small_config(3)).generate();
        let count = |f: &dyn Fn(&FsOp) -> bool| ops.iter().filter(|o| f(o)).count() as u64;
        assert_eq!(report.creates, count(&|o| matches!(o, FsOp::Create { .. })));
        assert_eq!(report.reads, count(&|o| matches!(o, FsOp::Read { .. })));
        assert_eq!(report.updates, count(&|o| matches!(o, FsOp::Update { .. })));
        assert_eq!(report.deletes, count(&|o| matches!(o, FsOp::Delete { .. })));
        assert_eq!(report.lists, count(&|o| matches!(o, FsOp::ListDir { .. })));
        assert_eq!(report.reads + report.updates, 100, "one I/O op per transaction");
    }

    #[test]
    fn determinism() {
        let a = PostMark::new(small_config(9)).generate();
        let b = PostMark::new(small_config(9)).generate();
        assert_eq!(a.0, b.0);
        let c = PostMark::new(small_config(10)).generate();
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn biases_shift_the_mix() {
        let mut read_heavy = small_config(4);
        read_heavy.read_bias = 0.9;
        let (_, r) = PostMark::new(read_heavy).generate();
        assert!(r.reads > 3 * r.updates, "reads={} updates={}", r.reads, r.updates);

        let mut create_heavy = small_config(5);
        create_heavy.create_bias = 0.9;
        let (_, c) = PostMark::new(create_heavy).generate();
        // Deletes = transaction deletes + final pool cleanup; with heavy
        // create bias the pool grows, so creates exceed mid-run deletes.
        assert!(c.creates > 20 + 50, "creates={}", c.creates);
    }

    #[test]
    fn paths_spread_across_subdirectories() {
        let (ops, _) = PostMark::new(small_config(6)).generate();
        let dirs: HashSet<&str> = ops
            .iter()
            .filter(|o| matches!(o, FsOp::Create { .. }))
            .map(|o| &o.path()[..13]) // "/postmark/sNN"
            .collect();
        assert!(dirs.len() >= 3, "only {} subdirs used", dirs.len());
    }

    #[test]
    fn custom_root_prefixes_every_path() {
        let mut c = small_config(7);
        c.root = "/mail/c03".to_string();
        let (ops, _) = PostMark::new(c).generate();
        assert!(!ops.is_empty());
        for op in &ops {
            assert!(op.path().starts_with("/mail/c03/s"), "op escaped its root: {}", op.path());
        }
        // Same seed, different roots: identical streams modulo prefix —
        // what keeps per-session workloads comparable in multi-client
        // soaks.
        let base = PostMark::new(small_config(7)).generate().0;
        let mut rerooted = small_config(7);
        rerooted.root = "/mail/c03".to_string();
        let moved = PostMark::new(rerooted).generate().0;
        assert_eq!(base.len(), moved.len());
        for (a, b) in base.iter().zip(&moved) {
            assert_eq!(a.path().replace("/postmark", "/mail/c03"), b.path().to_string());
        }
    }

    #[test]
    #[should_panic(expected = "pool must be nonempty")]
    fn zero_pool_rejected() {
        let mut c = small_config(0);
        c.initial_files = 0;
        let _ = PostMark::new(c);
    }
}
