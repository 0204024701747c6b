//! The Workload Monitor (Figure 1, left module).
//!
//! "The Workload Monitor module is responsible for classifying the
//! incoming write data into file metadata, large files and small files"
//! (§III-B). Classification is by size against the configurable
//! threshold; the monitor additionally keeps a size histogram so the
//! threshold-sensitivity experiment can inspect what a deployment
//! actually sees.

/// The three data classes HyRD distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// File-system metadata blocks — always replicated.
    Metadata,
    /// Files at or below the threshold — replicated.
    SmallFile,
    /// Files above the threshold — erasure-coded.
    LargeFile,
}

/// Power-of-two size histogram buckets (2^0 .. 2^40).
const BUCKETS: usize = 41;

/// The workload monitor: classifier plus observed-size statistics.
#[derive(Debug, Clone)]
pub struct WorkloadMonitor {
    threshold: u64,
    histogram: Vec<u64>,
    bytes_small: u64,
    bytes_large: u64,
}

impl WorkloadMonitor {
    /// Creates a monitor with the given large/small threshold.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        WorkloadMonitor { threshold, histogram: vec![0; BUCKETS], bytes_small: 0, bytes_large: 0 }
    }

    /// The active threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Classifies a file write of `size` bytes and records it.
    pub fn classify(&mut self, size: u64) -> DataClass {
        let bucket = (64 - size.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.histogram[bucket] += 1;
        if size <= self.threshold {
            self.bytes_small += size;
            DataClass::SmallFile
        } else {
            self.bytes_large += size;
            DataClass::LargeFile
        }
    }

    /// Un-records a previously classified file of `size` bytes —
    /// called on delete and on creates that fail after classification,
    /// so the histogram and byte tallies track *live* data instead of
    /// growing monotonically (which made `small_count_frac`, a policy
    /// input, drift on churny create/delete workloads). Saturating, so
    /// a spurious forget can never underflow.
    pub fn forget(&mut self, size: u64) {
        let bucket = (64 - size.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.histogram[bucket] = self.histogram[bucket].saturating_sub(1);
        if size <= self.threshold {
            self.bytes_small = self.bytes_small.saturating_sub(size);
        } else {
            self.bytes_large = self.bytes_large.saturating_sub(size);
        }
    }

    /// Adjusts the tallies for an in-place overwrite that changed a
    /// file's logical size from `old` to `new` bytes.
    pub fn adjust(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        self.forget(old);
        self.classify(new);
    }

    /// Classification without recording (for reads/planning).
    pub fn peek(&self, size: u64) -> DataClass {
        if size <= self.threshold {
            DataClass::SmallFile
        } else {
            DataClass::LargeFile
        }
    }

    /// Total files observed.
    pub fn files_seen(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Fraction of observed files classified small.
    pub fn small_count_frac(&self) -> f64 {
        if self.files_seen() == 0 {
            return 0.0;
        }
        let cutoff_bucket = 64 - self.threshold.leading_zeros() as usize - 1;
        let small: u64 = self.histogram[..=cutoff_bucket.min(BUCKETS - 1)].iter().sum();
        small as f64 / self.files_seen() as f64
    }

    /// Fraction of observed bytes classified small — the paper's core
    /// asymmetry (most accesses, few bytes).
    pub fn small_bytes_frac(&self) -> f64 {
        let total = self.bytes_small + self.bytes_large;
        if total == 0 {
            return 0.0;
        }
        self.bytes_small as f64 / total as f64
    }

    /// The raw power-of-two histogram (`counts[i]` = files with
    /// `2^i <= size < 2^(i+1)`).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// A human-readable histogram for threshold tuning: one line per
    /// populated power-of-two bucket with a proportional bar.
    pub fn histogram_summary(&self) -> String {
        use std::fmt::Write;
        let total = self.files_seen().max(1);
        let mut out = String::new();
        for (i, &count) in self.histogram.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let label = match i {
                0..=9 => format!("{}B", 1u64 << i),
                10..=19 => format!("{}KB", 1u64 << (i - 10)),
                20..=29 => format!("{}MB", 1u64 << (i - 20)),
                _ => format!("{}GB", 1u64 << (i - 30)),
            };
            let bar = "#".repeat(((count * 40) / total).max(1) as usize);
            let marker = if (1u64 << i) >= self.threshold { " (erasure tier)" } else { "" };
            writeln!(out, "{label:>6} {count:>6} {bar}{marker}").expect("string write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_respects_threshold_boundary() {
        let mut m = WorkloadMonitor::new(1024 * 1024);
        assert_eq!(m.classify(1), DataClass::SmallFile);
        assert_eq!(m.classify(1024 * 1024), DataClass::SmallFile, "boundary is small");
        assert_eq!(m.classify(1024 * 1024 + 1), DataClass::LargeFile);
        assert_eq!(m.peek(4 * 1024), DataClass::SmallFile);
        assert_eq!(m.peek(100 << 20), DataClass::LargeFile);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut m = WorkloadMonitor::new(1 << 20);
        m.classify(1); // bucket 0
        m.classify(2); // bucket 1
        m.classify(3); // bucket 1
        m.classify(4096); // bucket 12
        assert_eq!(m.histogram()[0], 1);
        assert_eq!(m.histogram()[1], 2);
        assert_eq!(m.histogram()[12], 1);
        assert_eq!(m.files_seen(), 4);
    }

    #[test]
    fn byte_and_count_fractions() {
        let mut m = WorkloadMonitor::new(1 << 20);
        // 9 small files of 4 KB, one large of 8 MB.
        for _ in 0..9 {
            m.classify(4 * 1024);
        }
        m.classify(8 << 20);
        assert!((m.small_count_frac() - 0.9).abs() < 1e-9);
        let small_bytes = 9.0 * 4096.0;
        let frac = small_bytes / (small_bytes + (8 << 20) as f64);
        assert!((m.small_bytes_frac() - frac).abs() < 1e-9);
    }

    #[test]
    fn forget_reverses_classify_exactly() {
        let mut m = WorkloadMonitor::new(1 << 20);
        for _ in 0..9 {
            m.classify(4 * 1024);
        }
        m.classify(8 << 20);
        // Churn: delete the large file and three small ones.
        m.forget(8 << 20);
        for _ in 0..3 {
            m.forget(4 * 1024);
        }
        assert_eq!(m.files_seen(), 6);
        assert_eq!(m.histogram()[12], 6);
        assert_eq!(m.histogram()[23], 0);
        assert!((m.small_count_frac() - 1.0).abs() < 1e-9);
        assert!((m.small_bytes_frac() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forget_saturates_instead_of_underflowing() {
        let mut m = WorkloadMonitor::new(1024);
        m.forget(10);
        m.forget(1 << 20);
        assert_eq!(m.files_seen(), 0);
        assert_eq!(m.small_bytes_frac(), 0.0);
    }

    #[test]
    fn adjust_moves_a_file_between_tiers() {
        let mut m = WorkloadMonitor::new(1 << 20);
        m.classify(4 * 1024);
        m.adjust(4 * 1024, 8 << 20);
        assert_eq!(m.files_seen(), 1);
        assert_eq!(m.small_count_frac(), 0.0);
        assert_eq!(m.small_bytes_frac(), 0.0);
        // No-op when the size is unchanged.
        m.adjust(8 << 20, 8 << 20);
        assert_eq!(m.files_seen(), 1);
    }

    #[test]
    fn empty_monitor_fractions_are_zero() {
        let m = WorkloadMonitor::new(1 << 20);
        assert_eq!(m.small_count_frac(), 0.0);
        assert_eq!(m.small_bytes_frac(), 0.0);
    }

    #[test]
    fn zero_size_files_are_small_and_counted() {
        let mut m = WorkloadMonitor::new(1024);
        assert_eq!(m.classify(0), DataClass::SmallFile);
        assert_eq!(m.files_seen(), 1);
    }

    #[test]
    fn histogram_summary_renders_buckets_and_tier_markers() {
        let mut m = WorkloadMonitor::new(1 << 20);
        for _ in 0..10 {
            m.classify(4 * 1024);
        }
        m.classify(8 << 20);
        let text = m.histogram_summary();
        assert!(text.contains("4KB"));
        assert!(text.contains("8MB"));
        assert!(text.contains("(erasure tier)"));
        assert!(text.lines().count() == 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = WorkloadMonitor::new(0);
    }
}
