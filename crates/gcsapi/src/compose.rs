//! Virtual-time composition of operation reports.
//!
//! HyRD's performance argument is about *who waits for what*: an
//! erasure-coded large read issues one Get per provider **in parallel**,
//! so the user waits for the slowest branch (max), while a RAID5
//! read-modify-write needs a read round **then** a write round (sum of
//! two maxes). These combinators are the single place that arithmetic
//! lives, shared by every scheme and every experiment.

use std::time::Duration;

use crate::types::OpReport;

/// Latency of a set of operations issued concurrently: the slowest branch.
pub fn parallel_latency(reports: &[OpReport]) -> Duration {
    reports.iter().map(|r| r.latency).max().unwrap_or(Duration::ZERO)
}

/// Latency of operations issued back-to-back: the sum.
pub fn serial_latency(reports: &[OpReport]) -> Duration {
    reports.iter().map(|r| r.latency).sum()
}

/// Aggregated view of a batch of op reports — the unit the experiments
/// collect (one batch per user-visible request).
///
/// ```
/// use std::time::Duration;
/// use hyrd_gcsapi::{BatchReport, OpKind, OpReport, ProviderId};
///
/// let op = |ms| OpReport {
///     provider: ProviderId(0),
///     kind: OpKind::Get,
///     latency: Duration::from_millis(ms),
///     bytes_in: 0,
///     bytes_out: 0,
/// };
/// // A parallel fragment fan-out waits for the slowest branch...
/// let reads = BatchReport::parallel(vec![op(10), op(25), op(15)]);
/// assert_eq!(reads.latency, Duration::from_millis(25));
/// // ...and a read-modify-write adds its write round on top.
/// let writes = BatchReport::parallel(vec![op(30), op(20)]);
/// assert_eq!(reads.then(writes).latency, Duration::from_millis(55));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// User-perceived latency of the whole batch.
    pub latency: Duration,
    /// All underlying reports, for byte/op accounting.
    pub ops: Vec<OpReport>,
}

impl BatchReport {
    /// An empty batch (zero latency, no ops).
    pub fn empty() -> Self {
        BatchReport::default()
    }

    /// Builds a batch whose ops ran concurrently.
    pub fn parallel(ops: Vec<OpReport>) -> Self {
        let latency = parallel_latency(&ops);
        BatchReport { latency, ops }
    }

    /// Builds a batch whose ops ran serially.
    pub fn serial(ops: Vec<OpReport>) -> Self {
        let latency = serial_latency(&ops);
        BatchReport { latency, ops }
    }

    /// Appends another batch that ran *after* this one (latencies add).
    pub fn then(mut self, next: BatchReport) -> Self {
        self.latency += next.latency;
        if self.ops.is_empty() {
            self.ops = next.ops;
        } else {
            self.ops.extend(next.ops);
        }
        self
    }

    /// Merges another batch that ran *concurrently* with this one
    /// (latency is the max of the two).
    pub fn alongside(mut self, other: BatchReport) -> Self {
        self.latency = self.latency.max(other.latency);
        self.ops.extend(other.ops);
        self
    }

    /// Merges ops that ran in the *background* (they cost bytes and
    /// transactions but do not extend the user-perceived latency) —
    /// e.g. HyRD's hot-file cache fills or recovery replay traffic
    /// charged against a foreground request.
    pub fn with_background(mut self, other: BatchReport) -> Self {
        self.ops.extend(other.ops);
        self
    }

    /// Total bytes uploaded across all ops.
    pub fn bytes_in(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes_in).sum()
    }

    /// Total bytes downloaded across all ops.
    pub fn bytes_out(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes_out).sum()
    }

    /// Number of underlying provider operations (the paper's
    /// "4 accesses" write-amplification metric).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpKind, ProviderId};

    fn rep(ms: u64, bytes_in: u64, bytes_out: u64) -> OpReport {
        OpReport {
            provider: ProviderId(0),
            kind: OpKind::Get,
            latency: Duration::from_millis(ms),
            bytes_in,
            bytes_out,
        }
    }

    #[test]
    fn parallel_takes_max() {
        let ops = vec![rep(10, 0, 0), rep(30, 0, 0), rep(20, 0, 0)];
        assert_eq!(parallel_latency(&ops), Duration::from_millis(30));
        let b = BatchReport::parallel(ops);
        assert_eq!(b.latency, Duration::from_millis(30));
        assert_eq!(b.op_count(), 3);
    }

    #[test]
    fn serial_takes_sum() {
        let ops = vec![rep(10, 0, 0), rep(30, 0, 0)];
        assert_eq!(serial_latency(&ops), Duration::from_millis(40));
        assert_eq!(BatchReport::serial(ops).latency, Duration::from_millis(40));
    }

    #[test]
    fn empty_batches_are_zero() {
        assert_eq!(parallel_latency(&[]), Duration::ZERO);
        assert_eq!(serial_latency(&[]), Duration::ZERO);
        assert_eq!(BatchReport::empty().latency, Duration::ZERO);
    }

    #[test]
    fn then_adds_alongside_maxes() {
        let a = BatchReport::parallel(vec![rep(10, 1, 0), rep(20, 2, 0)]);
        let b = BatchReport::parallel(vec![rep(15, 0, 4)]);
        let serial = a.clone().then(b.clone());
        assert_eq!(serial.latency, Duration::from_millis(35));
        assert_eq!(serial.bytes_in(), 3);
        assert_eq!(serial.bytes_out(), 4);
        let conc = a.alongside(b);
        assert_eq!(conc.latency, Duration::from_millis(20));
        assert_eq!(conc.op_count(), 3);
    }

    #[test]
    fn background_ops_do_not_extend_latency() {
        let fg = BatchReport::parallel(vec![rep(10, 0, 8)]);
        let bg = BatchReport::parallel(vec![rep(500, 64, 0)]);
        let combined = fg.with_background(bg);
        assert_eq!(combined.latency, Duration::from_millis(10));
        assert_eq!(combined.op_count(), 2);
        assert_eq!(combined.bytes_in(), 64);
    }

    #[test]
    fn rmw_pattern_is_two_rounds() {
        // Model the paper's small update: read(data, parity) then
        // write(data, parity): latency = max(reads) + max(writes).
        let reads = BatchReport::parallel(vec![rep(12, 0, 64), rep(18, 0, 64)]);
        let writes = BatchReport::parallel(vec![rep(25, 64, 0), rep(22, 64, 0)]);
        let total = reads.then(writes);
        assert_eq!(total.latency, Duration::from_millis(43));
        assert_eq!(total.op_count(), 4); // the famous 4 accesses
    }
}
