//! Per-provider operation statistics, accumulated lock-free.
//!
//! Every simulated provider keeps an [`OpStats`] of the ops it served
//! (`SimProvider::stats`), and the perf ledger reads its per-provider
//! op/byte counts from the same snapshots. The tallies are relaxed
//! atomics — counts are monotonic tallies with no cross-counter
//! invariants to order, so `Relaxed` is the correct (and cheapest)
//! ordering per the Rust memory model.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::types::OpKind;

/// Lock-free tally of operations through one provider.
#[derive(Debug, Default)]
pub struct OpStats {
    list: AtomicU64,
    get: AtomicU64,
    create: AtomicU64,
    put: AtomicU64,
    remove: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency_ns: AtomicU64,
}

/// A point-in-time copy of [`OpStats`], cheap to diff and print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// List op count.
    pub list: u64,
    /// Get op count.
    pub get: u64,
    /// Create op count.
    pub create: u64,
    /// Put op count.
    pub put: u64,
    /// Remove op count.
    pub remove: u64,
    /// Failed op count (any kind).
    pub errors: u64,
    /// Total bytes uploaded.
    pub bytes_in: u64,
    /// Total bytes downloaded.
    pub bytes_out: u64,
    /// Sum of op latencies in nanoseconds (virtual time in simulation).
    pub latency_ns: u64,
}

impl StatsSnapshot {
    /// Total successful op count.
    pub fn total_ops(&self) -> u64 {
        self.list + self.get + self.create + self.put + self.remove
    }

    /// Ops in Table II's Put/Copy/Post/List billing class.
    pub fn put_class_ops(&self) -> u64 {
        self.list + self.create + self.put
    }

    /// Ops in Table II's "Get and others" billing class.
    pub fn get_class_ops(&self) -> u64 {
        self.get + self.remove
    }

    /// Element-wise difference (`self - earlier`), for interval deltas.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            list: self.list - earlier.list,
            get: self.get - earlier.get,
            create: self.create - earlier.create,
            put: self.put - earlier.put,
            remove: self.remove - earlier.remove,
            errors: self.errors - earlier.errors,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            latency_ns: self.latency_ns - earlier.latency_ns,
        }
    }
}

impl OpStats {
    fn counter(&self, kind: OpKind) -> &AtomicU64 {
        match kind {
            OpKind::List => &self.list,
            OpKind::Get => &self.get,
            OpKind::Create => &self.create,
            OpKind::Put => &self.put,
            OpKind::Remove => &self.remove,
        }
    }

    /// Records a successful operation's report.
    pub fn record_ok(&self, report: &crate::types::OpReport) {
        self.counter(report.kind).fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(report.bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(report.bytes_out, Ordering::Relaxed);
        self.latency_ns.fetch_add(report.latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a failed operation.
    pub fn record_err(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Credits back the unused portion of a cancelled op that was
    /// previously recorded via [`OpStats::record_ok`]: the op count
    /// stands (the request was issued), but `bytes_out` were never
    /// delivered and only part of the latency elapsed before the abort.
    pub fn credit_cancelled(&self, bytes_out: u64, latency_ns: u64) {
        self.bytes_out.fetch_sub(bytes_out, Ordering::Relaxed);
        self.latency_ns.fetch_sub(latency_ns, Ordering::Relaxed);
    }

    /// Copies the current tallies.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            list: self.list.load(Ordering::Relaxed),
            get: self.get.load(Ordering::Relaxed),
            create: self.create.load(Ordering::Relaxed),
            put: self.put.load(Ordering::Relaxed),
            remove: self.remove.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            latency_ns: self.latency_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    use crate::error::CloudResult;
    use crate::storage::{CloudStorage, MemoryCloud};
    use crate::types::{ObjectKey, OpOutcome, ProviderId};

    /// Tallies one op's result into `stats` and hands it back.
    fn tally<T>(stats: &OpStats, result: CloudResult<OpOutcome<T>>) -> CloudResult<OpOutcome<T>> {
        match &result {
            Ok(out) => stats.record_ok(&out.report),
            Err(_) => stats.record_err(),
        }
        result
    }

    #[test]
    fn counts_every_op_kind_and_bytes() {
        let (c, stats) = (MemoryCloud::new(ProviderId(0), "mem"), OpStats::default());
        tally(&stats, c.create("data")).unwrap();
        let key = ObjectKey::new("data", "k");
        tally(&stats, c.put(&key, Bytes::from(vec![0u8; 100]))).unwrap();
        tally(&stats, c.get(&key)).unwrap();
        tally(&stats, c.get(&key)).unwrap();
        tally(&stats, c.list("data")).unwrap();
        tally(&stats, c.remove(&key)).unwrap();

        let s = stats.snapshot();
        assert_eq!(s.create, 1);
        assert_eq!(s.put, 1);
        assert_eq!(s.get, 2);
        assert_eq!(s.list, 1);
        assert_eq!(s.remove, 1);
        assert_eq!(s.total_ops(), 6);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 200);
        assert_eq!(s.errors, 0);
        assert_eq!(s.put_class_ops(), 3);
        assert_eq!(s.get_class_ops(), 3);
    }

    #[test]
    fn errors_counted_separately() {
        let (c, stats) = (MemoryCloud::new(ProviderId(0), "mem"), OpStats::default());
        let key = ObjectKey::new("missing", "k");
        assert!(tally(&stats, c.get(&key)).is_err());
        assert!(tally(&stats, c.remove(&key)).is_err());
        let s = stats.snapshot();
        assert_eq!(s.errors, 2);
        assert_eq!(s.total_ops(), 0);
    }

    #[test]
    fn delta_since_isolates_an_interval() {
        let (c, stats) = (MemoryCloud::new(ProviderId(0), "mem"), OpStats::default());
        tally(&stats, c.create("data")).unwrap();
        let before = stats.snapshot();
        tally(&stats, c.put(&ObjectKey::new("data", "a"), Bytes::from(vec![1u8; 10]))).unwrap();
        let d = stats.snapshot().delta_since(&before);
        assert_eq!(d.put, 1);
        assert_eq!(d.create, 0);
        assert_eq!(d.bytes_in, 10);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        use std::sync::Arc;
        let c = Arc::new((MemoryCloud::new(ProviderId(0), "mem"), OpStats::default()));
        tally(&c.1, c.0.create("data")).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let (cloud, stats) = &*c;
                    for i in 0..100 {
                        let key = ObjectKey::new("data", format!("{t}-{i}"));
                        tally(stats, cloud.put(&key, Bytes::from(vec![0u8; 8]))).unwrap();
                        tally(stats, cloud.get(&key)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.1.snapshot();
        assert_eq!(s.put, 800);
        assert_eq!(s.get, 800);
        assert_eq!(s.bytes_in, 6400);
        assert_eq!(s.bytes_out, 6400);
    }
}
