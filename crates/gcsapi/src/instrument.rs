//! Per-provider operation statistics.
//!
//! Every simulated provider tallies the ops it served into a
//! [`StatsSnapshot`] it keeps under its own lock (`SimProvider::stats`
//! hands out a copy), and the perf ledger reads its per-provider op/byte
//! counts from the same copies. The tallies are plain integers: the
//! provider's one critical section per op already orders them.

use crate::types::{OpKind, OpReport};

/// Operation tallies of one provider, cheap to copy, diff and print.
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

    fn counter(&mut self, kind: OpKind) -> &mut u64 {
        match kind {
            OpKind::List => &mut self.list,
            OpKind::Get => &mut self.get,
            OpKind::Create => &mut self.create,
            OpKind::Put => &mut self.put,
            OpKind::Remove => &mut self.remove,
        }
    }

    /// Records a successful operation's report.
    pub fn record_ok(&mut self, report: &OpReport) {
        *self.counter(report.kind) += 1;
        self.bytes_in += report.bytes_in;
        self.bytes_out += report.bytes_out;
        self.latency_ns += report.latency.as_nanos() as u64;
    }

    /// Records a failed operation.
    pub fn record_err(&mut self) {
        self.errors += 1;
    }

    /// Credits back the unused portion of a cancelled op that was
    /// previously recorded via [`StatsSnapshot::record_ok`]: the op count
    /// stands (the request was issued), but `bytes_out` were never
    /// delivered and only part of the latency elapsed before the abort.
    /// The subtraction wraps, as the atomic tallies this replaced did,
    /// so an over-credit never panics a debug build.
    pub fn credit_cancelled(&mut self, bytes_out: u64, latency_ns: u64) {
        self.bytes_out = self.bytes_out.wrapping_sub(bytes_out);
        self.latency_ns = self.latency_ns.wrapping_sub(latency_ns);
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
    fn tally<T>(
        stats: &mut StatsSnapshot,
        result: CloudResult<OpOutcome<T>>,
    ) -> CloudResult<OpOutcome<T>> {
        match &result {
            Ok(out) => stats.record_ok(&out.report),
            Err(_) => stats.record_err(),
        }
        result
    }

    #[test]
    fn counts_every_op_kind_and_bytes() {
        let (c, mut stats) = (MemoryCloud::new(ProviderId(0), "mem"), StatsSnapshot::default());
        tally(&mut stats, c.create("data")).unwrap();
        let key = ObjectKey::new("data", "k");
        tally(&mut stats, c.put(&key, Bytes::from(vec![0u8; 100]))).unwrap();
        tally(&mut stats, c.get(&key)).unwrap();
        tally(&mut stats, c.get(&key)).unwrap();
        tally(&mut stats, c.list("data")).unwrap();
        tally(&mut stats, c.remove(&key)).unwrap();

        assert_eq!(stats.create, 1);
        assert_eq!(stats.put, 1);
        assert_eq!(stats.get, 2);
        assert_eq!(stats.list, 1);
        assert_eq!(stats.remove, 1);
        assert_eq!(stats.total_ops(), 6);
        assert_eq!(stats.bytes_in, 100);
        assert_eq!(stats.bytes_out, 200);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.put_class_ops(), 3);
        assert_eq!(stats.get_class_ops(), 3);
    }

    #[test]
    fn errors_counted_separately() {
        let (c, mut stats) = (MemoryCloud::new(ProviderId(0), "mem"), StatsSnapshot::default());
        let key = ObjectKey::new("missing", "k");
        assert!(tally(&mut stats, c.get(&key)).is_err());
        assert!(tally(&mut stats, c.remove(&key)).is_err());
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.total_ops(), 0);
    }

    #[test]
    fn credit_cancelled_wraps_instead_of_panicking() {
        let mut stats = StatsSnapshot { bytes_out: 10, latency_ns: 5, ..StatsSnapshot::default() };
        stats.credit_cancelled(4, 5);
        assert_eq!((stats.bytes_out, stats.latency_ns), (6, 0));
        stats.credit_cancelled(7, 1);
        assert_eq!((stats.bytes_out, stats.latency_ns), (u64::MAX, u64::MAX));
    }

    #[test]
    fn delta_since_isolates_an_interval() {
        let (c, mut stats) = (MemoryCloud::new(ProviderId(0), "mem"), StatsSnapshot::default());
        tally(&mut stats, c.create("data")).unwrap();
        let before = stats;
        tally(&mut stats, c.put(&ObjectKey::new("data", "a"), Bytes::from(vec![1u8; 10]))).unwrap();
        let d = stats.delta_since(&before);
        assert_eq!(d.put, 1);
        assert_eq!(d.create, 0);
        assert_eq!(d.bytes_in, 10);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        use std::sync::{Arc, Mutex};
        let c = Arc::new((MemoryCloud::new(ProviderId(0), "mem"), Mutex::default()));
        tally(&mut c.1.lock().unwrap(), c.0.create("data")).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let (cloud, stats) = &*c;
                    for i in 0..100 {
                        let key = ObjectKey::new("data", format!("{t}-{i}"));
                        let put = cloud.put(&key, Bytes::from(vec![0u8; 8]));
                        tally(&mut stats.lock().unwrap(), put).unwrap();
                        let get = cloud.get(&key);
                        tally(&mut stats.lock().unwrap(), get).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s: StatsSnapshot = *c.1.lock().unwrap();
        assert_eq!(s.put, 800);
        assert_eq!(s.get, 800);
        assert_eq!(s.bytes_in, 6400);
        assert_eq!(s.bytes_out, 6400);
    }
}
