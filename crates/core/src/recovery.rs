//! Outage recovery: the update log and the consistency-update phase.
//!
//! §III-C: "recovery in case of service outage in HyRD includes two
//! phases: (1) reconstruction on-demand during the unavailable period and
//! (2) consistency update upon service's return to the normal state.
//! During the service unavailable period, all the write/update operations
//! are performed as usual. For the update operations, the changes are
//! logged … Upon the unavailable provider's return to the normal state,
//! the recorded write/update logs will perform the consistency updates on
//! the returned provider."
//!
//! Phase (1) lives in the dispatcher's read path (degraded reads); this
//! module is phase (2): the per-provider log of writes the provider
//! missed, and its replay.

use bytes::Bytes;

use hyrd_gcsapi::{BatchReport, CloudError, CloudStorage, ObjectKey, ProviderId};

/// One write a provider missed while unavailable.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// The provider missed a Put of this object.
    Put {
        /// Target object.
        key: ObjectKey,
        /// The bytes it should hold.
        data: Bytes,
    },
    /// The provider missed a Remove of this object.
    Remove {
        /// Target object.
        key: ObjectKey,
    },
}

impl LogRecord {
    /// The object the record concerns.
    pub fn key(&self) -> &ObjectKey {
        match self {
            LogRecord::Put { key, .. } | LogRecord::Remove { key } => key,
        }
    }
}

/// What a consistency-update replay accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Puts replayed onto the returned provider.
    pub puts_replayed: u64,
    /// Removes replayed.
    pub removes_replayed: u64,
    /// Bytes uploaded during replay (the recovery network traffic the
    /// paper contrasts against erasure-code rebuild traffic).
    pub bytes_restored: u64,
}

/// The write/update log, keyed by the provider that missed the write.
///
/// Later records supersede earlier ones for the same object, so replay
/// applies only the final state of each object (the log is compacted on
/// append).
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    records: Vec<(ProviderId, LogRecord)>,
}

impl UpdateLog {
    /// An empty log.
    pub fn new() -> Self {
        UpdateLog::default()
    }

    fn supersede(&mut self, provider: ProviderId, key: &ObjectKey) -> bool {
        let before = self.records.len();
        self.records.retain(|(p, r)| !(*p == provider && r.key() == key));
        self.records.len() < before
    }

    /// Discharges the pending record for `key` on `provider`, if there is
    /// one (the return value says so): a newer mutation of the object
    /// has since landed there, so replaying the record would undo it —
    /// re-ship older bytes over newer ones, or remove a live copy.
    pub fn discharge(&mut self, provider: ProviderId, key: &ObjectKey) -> bool {
        self.supersede(provider, key)
    }

    /// Logs a missed Put.
    pub fn log_put(&mut self, provider: ProviderId, key: ObjectKey, data: Bytes) {
        self.supersede(provider, &key);
        self.records.push((provider, LogRecord::Put { key, data }));
    }

    /// Logs a missed Remove.
    pub fn log_remove(&mut self, provider: ProviderId, key: ObjectKey) {
        self.supersede(provider, &key);
        self.records.push((provider, LogRecord::Remove { key }));
    }

    /// All pending records in append order, for journaling and audit.
    pub fn records(&self) -> &[(ProviderId, LogRecord)] {
        &self.records
    }

    /// Keeps only the records the predicate accepts (restart GC drops
    /// pending puts for objects no longer referenced by any inode).
    pub fn retain_records(&mut self, mut keep: impl FnMut(ProviderId, &LogRecord) -> bool) {
        self.records.retain(|(p, r)| keep(*p, r));
    }

    /// Number of pending records across providers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Pending records for one provider, in order.
    pub fn pending_for(&self, provider: ProviderId) -> Vec<&LogRecord> {
        self.records.iter().filter(|(p, _)| *p == provider).map(|(_, r)| r).collect()
    }

    /// Whether `provider` has a pending record for `key` — i.e. whatever
    /// the provider currently stores under `key` is stale and must not
    /// serve reads.
    pub fn is_pending(&self, provider: ProviderId, key: &ObjectKey) -> bool {
        self.records.iter().any(|(p, r)| *p == provider && r.key() == key)
    }

    /// Providers with at least one pending record, sorted and deduped.
    pub fn pending_providers(&self) -> Vec<ProviderId> {
        let mut ids: Vec<ProviderId> = self.records.iter().map(|(p, _)| *p).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Replays the log onto a returned provider ("when the logs are
    /// completely processed, the recovery process completes"). On
    /// success the provider's records are dropped from the log.
    ///
    /// Replayed removes tolerate `NoSuchObject` (the object may never
    /// have reached the provider). If the provider is *still*
    /// unavailable, the log is left intact and the error returned.
    pub fn replay(
        &mut self,
        provider: &dyn CloudStorage,
    ) -> Result<(RecoveryReport, BatchReport), CloudError> {
        let id = provider.id();
        let mut report = RecoveryReport::default();
        let mut ops = Vec::new();

        for (_, record) in self.records.iter().filter(|(p, _)| *p == id) {
            match record {
                LogRecord::Put { key, data } => {
                    let out = provider.put(key, data.clone())?;
                    report.puts_replayed += 1;
                    report.bytes_restored += data.len() as u64;
                    ops.push(out.report);
                }
                LogRecord::Remove { key } => match provider.remove(key) {
                    Ok(out) => {
                        report.removes_replayed += 1;
                        ops.push(out.report);
                    }
                    Err(CloudError::NoSuchObject { .. }) => {
                        report.removes_replayed += 1;
                    }
                    Err(e) => return Err(e),
                },
            }
        }
        self.records.retain(|(p, _)| *p != id);
        // Replay is a background serial stream (it must not hammer the
        // returned provider), so latencies sum.
        Ok((report, BatchReport::serial(ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_gcsapi::MemoryCloud;

    fn key(name: &str) -> ObjectKey {
        ObjectKey::new("hyrd", name)
    }

    #[test]
    fn log_compaction_keeps_only_final_state() {
        let mut log = UpdateLog::new();
        let p = ProviderId(0);
        log.log_put(p, key("a"), Bytes::from_static(b"v1"));
        log.log_put(p, key("a"), Bytes::from_static(b"v2"));
        assert_eq!(log.len(), 1);
        match log.pending_for(p)[0] {
            LogRecord::Put { data, .. } => assert_eq!(&data[..], b"v2"),
            _ => panic!("expected put"),
        }
        // Remove supersedes puts.
        log.log_remove(p, key("a"));
        assert_eq!(log.len(), 1);
        assert!(matches!(log.pending_for(p)[0], LogRecord::Remove { .. }));
    }

    #[test]
    fn discharge_drops_only_the_named_record() {
        let mut log = UpdateLog::new();
        let p = ProviderId(0);
        log.log_put(p, key("a"), Bytes::from_static(b"v1"));
        log.log_put(p, key("b"), Bytes::from_static(b"v1"));
        log.log_put(ProviderId(1), key("a"), Bytes::from_static(b"v1"));
        assert!(log.discharge(p, &key("a")));
        assert!(!log.is_pending(p, &key("a")));
        assert!(log.is_pending(p, &key("b")));
        assert!(log.is_pending(ProviderId(1), &key("a")));
        // Discharging an absent record is a no-op, and says so.
        assert!(!log.discharge(p, &key("zzz")));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn logs_are_per_provider() {
        let mut log = UpdateLog::new();
        log.log_put(ProviderId(0), key("a"), Bytes::from_static(b"x"));
        log.log_put(ProviderId(1), key("a"), Bytes::from_static(b"x"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.pending_for(ProviderId(0)).len(), 1);
        assert_eq!(log.pending_for(ProviderId(1)).len(), 1);
        assert_eq!(log.pending_providers(), vec![ProviderId(0), ProviderId(1)]);
        assert!(log.is_pending(ProviderId(0), &key("a")));
        assert!(!log.is_pending(ProviderId(0), &key("b")));
        assert!(!log.is_pending(ProviderId(2), &key("a")));
    }

    #[test]
    fn replay_applies_puts_and_removes_then_clears() {
        let cloud = MemoryCloud::new(ProviderId(3), "returned");
        cloud.create("hyrd").unwrap();
        // Object that must be removed during replay.
        cloud.put(&key("stale"), Bytes::from_static(b"old")).unwrap();

        let mut log = UpdateLog::new();
        log.log_put(ProviderId(3), key("new"), Bytes::from_static(b"fresh"));
        log.log_remove(ProviderId(3), key("stale"));
        log.log_remove(ProviderId(3), key("never-existed"));
        // A record for another provider must survive the replay.
        log.log_put(ProviderId(9), key("other"), Bytes::from_static(b"x"));

        let (report, batch) = log.replay(&cloud).unwrap();
        assert_eq!(report.puts_replayed, 1);
        assert_eq!(report.removes_replayed, 2);
        assert_eq!(report.bytes_restored, 5);
        assert!(batch.op_count() >= 2);

        assert_eq!(&cloud.get(&key("new")).unwrap().value[..], b"fresh");
        assert!(cloud.get(&key("stale")).is_err());
        assert_eq!(log.len(), 1, "other provider's record remains");
        assert_eq!(log.pending_for(ProviderId(9)).len(), 1);
    }

    #[test]
    fn replay_on_empty_log_is_a_noop() {
        let cloud = MemoryCloud::new(ProviderId(0), "p");
        cloud.create("hyrd").unwrap();
        let mut log = UpdateLog::new();
        let (report, batch) = log.replay(&cloud).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(batch.op_count(), 0);
    }
}
