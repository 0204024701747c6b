//! The crash journal: the dispatcher's one recovery state — the update
//! log — plus per-operation intents.
//!
//! The paper's prototype keeps the update log in client memory; a client
//! crash would lose it and strand the fleet with unhealed replicas and
//! half-written stripes. This module is its only home, modelled as the
//! durable journal a production client would keep on local stable
//! storage:
//!
//! * the [`UpdateLog`], under one lock: every write a provider missed,
//!   whole objects and the windows of ranged erasure-coded updates
//!   alike. Every mutation is a journal method that fires the `wal.sync`
//!   crashpoint and only then applies the change: a crash at that
//!   boundary loses exactly the one mutation, which the operation's
//!   still-uncommitted intent re-creates when it is rolled forward;
//! * **intents**: one record per mutating operation, appended before the
//!   operation's first provider write and committed when the operation
//!   returns. An intent found at restart is rolled forward (updates,
//!   deletes) or rolled back (creates) by [`Hyrd::restart`](crate::Hyrd::restart)
//!   (see `restart.rs`).
//!
//! Every client has a journal; a cheap-clone handle shares it, which is
//! how a restarted client takes over the log of the one that died. What the crash harness adds is only the fleet's
//! [`CrashSwitch`], attached by [`Hyrd::with_journal`](crate::Hyrd::with_journal).
//! Intents and crashpoints are live only with a switch attached, so an
//! ordinary client builds no intent and counts no crashpoint. A live
//! journal fires the named crashpoints (`wal.append.pre/post`,
//! `wal.amend.pre/post`, `wal.commit.pre/post`, `wal.sync`,
//! `meta.flush.pre/post`) by panicking with
//! [`ClientCrashed`](crate::crashtest::ClientCrashed) — the simulated
//! process death the harness catches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bytes::Bytes;

use hyrd_gcsapi::sync::lock;

use hyrd_cloudsim::CrashSwitch;
use hyrd_gcsapi::{BatchReport, CloudError, CloudStorage, ObjectKey, ProviderId};
use hyrd_telemetry::Collector;

use crate::bootstrap::is_meta_object;
use crate::recovery::{LogRecord, RecoveryReport, UpdateLog};

/// One planned range write of an erasure-coded update: enough to redo
/// the write verbatim at restart (range puts are idempotent).
#[derive(Debug, Clone, PartialEq)]
pub struct FragWrite {
    /// Fragment index within the stripe (data or parity).
    pub index: usize,
    /// Provider holding the fragment.
    pub provider: ProviderId,
    /// Fragment object name.
    pub object: Arc<str>,
    /// Byte offset of the range within the fragment.
    pub offset: u64,
    /// The bytes the range must hold after the update.
    pub bytes: Bytes,
}

/// A journaled operation intent. Appended before the operation's first
/// provider write; committed (removed) when the operation returns —
/// whatever is left at restart is the set of operations in flight when
/// the client died.
#[derive(Debug, Clone)]
pub enum Intent {
    /// A create was in flight: the named objects may exist on any subset
    /// of the named providers, and the file may or may not be in the
    /// metadata. Rolled *back*: the objects are removed and the file
    /// erased — the caller never got an ack, so absence is the clean
    /// outcome.
    Create {
        /// File path being created.
        path: String,
        /// Every (provider, object) the create was going to write.
        objects: Vec<(ProviderId, Arc<str>)>,
    },
    /// A replicated (small-file) update was in flight. Rolled *forward*:
    /// the full new content is in the intent, so re-putting it to every
    /// replica is idempotent and converges all replicas on the new
    /// version.
    UpdateReplicated {
        /// File path being updated.
        path: String,
        /// Replica object name.
        object: Arc<str>,
        /// Replica providers.
        providers: Vec<ProviderId>,
        /// The complete new object content.
        bytes: Bytes,
    },
    /// An erasure-coded ranged update was in flight. `writes` is empty
    /// until the update engine has computed its delta (the WAL hook in
    /// `ecops` amends it in); empty writes at restart mean the crash
    /// landed before any range write, so there is nothing to redo —
    /// the stripe (and any hot copy) is still the old version. Non-empty
    /// writes are rolled *forward* by redoing every range put.
    UpdateErasure {
        /// File path being updated.
        path: String,
        /// The complete planned write set, or empty if not yet planned.
        writes: Vec<FragWrite>,
        /// Hot copy to invalidate once the stripe holds the new bytes.
        hot_remove: Option<(ProviderId, Arc<str>)>,
    },
    /// A delete was in flight. Rolled *forward*: finish removing the
    /// objects and the metadata entry.
    Delete {
        /// File path being deleted.
        path: String,
        /// Every (provider, object) the delete must remove.
        objects: Vec<(ProviderId, Arc<str>)>,
    },
    /// A policy migration (scheme change) was in flight. Resolution is
    /// decided by the *recovered metadata*: the flip through the
    /// metastore is the commit point, and it is flushed durable before
    /// any old object is garbage-collected. If the recovered placement
    /// references any of `new_objects`, the flip committed — roll
    /// *forward* by finishing the GC of `old_objects`; otherwise the
    /// flip never happened — roll *back* by removing the staged
    /// `new_objects`. Either way exactly one placement's objects
    /// survive, so reads never see a torn scheme.
    Migrate {
        /// File path being migrated.
        path: String,
        /// The staged objects of the new placement.
        new_objects: Vec<(ProviderId, Arc<str>)>,
        /// The objects of the old placement, doomed once the flip lands.
        old_objects: Vec<(ProviderId, Arc<str>)>,
    },
}

impl Intent {
    /// The file path the intent concerns (for reports and logs).
    pub fn path(&self) -> &str {
        match self {
            Intent::Create { path, .. }
            | Intent::UpdateReplicated { path, .. }
            | Intent::UpdateErasure { path, .. }
            | Intent::Delete { path, .. }
            | Intent::Migrate { path, .. } => path,
        }
    }
}

#[derive(Debug, Default)]
struct JournalState {
    log: UpdateLog,
    intents: BTreeMap<u64, Intent>,
    next_seq: u64,
}

#[derive(Debug, Default)]
struct JournalInner {
    state: Mutex<JournalState>,
    /// The fleet's crash switch, attached once.
    switch: OnceLock<Arc<CrashSwitch>>,
}

/// A handle on the crash journal (see module docs). Cloning shares the
/// underlying journal.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    /// An empty journal with no crash switch.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Attaches the fleet's crash switch, which makes intents and
    /// crashpoints live. Installed by
    /// [`Hyrd::with_journal`](crate::Hyrd::with_journal), again on each
    /// restart over the same fleet: a journal serves one fleet, so the
    /// first switch attached stays.
    pub fn set_crash_switch(&self, switch: Arc<CrashSwitch>) {
        let attached = self.inner.switch.get_or_init(|| switch.clone());
        debug_assert!(Arc::ptr_eq(attached, &switch), "a journal serves one fleet");
    }

    /// Whether a crash switch is attached: only then are intents built
    /// and crashpoints counted.
    pub fn live(&self) -> bool {
        self.inner.switch.get().is_some()
    }

    /// Declares a named crashpoint. If the attached switch's plan fires
    /// here, the client dies on the spot: the method panics with
    /// [`ClientCrashed`](crate::crashtest::ClientCrashed), which the
    /// crash harness catches as the simulated process death.
    pub fn crashpoint(&self, name: &str) {
        if self.inner.switch.get().is_some_and(|switch| switch.at_point(name)) {
            std::panic::panic_any(crate::crashtest::ClientCrashed);
        }
    }

    fn state(&self) -> MutexGuard<'_, JournalState> {
        lock(&self.inner.state)
    }

    /// The write-ahead boundary of every recovery-state mutation:
    /// `wal.sync` fires, then `change` runs under the lock.
    fn apply<R>(&self, change: impl FnOnce(&mut JournalState) -> R) -> R {
        self.crashpoint("wal.sync");
        change(&mut self.state())
    }

    /// Appends an operation intent (crashpoints `wal.append.pre` /
    /// `wal.append.post` fire around the append). Returns a guard that
    /// commits the intent on every normal exit of the operation — and
    /// deliberately does *not* commit while unwinding from a crash.
    ///
    /// The intent is built by `intent` only on a live journal: an
    /// ordinary client never pays for the paths, object lists and
    /// payload handles an intent owns.
    pub fn begin(&self, intent: impl FnOnce() -> Intent) -> IntentGuard<'_> {
        let mut seq = 0;
        if self.live() {
            let intent = intent();
            self.crashpoint("wal.append.pre");
            let mut state = self.state();
            seq = state.next_seq;
            state.next_seq += 1;
            state.intents.insert(seq, intent);
            drop(state);
            self.crashpoint("wal.append.post");
        }
        IntentGuard { journal: self, seq }
    }

    /// Amends an [`Intent::UpdateErasure`] with its planned write set
    /// (crashpoints `wal.amend.pre` / `wal.amend.post`). Called by the
    /// WAL hook of `ecops::ranged_update_with` after the delta is
    /// computed, before the first range write.
    pub fn amend_update_writes(&self, seq: u64, writes: Vec<FragWrite>) {
        if self.live() {
            self.crashpoint("wal.amend.pre");
            if let Some(Intent::UpdateErasure { writes: w, .. }) =
                self.state().intents.get_mut(&seq)
            {
                *w = writes;
            }
            self.crashpoint("wal.amend.post");
        }
    }

    /// Commits (removes) an intent: the operation completed and its
    /// effects are fully described by ordinary state (metadata, the log). `wal.commit.pre` fires before the removal — a
    /// crash there must leave the intent for restart to resolve — and
    /// `wal.commit.post` after it.
    pub fn commit(&self, seq: u64) {
        if self.live() {
            self.crashpoint("wal.commit.pre");
            self.state().intents.remove(&seq);
            self.crashpoint("wal.commit.post");
        }
    }

    /// The unresolved intents in sequence order, for the restart path
    /// (which commits each one as it resolves it).
    pub(crate) fn intents(&self) -> Vec<(u64, Intent)> {
        self.state().intents.iter().map(|(seq, intent)| (*seq, intent.clone())).collect()
    }

    /// Unresolved intents (tests and reports).
    pub fn intent_count(&self) -> usize {
        self.state().intents.len()
    }

    // ------------------------------------------------------------------
    // The update log
    // ------------------------------------------------------------------

    /// Logs a Put that `provider` missed ([`UpdateLog::log_put`]).
    pub(crate) fn log_put(&self, provider: ProviderId, key: ObjectKey, data: Bytes) {
        self.apply(|s| s.log.log_put(provider, key, data));
    }

    /// Logs a Remove that `provider` missed ([`UpdateLog::log_remove`]).
    pub(crate) fn log_remove(&self, provider: ProviderId, key: ObjectKey) {
        self.apply(|s| s.log.log_remove(provider, key));
    }

    /// Logs the range writes of an erasure-coded update of `path` that
    /// missed their providers ([`UpdateLog::log_window`]) — one
    /// `wal.sync`, even for none: an erasure-coded update meets the
    /// boundary once.
    pub(crate) fn log_windows(&self, path: &Arc<str>, missed: impl IntoIterator<Item = FragWrite>) {
        self.apply(|s| missed.into_iter().for_each(|w| s.log.log_window(path, w)));
    }

    /// Discharges the pair's record ([`UpdateLog::discharge`]). A pair
    /// with no record is no mutation, so a quiet run meets no `wal.sync`
    /// here.
    pub(crate) fn discharge(&self, provider: ProviderId, key: &ObjectKey) {
        let mut state = self.state();
        if state.log.is_pending(provider, &key.name) {
            self.crashpoint("wal.sync");
            state.log.discharge(provider, key);
        }
    }

    /// Replays the log onto a returned provider ([`UpdateLog::replay`]).
    /// The lock is held across the replay so no concurrent write can
    /// append a record for the provider mid-drain, and the drained
    /// records leave only once every one of them has landed.
    pub(crate) fn replay(
        &self,
        provider: &dyn CloudStorage,
        telemetry: &Collector,
    ) -> Result<(RecoveryReport, BatchReport), CloudError> {
        self.apply(|s| s.log.replay(provider, telemetry))
    }

    /// Keeps only the records `keep` accepts; returns how many went.
    pub(crate) fn retain_log(&self, keep: impl FnMut(&LogRecord) -> bool) -> usize {
        self.apply(|s| {
            let before = s.log.len();
            s.log.retain_records(keep);
            before - s.log.len()
        })
    }

    /// The log's pending metadata puts by object name: a restarted
    /// client's bootstrap candidates besides what the providers list.
    pub(crate) fn meta_puts(&self) -> Vec<(Arc<str>, Bytes)> {
        let state = self.state();
        let puts = state.log.records().iter().filter_map(|(_, record)| match record {
            LogRecord::Put { key, data } if is_meta_object(&key.name) => {
                Some((Arc::clone(&key.name), data.clone()))
            }
            _ => None,
        });
        puts.collect()
    }

    /// Pending log records across providers.
    pub fn pending_len(&self) -> usize {
        self.state().log.len()
    }

    /// Fragment objects with window records pending
    /// ([`UpdateLog::window_objects`]).
    pub fn window_objects(&self) -> usize {
        self.state().log.window_objects()
    }

    /// Whether `provider`'s copy of `object` is stale and must serve no
    /// read, scrub or update base: the log holds a write the provider
    /// missed — a whole object, or a window of a fragment.
    pub(crate) fn stale(&self, provider: ProviderId, object: &str) -> bool {
        self.state().log.is_pending(provider, object)
    }
}

/// Commits its intent on drop — *unless* the thread is unwinding from a
/// crash panic, in which case the intent stays journaled for restart.
/// Holding the guard across the whole operation body makes every normal
/// exit (including `?` early returns) a commit without repeating the
/// call at each return site.
pub struct IntentGuard<'a> {
    journal: &'a Journal,
    seq: u64,
}

impl IntentGuard<'_> {
    /// The intent's journal sequence number (used to amend it).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Drop for IntentGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.journal.commit(self.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::{CrashPlan, Fleet, SimClock};
    use hyrd_telemetry::Collector;

    use crate::{Hyrd, HyrdConfig};

    fn create_intent(path: &str) -> Intent {
        Intent::Create { path: path.to_string(), objects: vec![(ProviderId(0), "o".into())] }
    }

    /// A journal with a fresh crash switch attached, and the switch.
    fn live() -> (Journal, Arc<CrashSwitch>) {
        let (j, switch) = (Journal::new(), Arc::new(CrashSwitch::new()));
        j.set_crash_switch(switch.clone());
        (j, switch)
    }

    fn key(name: &str) -> ObjectKey {
        ObjectKey::new("hyrd", name)
    }

    #[test]
    fn a_journal_with_no_switch_builds_no_intent_yet_holds_the_log() {
        let j = Journal::new();
        assert!(!j.live());
        let guard = j.begin(|| unreachable!("a journal with no switch builds no intent"));
        assert_eq!(guard.seq(), 0);
        drop(guard);
        j.crashpoint("meta.flush.pre");
        assert_eq!(j.intent_count(), 0);

        j.log_put(ProviderId(1), key("x"), Bytes::from_static(b"v"));
        let bytes = Bytes::from_static(b"w");
        let (provider, object) = (ProviderId(0), "a.f2".into());
        j.log_windows(&"/a".into(), [FragWrite { index: 2, provider, object, offset: 0, bytes }]);
        assert_eq!((j.pending_len(), j.window_objects()), (2, 1), "the log lives in the journal");
        assert!(j.stale(ProviderId(1), "x"));
        assert!(j.stale(ProviderId(0), "a.f2"));
        assert!(!j.stale(ProviderId(0), "a.f1"));
        j.discharge(ProviderId(1), &key("x"));
        j.discharge(ProviderId(0), &key("a.f2"));
        assert_eq!((j.pending_len(), j.window_objects()), (0, 0));
    }

    #[test]
    fn a_log_put_crashes_at_wal_sync_before_the_record_lands() {
        let (j, switch) = live();
        switch.arm(CrashPlan::at_point("wal.sync", 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.log_put(ProviderId(1), key("x"), Bytes::from_static(b"v"));
        }));
        assert!(result.is_err(), "the armed crashpoint kills the client");
        assert!(switch.crashed());
        assert_eq!(j.pending_len(), 0, "died before the record landed");
    }

    #[test]
    fn restart_sees_a_record_put_by_the_dead_client() {
        let fleet = Fleet::standard_four(SimClock::new());
        let config = HyrdConfig::default();
        let journal = Journal::new();
        let client =
            Hyrd::with_journal(&fleet, config.clone(), Collector::disabled(), journal.clone())
                .unwrap();
        client.create_file("/d/a.txt", &[1; 2048]).unwrap();
        let object = crate::scheme::object_name("/d/a.txt");
        let down = fleet
            .providers()
            .iter()
            .find(|p| p.object_inventory(Fleet::CONTAINER).iter().any(|(n, _)| **n == *object))
            .unwrap()
            .clone();
        down.force_down();
        client.update_file("/d/a.txt", 0, &[2; 16]).unwrap();
        drop(client);

        let (restarted, report) =
            Hyrd::restart(&fleet, config, Collector::disabled(), journal).unwrap();
        assert_eq!(report.log_records_restored, 1, "the missed replica put, less metadata");
        assert_eq!(restarted.pending_log_len(), 1);
        down.restore();
        restarted.recover_provider(down.id()).unwrap();
        assert_eq!(restarted.pending_log_len(), 0);
        let replica = down.get(&key(&object)).unwrap().value;
        assert_eq!(&replica[..16], &[2; 16], "the replay shipped the dead client's update");
    }

    #[test]
    fn guard_commits_on_normal_exit() {
        let (j, _switch) = live();
        {
            let _g = j.begin(|| create_intent("/a"));
            assert_eq!(j.intent_count(), 1);
        }
        assert_eq!(j.intent_count(), 0, "dropped guard committed the intent");
    }

    #[test]
    fn guard_keeps_intent_across_a_crash_panic() {
        let (j, _switch) = live();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = j.begin(|| create_intent("/a"));
            std::panic::panic_any(crate::crashtest::ClientCrashed);
        }));
        assert!(result.is_err());
        let intents = j.intents();
        assert_eq!(intents.len(), 1, "crash unwind must not commit");
        assert_eq!(intents[0].1.path(), "/a");
    }

    #[test]
    fn amend_fills_in_erasure_writes() {
        let (j, _switch) = live();
        let g = j.begin(|| Intent::UpdateErasure {
            path: "/big".into(),
            writes: Vec::new(),
            hot_remove: None,
        });
        j.amend_update_writes(
            g.seq(),
            vec![FragWrite {
                index: 3,
                provider: ProviderId(2),
                object: "big.f3".into(),
                offset: 128,
                bytes: Bytes::from_static(b"pp"),
            }],
        );
        match &j.intents()[0].1 {
            Intent::UpdateErasure { writes, .. } => {
                assert_eq!(writes.len(), 1);
                assert_eq!(writes[0].index, 3);
            }
            other => panic!("unexpected intent {other:?}"),
        }
        drop(g);
    }

    #[test]
    fn crashpoint_fires_through_an_attached_switch() {
        let (j, switch) = live();
        switch.arm(CrashPlan::at_point("wal.append.pre", 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = j.begin(|| create_intent("/a"));
        }));
        assert!(result.is_err(), "the armed crashpoint kills the client");
        assert!(switch.crashed());
        assert_eq!(j.intent_count(), 0, "died before the append landed");
    }
}
