//! The crash journal: a write-ahead mirror of the dispatcher's volatile
//! recovery state, plus per-operation intents.
//!
//! The paper's prototype keeps the update log and the dirty-fragment set
//! in client memory; a client crash would lose both and strand the fleet
//! with unhealed replicas and half-written stripes. This module models
//! the durable journal a production client would keep on local stable
//! storage:
//!
//! * a **pending mirror** of the [`UpdateLog`] — synced immediately
//!   after every log mutation, *before* the next provider op can run
//!   (write-ahead ordering: there is no crash boundary between a log
//!   mutation and its sync, because crashes only fire at provider-op
//!   admission and at named crashpoints);
//! * a **dirty mirror** of the [`DirtyFragments`] set, same discipline;
//! * **intents**: one record per mutating operation, appended before the
//!   operation's first provider write and committed when the operation
//!   returns. An intent found at restart is rolled forward (updates,
//!   deletes) or rolled back (creates) by [`Hyrd::restart`](crate::Hyrd::restart)
//!   (see `restart.rs`).
//!
//! The journal is a cheap-clone handle. [`Journal::disabled`] is a
//! zero-cost no-op used by every ordinary client; [`Journal::recording`]
//! is what the crash harness installs. When a [`CrashSwitch`] is
//! attached, the journal also fires the named crashpoints
//! (`wal.append.pre/post`, `wal.amend.pre/post`, `wal.commit.pre/post`,
//! `wal.sync`, `meta.flush.pre/post`) by panicking with
//! [`ClientCrashed`](crate::crashtest::ClientCrashed) — the simulated
//! process death the harness catches.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use std::sync::Mutex;

use hyrd_gcsapi::sync::lock;

use hyrd_cloudsim::CrashSwitch;
use hyrd_gcsapi::ProviderId;

use crate::ecops::DirtyFragments;
use crate::recovery::UpdateLog;

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
    pending: UpdateLog,
    dirty: DirtyFragments,
    intents: BTreeMap<u64, Intent>,
    next_seq: u64,
}

#[derive(Debug)]
struct JournalInner {
    state: Mutex<JournalState>,
    switch: Mutex<Option<Arc<CrashSwitch>>>,
}

/// A handle on the crash journal (see module docs). Cloning shares the
/// underlying journal; the disabled journal makes every method a no-op.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// The no-op journal every ordinary client runs with.
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// A recording journal for the crash harness.
    pub fn recording() -> Self {
        Journal {
            inner: Some(Arc::new(JournalInner {
                state: Mutex::new(JournalState::default()),
                switch: Mutex::new(None),
            })),
        }
    }

    /// Whether this journal records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches the fleet's crash switch so journal boundaries double as
    /// named crashpoints. No-op on a disabled journal. Installed by
    /// [`Hyrd::with_journal`](crate::Hyrd::with_journal).
    pub fn set_crash_switch(&self, switch: Arc<CrashSwitch>) {
        if let Some(inner) = &self.inner {
            *lock(&inner.switch) = Some(switch);
        }
    }

    /// Declares a named crashpoint. If the attached switch's plan fires
    /// here, the client dies on the spot: the method panics with
    /// [`ClientCrashed`](crate::crashtest::ClientCrashed), which the
    /// crash harness catches as the simulated process death.
    pub fn crashpoint(&self, name: &str) {
        if let Some(inner) = &self.inner {
            let switch = lock(&inner.switch).clone();
            if let Some(switch) = switch {
                if switch.at_point(name) {
                    std::panic::panic_any(crate::crashtest::ClientCrashed);
                }
            }
        }
    }

    /// Appends an operation intent (crashpoints `wal.append.pre` /
    /// `wal.append.post` fire around the append). Returns a guard that
    /// commits the intent on every normal exit of the operation — and
    /// deliberately does *not* commit while unwinding from a crash.
    ///
    /// The intent is built by `intent` only on a recording journal: an
    /// ordinary client never pays for the paths, object lists and
    /// payload handles an intent owns.
    pub fn begin(&self, intent: impl FnOnce() -> Intent) -> IntentGuard<'_> {
        let seq = if let Some(inner) = &self.inner {
            let intent = intent();
            self.crashpoint("wal.append.pre");
            let mut state = lock(&inner.state);
            let seq = state.next_seq;
            state.next_seq += 1;
            state.intents.insert(seq, intent);
            drop(state);
            self.crashpoint("wal.append.post");
            seq
        } else {
            0
        };
        IntentGuard { journal: self, seq }
    }

    /// Amends an [`Intent::UpdateErasure`] with its planned write set
    /// (crashpoints `wal.amend.pre` / `wal.amend.post`). Called by the
    /// WAL hook of `ecops::ranged_update_with` after the delta is
    /// computed, before the first range write.
    pub fn amend_update_writes(&self, seq: u64, writes: Vec<FragWrite>) {
        if let Some(inner) = &self.inner {
            self.crashpoint("wal.amend.pre");
            let mut state = lock(&inner.state);
            if let Some(Intent::UpdateErasure { writes: w, .. }) = state.intents.get_mut(&seq) {
                *w = writes;
            }
            drop(state);
            self.crashpoint("wal.amend.post");
        }
    }

    /// Commits (removes) an intent: the operation completed and its
    /// effects are fully described by ordinary state (metadata, pending
    /// log, dirty set). `wal.commit.pre` fires before the removal —
    /// a crash there must leave the intent for restart to resolve —
    /// and `wal.commit.post` after it.
    pub fn commit(&self, seq: u64) {
        if let Some(inner) = &self.inner {
            self.crashpoint("wal.commit.pre");
            lock(&inner.state).intents.remove(&seq);
            self.crashpoint("wal.commit.post");
        }
    }

    /// Mirrors the recovery log after a mutation. The single `wal.sync`
    /// crashpoint fires *before* the mirror write, modeling a crash that
    /// loses the latest log mutation — safe because the mutating
    /// operation's intent is still uncommitted and re-creates the lost
    /// records when rolled forward.
    pub fn sync_pending(&self, log: &UpdateLog) {
        if let Some(inner) = &self.inner {
            self.crashpoint("wal.sync");
            lock(&inner.state).pending = log.clone();
        }
    }

    /// Mirrors the dirty-fragment set after a mutation (same contract as
    /// [`sync_pending`](Self::sync_pending)).
    pub fn sync_dirty(&self, dirty: &DirtyFragments) {
        if let Some(inner) = &self.inner {
            self.crashpoint("wal.sync");
            lock(&inner.state).dirty = dirty.clone();
        }
    }

    /// Everything the journal holds, for the restart path: the mirrored
    /// pending log, the mirrored dirty set, and the unresolved intents
    /// in sequence order. The journal keeps its contents (restart
    /// commits intents one by one as it resolves them).
    pub fn restart_state(&self) -> (UpdateLog, DirtyFragments, Vec<(u64, Intent)>) {
        match &self.inner {
            Some(inner) => {
                let state = lock(&inner.state);
                let intents = state.intents.iter().map(|(s, i)| (*s, i.clone())).collect();
                (state.pending.clone(), state.dirty.clone(), intents)
            }
            None => (UpdateLog::new(), DirtyFragments::new(), Vec::new()),
        }
    }

    /// Unresolved intents (tests and reports).
    pub fn intent_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(&i.state).intents.len())
    }

    /// Mirrored pending-log records (tests and reports).
    pub fn pending_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(&i.state).pending.len())
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
    use hyrd_cloudsim::CrashPlan;
    use hyrd_gcsapi::ObjectKey;

    fn create_intent(path: &str) -> Intent {
        Intent::Create { path: path.to_string(), objects: vec![(ProviderId(0), "o".into())] }
    }

    #[test]
    fn disabled_journal_is_a_noop() {
        let j = Journal::disabled();
        assert!(!j.enabled());
        let guard = j.begin(|| unreachable!("a disabled journal builds no intent"));
        assert_eq!(guard.seq(), 0);
        drop(guard);
        j.crashpoint("meta.flush.pre");
        j.sync_pending(&UpdateLog::new());
        let (log, dirty, intents) = j.restart_state();
        assert!(log.is_empty());
        assert!(dirty.is_empty());
        assert!(intents.is_empty());
    }

    #[test]
    fn guard_commits_on_normal_exit() {
        let j = Journal::recording();
        {
            let _g = j.begin(|| create_intent("/a"));
            assert_eq!(j.intent_count(), 1);
        }
        assert_eq!(j.intent_count(), 0, "dropped guard committed the intent");
    }

    #[test]
    fn guard_keeps_intent_across_a_crash_panic() {
        let j = Journal::recording();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = j.begin(|| create_intent("/a"));
            std::panic::panic_any(crate::crashtest::ClientCrashed);
        }));
        assert!(result.is_err());
        assert_eq!(j.intent_count(), 1, "crash unwind must not commit");
        let (_, _, intents) = j.restart_state();
        assert_eq!(intents.len(), 1);
        assert_eq!(intents[0].1.path(), "/a");
    }

    #[test]
    fn mirrors_follow_the_latest_sync() {
        let j = Journal::recording();
        let mut log = UpdateLog::new();
        log.log_put(ProviderId(1), ObjectKey::new("hyrd", "x"), Bytes::from_static(b"v"));
        j.sync_pending(&log);
        assert_eq!(j.pending_len(), 1);
        log.discharge(ProviderId(1), &ObjectKey::new("hyrd", "x"));
        j.sync_pending(&log);
        assert_eq!(j.pending_len(), 0);

        let mut dirty = DirtyFragments::new();
        dirty.mark("/a", 2);
        j.sync_dirty(&dirty);
        let (_, mirrored, _) = j.restart_state();
        assert!(mirrored.contains("/a", 2));
    }

    #[test]
    fn amend_fills_in_erasure_writes() {
        let j = Journal::recording();
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
        let (_, _, intents) = j.restart_state();
        match &intents[0].1 {
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
        let j = Journal::recording();
        let switch = Arc::new(CrashSwitch::new());
        j.set_crash_switch(switch.clone());
        switch.arm(CrashPlan::at_point("wal.append.pre", 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = j.begin(|| create_intent("/a"));
        }));
        assert!(result.is_err(), "the armed crashpoint kills the client");
        assert!(switch.crashed());
        assert_eq!(j.intent_count(), 0, "died before the append landed");
    }
}
