//! Provider I/O: the one way a cloud call leaves the client, and the one
//! place a mutation's result meets the recovery log.
//!
//! [`Hyrd::guarded`] (the hardening stack) is private to this module;
//! the rest of the crate speaks four verbs — [`Hyrd::get_object`] and
//! the mutators [`Hyrd::put_object`], [`Hyrd::put_object_range`] and
//! (inside [`Hyrd::retire`]) remove. Each mutator applies the log rule
//! to its own result, per `(provider, key)`:
//!
//! * **landed** ⇒ discharge whatever the log held for the pair — the
//!   provider now holds the newest state, and replaying an older record
//!   over it would undo an acknowledged write (or delete a live copy);
//! * **verifiably absent** (remove only) ⇒ discharge, likewise;
//! * **anything else** ⇒ supersede the pair's record with the full bytes
//!   the object must hold, or with a Remove.
//!
//! [`Hyrd::publish`] and [`Hyrd::retire`] are the two shapes every write
//! path is made of; migration's publish and restart's roll-forward have
//! no desperation pass and call [`Hyrd::put_object`] per target. A ranged
//! *fragment* write ([`Hyrd::redo_fragment_write`], restart's redo of
//! what `ecops` wrote) has no whole object to fall back on: what does
//! not land is logged by its caller as a window, after whatever the
//! pair already holds.

use std::sync::Arc;

use bytes::Bytes;

use hyrd_cloudsim::SimProvider;
use hyrd_gcsapi::{
    CloudError, CloudResult, CloudStorage, ObjectKey, OpOutcome, OpReport, ProviderId,
};

use super::{Hyrd, ProviderSpan};
use crate::journal::FragWrite;

/// What one [`Hyrd::retire`] call did with its objects (the ones found
/// verifiably absent count as neither).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Retired {
    /// Objects removed now.
    pub removed: u64,
    /// Objects out of reach, their removal left to recovery.
    pub logged: u64,
}

impl Hyrd {
    /// Runs one cloud op through the full hardening stack: circuit
    /// breaker admission, retry with capped exponential backoff (sleeps
    /// advance the *virtual* clock), and health bookkeeping on the
    /// outcome. On the clean path this is exactly one provider call with
    /// zero added latency, so fault-free runs are bit-identical to the
    /// unhardened dispatcher.
    fn guarded<T>(
        &self,
        id: ProviderId,
        mut op: impl FnMut(&SimProvider) -> CloudResult<T>,
    ) -> CloudResult<T> {
        if !self.health.probe(id, self.now()) {
            self.note_breaker_reject(id);
            return Err(CloudError::Unavailable { provider: id });
        }
        let provider: &SimProvider = self.provider(id);
        let clock = self.fleet.clock();
        let policy = self.config.retry;
        let telemetry = &self.telemetry;
        let mut retries = 0u32;
        let result = policy.run_with(
            |delay| {
                retries += 1;
                if telemetry.enabled() {
                    telemetry
                        .event("retry.backoff")
                        .field("provider", provider.name())
                        .field("attempt", retries as u64)
                        .field("delay_ns", delay.as_nanos() as u64)
                        .emit();
                    telemetry.inc_labeled("retry.backoffs", provider.name(), 1);
                }
                clock.advance(delay);
            },
            || op(provider),
        );
        self.counters.note_retries(retries);
        match result {
            Ok(v) => {
                self.health.record_success(id);
                Ok(v)
            }
            Err(re) => {
                let e = re.into_cloud_error();
                // An injected client crash is a process death, not a
                // provider fault: no bookkeeping may run past it.
                crate::crashtest::escalate_if_crashed(&e);
                if e.counts_against_health() {
                    self.health.record_failure(id, self.now());
                }
                Err(e)
            }
        }
    }

    /// Counts a breaker rejection and traces which provider was refused.
    fn note_breaker_reject(&self, id: ProviderId) {
        self.counters.note_breaker_rejection();
        if self.telemetry.enabled() {
            self.telemetry
                .event("breaker.reject")
                .field("provider", self.provider(id).name())
                .emit();
            self.telemetry.inc_labeled("breaker.rejects", self.provider(id).name(), 1);
        }
    }

    /// One whole object from one provider.
    pub(crate) fn get_object(
        &self,
        id: ProviderId,
        key: &ObjectKey,
    ) -> CloudResult<OpOutcome<Bytes>> {
        self.guarded(id, |p| p.get(key))
    }

    /// Puts the whole object `full` under `key` at `target`.
    pub(crate) fn put_object(
        &self,
        target: ProviderId,
        key: &ObjectKey,
        full: &Bytes,
    ) -> CloudResult<OpReport> {
        let result = self.guarded(target, |p| p.put(key, full.clone()));
        self.settle_put(target, key, full, result)
    }

    /// Overwrites `patch` at `offset` of the replica of `key` at
    /// `target` (only the modified bytes travel — the Put function
    /// "writes or modifies a file", §III-D); `full` is the whole object
    /// afterwards. A replica with a pending record missed an earlier
    /// write, so a patch would land on a stale base: it is sent `full`
    /// instead.
    pub(crate) fn put_object_range(
        &self,
        target: ProviderId,
        key: &ObjectKey,
        offset: u64,
        patch: &Bytes,
        full: &Bytes,
    ) -> CloudResult<OpReport> {
        if self.journal.stale(target, &key.name) {
            return self.put_object(target, key, full);
        }
        let result = self.guarded(target, |p| p.put_range(key, offset, patch.clone()));
        self.settle_put(target, key, full, result)
    }

    /// Redoes a planned range write of an erasure-coded update; returns
    /// whether it landed. A fragment with a pending record is not
    /// written: the window would land before the older ones its replay
    /// still owes the provider. What does not land, the caller logs as a
    /// window ([`Journal::log_windows`](crate::journal::Journal::log_windows)),
    /// as the update path does for the writes `ecops` missed.
    pub(crate) fn redo_fragment_write(&self, w: &FragWrite) -> bool {
        let key = Self::key(Arc::clone(&w.object));
        !self.journal.stale(w.provider, &w.object)
            && self.guarded(w.provider, |p| p.put_range(&key, w.offset, w.bytes.clone())).is_ok()
    }

    /// The log rule for a put of either kind (module docs). A logged miss
    /// keeps a clone of `key`, which shares its name.
    fn settle_put(
        &self,
        target: ProviderId,
        key: &ObjectKey,
        full: &Bytes,
        result: CloudResult<OpOutcome<()>>,
    ) -> CloudResult<OpReport> {
        match result {
            Ok(out) => {
                self.journal.discharge(target, key);
                Ok(out.report)
            }
            // Outages, exhausted retries, open breakers, container
            // errors — all become missed writes; the replay surfaces
            // persistent problems.
            Err(e) => {
                self.journal.log_put(target, key.clone(), full.clone());
                Err(e)
            }
        }
    }

    /// Ships every `(target, key, full object)` of `writes` in one
    /// parallel round — as a `patch` at an offset where one is given —
    /// pushes onto `ops` the op of each write that landed and returns
    /// how many did. A target whose breaker is open is not called: its
    /// write is logged like any miss.
    /// If fewer than `floor` writes landed (1 for replicas, `m` for
    /// fragments), a breaker verdict may no longer cost the write: the
    /// desperation pass force-closes the rejected breakers and puts
    /// those objects whole (a patch could land on a base that missed
    /// earlier writes). `span` wraps each first-try call.
    pub(crate) fn publish<'a>(
        &self,
        writes: impl Iterator<Item = (ProviderId, &'a ObjectKey, Bytes)>,
        patch: Option<(u64, &Bytes)>,
        floor: usize,
        span: Option<ProviderSpan>,
        ops: &mut Vec<OpReport>,
    ) -> usize {
        let before = ops.len();
        let mut rejected = Vec::new();
        for (t, key, full) in writes {
            if !self.health.admits(t, self.now()) {
                self.note_breaker_reject(t);
                let refused = Err(CloudError::Unavailable { provider: t });
                let _ = self.settle_put(t, key, &full, refused);
                rejected.push((t, key, full));
                continue;
            }
            let _span = span.map(|span| self.provider_span(t, span));
            let put = match patch {
                Some((offset, patch)) => self.put_object_range(t, key, offset, patch, &full),
                None => self.put_object(t, key, &full),
            };
            if let Ok(report) = put {
                ops.push(report);
            }
        }
        if ops.len() - before < floor {
            for (t, key, full) in rejected {
                self.health.reset(t);
                if let Ok(report) = self.put_object(t, key, &full) {
                    ops.push(report);
                }
            }
        }
        ops.len() - before
    }

    /// Removes placement objects, tolerantly, dropping their digests:
    /// removed now ⇒ its op is pushed; verifiably gone already (a logged
    /// write that never landed, say) ⇒ nothing to reclaim; out of reach
    /// ⇒ the object may well still occupy billed storage, so the remove
    /// is left to recovery. The log rule in the module docs, remove side.
    pub(crate) fn retire<'a>(
        &self,
        objects: impl IntoIterator<Item = (ProviderId, &'a ObjectKey)>,
        ops: &mut Vec<OpReport>,
    ) -> Retired {
        let mut retired = Retired::default();
        for (p, key) in objects {
            self.integrity_l().forget(&key.name);
            match self.guarded(p, |prov| prov.remove(key)) {
                Ok(out) => {
                    ops.push(out.report);
                    retired.removed += 1;
                    self.journal.discharge(p, key);
                }
                Err(CloudError::NoSuchObject { .. }) | Err(CloudError::NoSuchContainer { .. }) => {
                    self.journal.discharge(p, key);
                }
                Err(_) => {
                    self.journal.log_remove(p, key.clone());
                    retired.logged += 1;
                }
            }
        }
        retired
    }

    /// Log-only rollback of a write no provider took: every target's
    /// record (each holds the failed write by now) is superseded so that
    /// replay restores what the caller was told still stands — `before`,
    /// or no object at all.
    pub(crate) fn roll_back_logged(
        &self,
        targets: &[ProviderId],
        key: &ObjectKey,
        before: Option<&Bytes>,
    ) {
        for &t in targets {
            match before {
                Some(bytes) => self.journal.log_put(t, key.clone(), bytes.clone()),
                None => self.journal.log_remove(t, key.clone()),
            }
        }
    }
}
