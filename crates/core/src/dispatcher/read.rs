//! The read path: replica and fragment reads fanned out on the event
//! engine, the hot copy of an erasure-coded file, directory listings.

use std::sync::Arc;

use bytes::Bytes;

use hyrd_gcsapi::{BatchReport, CloudStorage, ObjectKey, OpReport, ProviderId};
use hyrd_gfec::decode_object;
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use crate::config::FragmentSelection;
use crate::engine::{self, Attempt, FanoutDriver, FanoutOutcome, HedgeStats, LaunchKind};
use crate::evaluator::Evaluator;
use crate::fleet_list::{FleetList, CAPACITY};
use crate::integrity::Verdict;
use crate::scheme::{SchemeError, SchemeResult};

use super::{Hyrd, Lent, ProviderSpan, Stored};

impl Hyrd {
    /// Counts a detected integrity failure and traces the object.
    pub(crate) fn note_corruption(&self, id: ProviderId, object: &str) {
        self.counters.note_corruption();
        if self.telemetry.enabled() {
            self.telemetry
                .event("integrity.corrupt")
                .field("provider", self.provider(id).name())
                .field("object", object)
                .emit();
            self.telemetry.inc("integrity.corruptions", 1);
        }
    }

    /// Counts one fan-out read's hedging activity into the registry.
    /// Quiet reads (nothing fired, no queueing) record nothing, so runs
    /// with hedging disabled keep their pre-engine telemetry exactly.
    fn note_hedges(&self, h: &HedgeStats) {
        if !self.telemetry.enabled() {
            return;
        }
        if h.fired > 0 {
            self.telemetry.inc("hedge.fired", h.fired);
        }
        if h.won > 0 {
            self.telemetry.inc("hedge.won", h.won);
        }
        if h.cancelled > 0 {
            self.telemetry.inc("hedge.cancelled", h.cancelled);
        }
        if h.queue_delay_ns > 0 {
            self.telemetry.observe("engine.queue_ns", h.queue_delay_ns);
        }
    }

    /// Verifies fetched whole-object bytes against the recorded digest.
    /// Ghost-mode providers return synthetic zeroes by design, so their
    /// payloads are exempt (`Unknown`).
    pub(crate) fn check(&self, id: ProviderId, object: &str, bytes: &[u8]) -> Verdict {
        if self.provider(id).ghost_mode() {
            Verdict::Unknown
        } else {
            self.verify_digest(object, bytes)
        }
    }

    /// [`Hyrd::check`], after the length: a payload of any length but
    /// `expect_len` (where the caller knows it) is corrupt whatever the
    /// integrity index knows — it knows nothing on a freshly attached
    /// client or a ghost fleet.
    fn check_sized(
        &self,
        id: ProviderId,
        object: &str,
        bytes: &[u8],
        expect_len: Option<u64>,
    ) -> Verdict {
        if expect_len.is_some_and(|len| bytes.len() as u64 != len) {
            return Verdict::Corrupt;
        }
        self.check(id, object, bytes)
    }

    // ------------------------------------------------------------------
    // Read
    // ------------------------------------------------------------------

    /// One whole replica of the object `key` names. With `expect_len`
    /// (the inode's size, for file payloads) a replica of any other
    /// length is an erasure like a digest mismatch: the read fails over
    /// to the next replica and no caller ever indexes into a short one.
    pub(crate) fn read_replicated(
        &self,
        path: &str,
        providers: impl IntoIterator<Item = ProviderId>,
        key: &ObjectKey,
        expect_len: Option<u64>,
    ) -> SchemeResult<(Bytes, BatchReport)> {
        // Fastest replica first — the evaluator's whole purpose — with
        // breaker-suspect providers demoted to the back of the line.
        // A replica with a pending log record holds stale bytes (it
        // missed the latest write); never serve a read from it.
        let mut order = Evaluator::order_by(self.evaluator.fastest_first(), providers);
        let now = self.now();
        order.sort_by_key(|&id| !self.health.admits(id, now));
        let candidates = order
            .into_iter()
            .filter(|&id| !self.log_l().is_pending(id, key))
            .map(|id| (id, key))
            .collect();
        // One copy wins; the hedge timer fans out to a second replica
        // when the first is slow (metadata and small files included —
        // `list_dir`'s fastest-replica fetch rides the same path).
        let mut fanout =
            ReadFanout { hyrd: self, span: ProviderSpan::FetchReplica, candidates, expect_len };
        let Some(mut outcome) = engine::fanout_read(&mut fanout, 1, &self.config.hedge, now) else {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("no replica of '{}' reachable", key.name),
            });
        };
        self.note_hedges(&outcome.hedges);
        let winner = outcome.winners.pop().expect("need=1 produced a winner");
        Ok((winner.payload, outcome.report))
    }

    /// Fetches any `m` fragments (policy-ordered) and decodes. The
    /// degraded-read path is implicit: a lost data fragment simply means
    /// a parity fragment gets picked and the decode reconstructs.
    pub(crate) fn read_erasure(
        &self,
        path: &str,
        layout: &hyrd_gfec::FragmentLayout,
        fragments: &[(ProviderId, Arc<str>)],
    ) -> SchemeResult<(Bytes, BatchReport)> {
        let ranking = match self.config.fragment_selection {
            FragmentSelection::CheapestEgress => self.evaluator.cheapest_egress_first(),
            FragmentSelection::Fastest => self.evaluator.fastest_first(),
        };
        // A fragment is a candidate when its provider is up, its stored
        // bytes are current (no pending replay, not dirtied by a
        // degraded update), ordered by the selection policy with
        // breaker-suspect providers last.
        let now = self.now();
        let mut candidates: FleetList<(usize, ProviderId, ObjectKey)> = fragments
            .iter()
            .enumerate()
            .map(|(i, (p, name))| (i, *p, Self::key(Arc::clone(name))))
            .filter(|(i, p, key)| {
                self.provider(*p).is_available()
                    && !self.log_l().is_pending(*p, key)
                    && !self.dirty_l().contains(path, *i)
            })
            .collect();
        candidates.sort_by_key(|(_, p, _)| {
            (
                !self.health.admits(*p, now),
                ranking.iter().position(|r| r == p).unwrap_or(usize::MAX),
            )
        });

        if self.telemetry.enabled() && candidates.len() < fragments.len() {
            // Some fragment was unreachable or stale: this read runs
            // degraded (or fails below) — worth a mark either way.
            self.telemetry
                .event("read.degraded")
                .field("path", path)
                .field("reachable", candidates.len() as u64)
                .field("total", fragments.len() as u64)
                .emit();
            self.telemetry.inc("read.degraded", 1);
            // One event per missing fragment so the exposure tracker can
            // attribute the degradation to a fragment and its provider.
            for (i, (p, _)) in fragments.iter().enumerate() {
                if candidates.iter().any(|(ci, _, _)| *ci == i) {
                    continue;
                }
                self.telemetry
                    .event("read.degraded.fragment")
                    .field("path", path)
                    .field("fragment", i as u64)
                    .field("provider", self.provider(*p).name())
                    .emit();
            }
        }

        let m = layout.m;
        if candidates.len() < m {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!(
                    "{} of {} fragments reachable, need {m}",
                    candidates.len(),
                    fragments.len()
                ),
            });
        }

        // Fan the read out on the event engine: `m` required fragment
        // fetches in flight at once, redundant extras after the hedge
        // deadline, first `m` completions win, stragglers cancelled.
        let mut fanout = ReadFanout {
            hyrd: self,
            span: ProviderSpan::FetchFragment,
            candidates: candidates.iter().map(|(_, p, key)| (*p, key)).collect(),
            expect_len: None,
        };
        let Some(outcome) = engine::fanout_read(&mut fanout, m, &self.config.hedge, self.now())
        else {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "fragment fetches failed mid-read".to_string(),
            });
        };
        self.note_hedges(&outcome.hedges);
        let FanoutOutcome { winners, report, .. } = outcome;
        // The fetched payloads are borrowed as they arrived; the decode
        // writes the object straight into its one buffer.
        let mut got: [(usize, &[u8]); CAPACITY] = [(0, &[]); CAPACITY];
        for (slot, w) in got.iter_mut().zip(winners.iter()) {
            *slot = (candidates[w.candidate].0, &w.payload[..]);
        }
        let got = &got[..winners.len()];
        let ops = report;
        let object = {
            let _dec = self
                .telemetry
                .span_with("ec.decode")
                .field("path", path)
                .field("fragments", got.len() as u64)
                .start();
            let wall = self.wall_start();
            let object = decode_object(self.code.as_code(), layout, got)?;
            self.observe_wall("ec.decode_wall_ns", wall);
            object
        };
        Ok((Bytes::from(object), ops))
    }

    /// After a large read, track hotness and install a whole-object copy
    /// on the fastest performance-oriented provider once the file crosses
    /// the configured read count (Figure 2's overlap region). The fill is
    /// background traffic: it costs ops/bytes, not user latency.
    ///
    /// `inode` is the snapshot the fragments were read from. The install
    /// commits through [`ShardedMetaStore::set_placement_if_version`]
    /// at that snapshot's version: if a concurrent update (or delete)
    /// moved the file since, the staged copy holds pre-update bytes and
    /// is removed instead of installed — a hot copy must never shadow
    /// newer fragments.
    fn maybe_cache_hot(
        &self,
        path: &NormPath,
        inode: &Lent,
        data: &Bytes,
        batch: BatchReport,
    ) -> BatchReport {
        let Some(threshold) = self.config.hot_read_threshold else {
            // No hot-copy cache, but the adaptive policy still wants
            // heat on erasure-coded reads.
            if self.config.policy.enabled {
                self.reads_bump(path);
            }
            return batch;
        };
        let count = self.reads_bump(path);
        if count != threshold {
            return batch;
        }
        let (Stored::ErasureCoded(layout), None) = (&inode.stored, &inode.hot_copy) else {
            return batch;
        };
        let Some(&target) = self.evaluator.performance_tier().first() else {
            return batch;
        };
        let name = crate::scheme::hot_copy_name(&crate::scheme::object_name(path.as_str()));
        let now = self.now();
        let hot_key = Self::key(Arc::clone(&name));
        let staged = [(target, &hot_key)];
        let Ok(put) = self.put_object(target, &hot_key, data) else {
            // The copy joins no placement, so nothing is owed a replay:
            // whatever the failed put stored or logged goes again.
            let mut ops = Vec::new();
            self.retire(staged, &mut ops);
            return batch.with_background(BatchReport::parallel(ops));
        };
        let mut ops = vec![put];
        self.record_digest(hot_key.name.clone(), data);
        let landed = self.meta.set_placement_if_version(
            path,
            inode.version,
            Placement::ErasureCoded {
                layout: *layout,
                fragments: inode.copies.iter().cloned().collect(),
                hot_copy: Some((target, name)),
            },
            inode.size,
            now,
        );
        if !matches!(landed, Ok(true)) {
            // Raced an update or delete: the bytes we staged are
            // already stale. Take the copy back out.
            self.retire(staged, &mut ops);
            if self.telemetry.enabled() {
                self.telemetry.event("hot.install_raced").field("path", path.as_str()).emit();
                self.telemetry.inc("hot.install_races", 1);
            }
            return batch.with_background(BatchReport::parallel(ops));
        }
        batch.with_background(self.flush_metadata(BatchReport::parallel(ops)))
    }

    /// Reads a whole file (degraded reads during outages are automatic).
    pub fn read_file(&self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let _span = self.telemetry.span_with("read_file").field("path", path).start();
        let npath = NormPath::parse(path)?;
        // Lend the placement out of the metadata stripe: the lock must
        // not be held across provider fetches (other sessions' metadata
        // operations would serialize behind this read).
        let mut inode = self.lend_inode(&npath)?;
        // A concurrent migration can flip the placement and GC the old
        // objects between our metadata fetch and the provider ops. That
        // manifests as a read error against a placement whose inode
        // version has since moved — re-fetch and retry with the fresh
        // placement. Version-unchanged errors (real outages) return
        // unchanged, so non-migrating runs behave exactly as before.
        const PLACEMENT_RETRIES: usize = 4;
        let mut attempts = 0;
        loop {
            let err = match self.read_placed(&npath, path, &inode) {
                Ok(out) => return Ok(out),
                Err(err) => err,
            };
            attempts += 1;
            if attempts >= PLACEMENT_RETRIES {
                return Err(err);
            }
            match self.lend_inode(&npath) {
                Ok(fresh) if fresh.version != inode.version => inode = fresh,
                _ => return Err(err),
            }
        }
    }

    /// One read attempt against a fixed placement snapshot.
    fn read_placed(
        &self,
        npath: &NormPath,
        path: &str,
        inode: &Lent,
    ) -> SchemeResult<(Bytes, BatchReport)> {
        match &inode.stored {
            Stored::Pending => Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "file has no placement".to_string(),
            }),
            Stored::Replicated(object) => {
                let key = Self::key(Arc::clone(object));
                let out = self.read_replicated(path, inode.providers(), &key, Some(inode.size))?;
                if self.config.policy.enabled {
                    // The adaptive policy wants heat on every class of
                    // read; without it, promoted files would look cold
                    // and ping-pong straight back to erasure coding.
                    self.reads_bump(npath);
                }
                Ok(out)
            }
            Stored::ErasureCoded(layout) => {
                // Prefer the hot copy (one fast whole-object Get) — but
                // only when it is current (no pending replay), its
                // breaker admits the call, and its bytes verify; any
                // doubt falls back to the erasure-coded truth.
                if let Some((p, name)) = &inode.hot_copy {
                    let hot_key = Self::key(Arc::clone(name));
                    if !self.log_l().is_pending(*p, &hot_key) && self.health.admits(*p, self.now())
                    {
                        if let Ok(out) = self.get_object(*p, &hot_key) {
                            match self.check_sized(*p, name, &out.value, Some(inode.size)) {
                                Verdict::Corrupt => self.note_corruption(*p, name),
                                Verdict::Verified | Verdict::Unknown => {
                                    if self.config.policy.enabled {
                                        self.reads_bump(npath);
                                    }
                                    return Ok((
                                        out.value,
                                        BatchReport::parallel(vec![out.report]),
                                    ));
                                }
                            }
                        }
                    }
                }
                if self.telemetry.enabled() && inode.hot_copy.is_some() {
                    // The fast whole-object path existed but could not
                    // serve this read (stale, rejected or corrupt).
                    self.telemetry.event("read.fallback").field("path", path).emit();
                    self.telemetry.inc("read.fallbacks", 1);
                }
                let (bytes, batch) = self.read_erasure(path, layout, &inode.copies)?;
                let batch = self.maybe_cache_hot(npath, inode, &bytes, batch);
                Ok((bytes, batch))
            }
        }
    }

    /// Lists a directory; fetches its metadata block from the fastest
    /// available replica first (the metadata access the workload studies
    /// say dominates).
    pub fn list_dir(&self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        let _span = self.telemetry.span_with("list_dir").field("path", path).start();
        let npath = NormPath::parse(path)?;
        let key = Self::key(MetadataBlock::object_name(&npath));
        let replicas = self.replica_targets().iter().copied();
        let batch = match self.read_replicated(path, replicas, &key, None) {
            Ok((_bytes, batch)) => batch,
            // Directory never flushed (or all replicas down): local view,
            // zero ops. Availability of listings degrades gracefully.
            Err(_) => BatchReport::empty(),
        };
        Ok((self.meta.names(&npath)?, batch))
    }
}

/// The dispatcher's side of a fan-out read: the event engine owns the
/// timeline, this adapter owns the cloud. `candidates` are ranked
/// `(provider, object)` pairs; every fetch runs through the full
/// hardening stack ([`Hyrd::get_object`]: breaker admission, retries with
/// virtual-clock backoff, health bookkeeping) and integrity check, and
/// every admission/cancellation goes to the provider's queue.
struct ReadFanout<'a> {
    hyrd: &'a Hyrd,
    /// The span around each fetch (`fetch_replica` / `fetch_fragment`).
    span: ProviderSpan,
    candidates: FleetList<(ProviderId, &'a ObjectKey)>,
    /// Length every payload must have, where the caller knows it.
    expect_len: Option<u64>,
}

impl FanoutDriver for ReadFanout<'_> {
    fn candidates(&self) -> usize {
        self.candidates.len()
    }

    fn prepare(&mut self, idx: usize, kind: LaunchKind) -> bool {
        let (id, _) = self.candidates[idx];
        if self.hyrd.health.admits(id, self.hyrd.now()) {
            return true;
        }
        match kind {
            LaunchKind::Required => {
                // Last-resort candidate: every healthier replica already
                // failed, so an open breaker must not veto the read.
                // Force it closed — the attempt records a real outcome.
                self.hyrd.health.reset(id);
                true
            }
            // A hedge is opportunistic extra work; aiming it at a
            // breaker-suspect provider would spend the redundancy on
            // the least likely candidate and poke a known-bad endpoint.
            LaunchKind::Hedge => false,
        }
    }

    fn attempt(&mut self, idx: usize) -> Attempt {
        let (id, key) = self.candidates[idx];
        let fetched = {
            let _get = self.hyrd.provider_span(id, self.span);
            self.hyrd.get_object(id, key)
        };
        match fetched {
            Ok(out) => match self.hyrd.check_sized(id, &key.name, &out.value, self.expect_len) {
                Verdict::Corrupt => {
                    self.hyrd.note_corruption(id, &key.name);
                    Attempt::Corrupt { report: out.report }
                }
                Verdict::Verified | Verdict::Unknown => {
                    Attempt::Done { report: out.report, payload: out.value }
                }
            },
            Err(_) => Attempt::Failed, // raced an outage; try the next one
        }
    }

    fn enqueue(&mut self, idx: usize, now_ns: u64, service_ns: u64) -> hyrd_cloudsim::Admission {
        let id = self.candidates[idx].0;
        let queue = self.hyrd.provider(id).queue();
        let admission = queue.admit(now_ns, service_ns);
        if self.hyrd.telemetry.enabled() {
            self.hyrd.note_queue_depth(id, queue.busy_at(now_ns) as u64);
        }
        admission
    }

    fn release(&mut self, idx: usize, done_ns: u64, free_at_ns: u64) {
        self.hyrd.provider(self.candidates[idx].0).queue().release_early(done_ns, free_at_ns);
    }

    fn cancelled(&mut self, idx: usize, report: &OpReport, billed: std::time::Duration) {
        self.hyrd.provider(self.candidates[idx].0).credit_cancelled(report, billed);
    }
}
