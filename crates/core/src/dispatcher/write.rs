//! The write path: create, update, delete and the metadata flush, all
//! built on [`Hyrd::publish`] and [`Hyrd::retire`].

use std::sync::Arc;

use bytes::Bytes;

use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{parallel_latency, BatchReport, CloudStorage, ObjectKey, OpReport, ProviderId};
use hyrd_metastore::{FlushKind, NormPath, Placement};

use crate::fleet_list::FleetList;
use crate::journal::{FragWrite, Intent};
use crate::monitor::DataClass;
use crate::scheme::{SchemeError, SchemeResult};

use super::{Hyrd, ProviderSpan, Stored};

impl Hyrd {
    /// Puts `data` to every target in one parallel round
    /// ([`Self::publish`] with a floor of one replica), pushes onto `ops`
    /// the op of each target that took the write synchronously and
    /// returns how many did.
    pub(crate) fn put_replicated(
        &self,
        key: &ObjectKey,
        data: &Bytes,
        targets: &[ProviderId],
        ops: &mut Vec<OpReport>,
    ) -> usize {
        // The digest is what the object *should* hold from now on; it is
        // recorded up front so even log-replayed copies verify.
        self.record_digest(key.name.clone(), data);
        let writes = targets.iter().map(|&t| (t, key, data.clone()));
        self.publish(writes, None, 1, Some(ProviderSpan::PutReplica), ops)
    }

    /// Replicates every **changed** dirty directory's flush item to the
    /// metadata tier (one parallel round; items are independent
    /// objects). Directories whose bytes match their last flush are
    /// skipped by the metastore — a flush with nothing new issues zero
    /// provider ops — and steady-state changes ship as incremental
    /// diffs, with every [`hyrd_metastore::shard::COMPACT_EVERY`]th
    /// flush folding the chain back into a full block and deleting the
    /// superseded diff objects.
    ///
    /// Each item's digest is recorded as the metastore makes it, under
    /// the lock of its shard, so one directory's digests change in the
    /// order its blocks were made: a compaction re-hashes only the digest
    /// blocks its [`BlockDelta`](hyrd_metastore::BlockDelta) touches — the
    /// header and the entries changed since the directory's previous full
    /// block — and everything else records whole.
    ///
    /// Each shipped item leaves a `meta.flush.block` / `meta.flush.diff`
    /// / `meta.flush.compact` trace event. The fields (dir, version,
    /// records, bytes) are pure functions of the serialized op order, so
    /// deterministic runs stay byte-identical.
    ///
    /// The flush runs after `done`, what the op has done so far: its
    /// ops are appended to `done`'s and its latency, one parallel round,
    /// added to `done`'s — `done.then(flush)`, with one list of ops per
    /// request.
    pub(crate) fn flush_metadata(&self, mut done: BatchReport) -> BatchReport {
        self.journal.crashpoint("meta.flush.pre");
        // Taken out of its stripe (empty, with the capacity earlier
        // flushes left it) and put back below.
        let mut items = std::mem::take(&mut *self.stripe("flush_items", &self.flush_items));
        self.meta
            .flush_dirty_with(&mut items, |item, delta| self.record_flushed_digest(item, delta));
        if items.is_empty() {
            *self.stripe("flush_items", &self.flush_items) = items;
            return done;
        }
        let targets = self.replica_targets();
        let first = done.ops.len();
        for item in items.drain(..) {
            let bytes = Bytes::from(item.bytes);
            let key = ObjectKey::shared(Fleet::CONTAINER, item.object);
            let writes = targets.iter().map(|&t| (t, &key, bytes.clone()));
            self.publish(writes, None, 1, Some(ProviderSpan::PutReplica), &mut done.ops);
            if self.telemetry.enabled() {
                let (event, counter) = match item.kind {
                    FlushKind::Block => ("meta.flush.block", "meta.flush.blocks"),
                    FlushKind::Diff => ("meta.flush.diff", "meta.flush.diffs"),
                    FlushKind::Compact => ("meta.flush.compact", "meta.flush.compacts"),
                };
                // Fields in key order, as the trace prints them.
                let mut ev = self.telemetry.event(event);
                ev.field("bytes", bytes.len() as u64).field("dir", item.dir.as_str());
                if item.kind == FlushKind::Compact {
                    ev.field("folded", item.supersedes.len() as u64);
                }
                ev.field("records", item.records as u64).field("version", item.version).emit();
                self.telemetry.inc(counter, 1);
            }
            // A compaction's full block supersedes its diff chain: the
            // diff objects are garbage now, and leaving them would both
            // leak billed storage and re-apply on the next restart (a
            // no-op by version, but the GC pass would never converge).
            for stale in item.supersedes {
                let key = ObjectKey::shared(Fleet::CONTAINER, stale);
                self.retire(targets.iter().map(|&t| (t, &key)), &mut done.ops);
            }
        }
        *self.stripe("flush_items", &self.flush_items) = items;
        self.journal.crashpoint("meta.flush.post");
        done.latency += parallel_latency(&done.ops[first..]);
        done
    }

    // ------------------------------------------------------------------
    // Create
    // ------------------------------------------------------------------

    fn create_small(&self, path: &NormPath, data: &[u8]) -> SchemeResult<BatchReport> {
        let now = self.now();
        self.meta.create_file(path, data.len() as u64, now)?;
        let name = crate::scheme::object_name(path.as_str());
        let key = Self::key(Arc::clone(&name));
        let bytes = Bytes::copy_from_slice(data);
        let targets = self.replica_targets();
        let _intent = self.journal.begin(|| Intent::Create {
            path: path.as_str().to_string(),
            objects: targets.iter().map(|&t| (t, Arc::clone(&name))).collect(),
        });

        let mut ops = Vec::new();
        if self.put_replicated(&key, &bytes, targets, &mut ops) == 0 {
            // No provider holds the data — fail the write and roll back.
            self.meta.remove_file(path)?;
            self.integrity_l().forget(&name);
            self.roll_back_logged(targets, &key, None);
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "all replica targets unavailable".to_string(),
            });
        }
        self.cache_l().put(path, bytes);
        self.meta.set_placement(
            path,
            Placement::Replicated { providers: targets.to_vec(), object: name },
            data.len() as u64,
            now,
        )?;
        Ok(self.flush_metadata(BatchReport::parallel(ops)))
    }

    fn create_large(&self, path: &NormPath, data: &[u8]) -> SchemeResult<BatchReport> {
        let now = self.now();
        self.meta.create_file(path, data.len() as u64, now)?;
        let base_name = crate::scheme::object_name(path.as_str());
        let targets = self.fragment_targets();
        let fragments: Vec<(ProviderId, Arc<str>)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, crate::scheme::fragment_name(&base_name, i)))
            .collect();
        let keys = Self::keys_of(fragments.iter().map(|(t, name)| (*t, name)));
        let _intent = self.journal.begin(|| Intent::Create {
            path: path.as_str().to_string(),
            objects: fragments.clone(),
        });

        // Split + encode, in
        // `split_encode`'s two halves so `ec.encode` times the parity
        // arithmetic only, as it always has.
        let (layout, mut encoded) = self.planner.split(data);
        {
            let _enc = self
                .telemetry
                .span_with("ec.encode")
                .field("bytes", data.len() as u64)
                .field("m", self.config.code.m() as u64)
                .start();
            let wall = self.wall_start();
            self.planner.push_parity(self.code.as_code(), &mut encoded)?;
            self.observe_wall("ec.encode_wall_ns", wall);
        }

        // Each fragment's digest is recorded as it ships; `m` landed
        // fragments are the durability floor.
        let m = self.config.code.m();
        let writes = encoded.into_iter().zip(keys.iter()).map(|(fragment, (target, key))| {
            let bytes = Bytes::from(fragment);
            self.record_digest(key.name.clone(), &bytes);
            (*target, key, bytes)
        });
        // The fragments' puts, then the flush's.
        let mut ops = Vec::with_capacity(targets.len() + self.replica_targets().len());
        let live = self.publish(writes, None, m, Some(ProviderSpan::PutFragment), &mut ops);
        if live < m {
            // Not enough survivors to make the object durable: undo —
            // remove what landed, supersede the logged writes.
            self.meta.remove_file(path)?;
            self.retire(keys.iter().map(|(t, key)| (*t, key)), &mut ops);
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("only {live} of {} fragment targets available", targets.len()),
            });
        }

        self.meta.set_placement(
            path,
            Placement::ErasureCoded { layout, fragments, hot_copy: None },
            data.len() as u64,
            now,
        )?;
        Ok(self.flush_metadata(BatchReport::parallel(ops)))
    }

    // ------------------------------------------------------------------
    // Update
    // ------------------------------------------------------------------

    fn update_replicated(
        &self,
        path: &NormPath,
        providers: FleetList<ProviderId>,
        object: Arc<str>,
        size: u64,
        offset: u64,
        data: &[u8],
    ) -> SchemeResult<BatchReport> {
        let (start, end) = (offset as usize, offset as usize + data.len());
        let key = Self::key(Arc::clone(&object));
        // Base version: the write-through cache's entry, lent out for the
        // length of the update, or one replica read. Either is exactly
        // `size` bytes, and either way this call now holds the client's
        // one copy of the file.
        let lent = self.cache_l().lend(path.as_str(), size as usize);
        let (base, lent_generation, mut batch) = match lent {
            Some((bytes, generation)) => (bytes, Some(generation), BatchReport::empty()),
            None => {
                let (bytes, report) = self.read_replicated(
                    path.as_str(),
                    providers.iter().copied(),
                    &key,
                    Some(size),
                )?;
                (bytes, None, report)
            }
        };
        // Patch the buffer where it lies. `Vec::from` reclaims it when
        // this handle is its only owner and copies exactly when something
        // still shares the bytes (a simulated replica until its own first
        // `put_range`, a journal intent, a logged put for a down replica,
        // a migration in flight) — its own reference-count check, the
        // idiom `SimProvider::put_range` uses.
        let mut content = Vec::from(base);
        // Keep the overwritten window so a totally failed update can
        // restore the pre-update content in the log (the update is
        // reported failed; replaying its bytes anyway would diverge).
        let old_window = content[start..end].to_vec();
        content[start..end].copy_from_slice(data);
        let bytes = Bytes::from(content);
        // The patch is a view of the new content: a provider's ranged put
        // copies it into its own buffer.
        let patch = bytes.slice(start..end);
        let _intent = self.journal.begin(|| Intent::UpdateReplicated {
            path: path.as_str().to_string(),
            object: Arc::clone(&object),
            providers: providers.iter().copied().collect(),
            bytes: bytes.clone(),
        });
        // Only the patch travels to each replica; a replica that misses
        // it gets the *full* new content logged, so the consistency
        // update restores a complete object. The write round runs after
        // the read round, if there was one.
        let writes = providers.iter().map(|&t| (t, &key, bytes.clone()));
        let first = batch.ops.len();
        if self.publish(writes, Some((offset, &patch)), 1, None, &mut batch.ops) == 0 {
            // The update failed outright: supersede the logged entries
            // with the pre-update content so replay restores the state
            // the caller was told still stands.
            let mut old = Vec::from(bytes);
            old[start..end].copy_from_slice(&old_window);
            let old_bytes = Bytes::from(old);
            let providers: Vec<ProviderId> = providers.iter().copied().collect();
            self.roll_back_logged(&providers, &key, Some(&old_bytes));
            if let Some(generation) = lent_generation {
                self.cache_l().hand_back(path.as_str(), generation, old_bytes);
            }
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no replica target available for update".to_string(),
            });
        }
        batch.latency += parallel_latency(&batch.ops[first..]);
        // The object's authoritative content changed: refresh the digest
        // of the blocks the patch touched (live replicas hold the new
        // content; logged replicas will after replay).
        let patched = start..end;
        self.patch_digest(key.name.clone(), &bytes, bytes.len(), std::slice::from_ref(&patched));
        self.cache_l().put(path, bytes);
        let now = self.now();
        let providers = providers.iter().copied().collect();
        self.meta.set_placement(path, Placement::Replicated { providers, object }, size, now)?;
        Ok(self.flush_metadata(batch))
    }

    #[allow(clippy::too_many_arguments)]
    fn update_erasure(
        &self,
        path: &NormPath,
        layout: hyrd_gfec::FragmentLayout,
        fragments: FleetList<(ProviderId, Arc<str>)>,
        hot_copy: Option<(ProviderId, Arc<str>)>,
        size: u64,
        offset: u64,
        data: &[u8],
    ) -> SchemeResult<BatchReport> {
        // The engine below reads its base from every provider that is up.
        // A provider that has returned but not had its consistency update
        // may still hold a fragment the log or the dirty set calls stale
        // (a predecessor's bytes, even): parity computed over that would
        // corrupt the stripe, so the update waits for the recovery.
        let stale = fragments.iter().enumerate().find(|(i, (p, name))| {
            // One stripe at a time, log before dirty (DESIGN.md §11); by
            // name, so this per-update check builds no key.
            let pending =
                self.log_l().records().iter().any(|(q, r)| q == p && *r.key().name == **name);
            (pending || self.dirty_l().contains(path.as_str(), *i))
                && self.provider(*p).is_available()
        });
        if let Some((i, (p, _))) = stale {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("fragment {i} awaits recovery of {}", self.provider(*p).name()),
            });
        }
        // One engine for every code and every availability state: ranged
        // RMW when all touched providers are up, the window-decode
        // degraded path otherwise (missed fragments go dirty and are
        // rebuilt by recover_provider).
        let lookup = |id: ProviderId| Arc::clone(self.provider(id));
        // The intent starts with an empty write set: it is amended with
        // the planned fragment writes *inside* the engine, after the
        // deltas are computed but before the first provider mutation, so
        // a crash earlier than that rolls back to "nothing happened".
        let intent = self.journal.begin(|| Intent::UpdateErasure {
            path: path.as_str().to_string(),
            writes: Vec::new(),
            hot_remove: hot_copy.clone(),
        });
        let seq = intent.seq();
        let wal_cb = |writes: &[FragWrite]| self.journal.amend_update_writes(seq, writes.to_vec());
        let wal = self.journal.enabled().then_some(&wal_cb as &dyn Fn(&[FragWrite]));
        let outcome = crate::ecops::ranged_update_with(
            self.code.as_code(),
            &lookup,
            &self.telemetry,
            &layout,
            &fragments,
            path.as_str(),
            offset as usize,
            data,
            wal,
            // The update's reads and writes, then the flush's puts.
            Vec::with_capacity(2 * layout.n + self.replica_targets().len()),
        )?;
        let mut batch = outcome.batch;
        {
            let mut dirty = self.dirty_l();
            for &idx in &outcome.missed {
                dirty.mark(path.as_str(), idx);
            }
        }
        self.sync_dirty_journal();
        // Ranged writes changed the fragments in place; the recorded
        // whole-fragment digests no longer apply. Drop them — reads fall
        // back to `Unknown` until the scrub pass re-records them.
        {
            let mut integrity = self.integrity_l();
            for (_, name) in &fragments {
                integrity.forget(name);
            }
        }

        // A stale hot copy must not serve future reads: drop it, in the
        // background (its op is billed, the user does not wait for it).
        if let Some((p, name)) = hot_copy {
            self.retire([(p, &Self::key(name))], &mut batch.ops);
        }
        // The content changed, so accumulated heat describes a file that
        // no longer exists. Reset unconditionally — not just when a hot
        // copy had to be dropped — or a file one read short of the
        // threshold gets a hot copy on its first post-update read.
        self.reads_remove(path);

        let now = self.now();
        // The placement this update commits: the stripe it patched.
        let fragments = fragments.to_vec();
        self.meta.set_placement(
            path,
            Placement::ErasureCoded { layout, fragments, hot_copy: None },
            size,
            now,
        )?;
        Ok(self.flush_metadata(batch))
    }

    // ------------------------------------------------------------------
    // Inherent API mirrored by the Scheme impls
    // ------------------------------------------------------------------

    /// Creates a file, classifying it through the Workload Monitor.
    pub fn create_file(&self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let _span = self
            .telemetry
            .span_with("create_file")
            .field("bytes", data.len() as u64)
            .field("path", path)
            .start();
        let path = NormPath::parse(path)?;
        let result = match self.monitor_l().classify(data.len() as u64) {
            DataClass::SmallFile | DataClass::Metadata => self.create_small(&path, data),
            DataClass::LargeFile => self.create_large(&path, data),
        };
        if result.is_err() {
            // The file never came to exist; keep the monitor describing
            // live data only (its fractions feed the placement policy).
            self.monitor_l().forget(data.len() as u64);
        }
        result
    }

    /// Overwrites a byte range.
    pub fn update_file(&self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        let _span = self
            .telemetry
            .span_with("update_file")
            .field("bytes", data.len() as u64)
            .field("offset", offset)
            .field("path", path)
            .start();
        let npath = NormPath::parse(path)?;
        let inode = self.lend_inode(&npath)?;
        let size = inode.size;
        // `offset + len` can wrap for offsets near `u64::MAX`, which
        // would pass a plain `>` check and then panic at the slice index
        // in the update paths below. Checked arithmetic keeps adversarial
        // offsets in the error path.
        let in_range = offset.checked_add(data.len() as u64).is_some_and(|end| end <= size);
        if !in_range {
            return Err(SchemeError::BadRange {
                path: path.to_string(),
                offset,
                len: data.len() as u64,
                size,
            });
        }
        match &inode.stored {
            Stored::Pending => Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "file has no placement".to_string(),
            }),
            Stored::Replicated(object) => {
                let (providers, object) = (inode.providers().collect(), Arc::clone(object));
                self.update_replicated(&npath, providers, object, size, offset, data)
            }
            Stored::ErasureCoded(layout) => {
                let (fragments, hot_copy) = (inode.copies, inode.hot_copy);
                self.update_erasure(&npath, *layout, fragments, hot_copy, size, offset, data)
            }
        }
    }

    /// Deletes a file and its physical objects.
    pub fn delete_file(&self, path: &str) -> SchemeResult<BatchReport> {
        let _span = self.telemetry.span_with("delete_file").field("path", path).start();
        let npath = NormPath::parse(path)?;
        // Enumerate the doomed objects and journal the intent *before*
        // touching metadata or providers: a crash mid-delete then rolls
        // forward (finish the removes) instead of leaking billed storage.
        let inode = self.lend_inode(&npath)?;
        let doomed = Self::keys_of(inode.objects());
        let _intent = self.journal.begin(|| Intent::Delete {
            path: npath.as_str().to_string(),
            objects: doomed.iter().map(|(p, key)| (*p, Arc::clone(&key.name))).collect(),
        });
        self.meta.remove_file(&npath)?;
        // Cache and dirty-set keys are *normalized* paths (that is what
        // the write paths insert); evicting under the caller's raw
        // spelling would leave a live entry behind for aliases like
        // `/a//b`, and a stale cached body later poisons update digests.
        self.cache_l().remove(npath.as_str());
        self.reads_remove(&npath);
        self.dirty_l().forget(npath.as_str());
        self.sync_dirty_journal();
        self.monitor_l().forget(inode.size);

        // An object out of reach keeps its bytes (and its bill) while the
        // metadata is gone: `retire` leaves its removal to recovery.
        let mut ops = Vec::new();
        self.retire(doomed.iter().map(|(p, key)| (*p, key)), &mut ops);
        Ok(self.flush_metadata(BatchReport::parallel(ops)))
    }
}
