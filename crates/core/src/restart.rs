//! Crash restart: rebuilding a dispatcher purely from persisted state.
//!
//! [`Hyrd::restart`] is what a client process runs after dying mid-flight
//! (see [`crate::crashtest`]): it reconstructs the dispatcher from the
//! two durable sources a crashed client leaves behind —
//!
//! 1. the **metadata blocks** replicated on the providers (plus any
//!    block bytes still sitting in the journal's update log, which may
//!    be newer than anything that landed), and
//! 2. the **crash journal** ([`crate::journal`]): the update log and the
//!    intents of the operations in flight when the client died. The restarted client works on that journal
//!    itself; nothing is copied out of it or reinstalled.
//!
//! The flow, in order:
//!
//! * **Recover metadata**: [`crate::bootstrap`] with the log's pending
//!   block/diff puts among the candidates — highest intact version per
//!   block, chains folded, loaded parent-first, flush state seeded at
//!   each resolved version so re-flushes never regress (a torn or lost
//!   object strands what hung off it; the journal re-drives the
//!   operations that produced it).
//! * **Drop the log's `meta:` records** in place: the heal below
//!   re-establishes metadata replication from the winning bytes.
//! * **Heal replicas**: re-put each winning block to the metadata tier,
//!   converging replicas that diverged mid-flush (unavailable replicas
//!   get the write logged, like any replicated put).
//! * **Resolve intents** in journal order: creates roll *back* (the
//!   caller never got an ack; absence is the clean outcome), updates
//!   and deletes roll *forward* (redo is idempotent). An erasure-coded
//!   update's redo logs each range write it cannot land as a window,
//!   so every acknowledged window is on its provider or in the log.
//!   Each resolved intent is committed.
//! * **Recover providers**: run the consistency-update replay for every
//!   available provider, draining the log.
//! * **Collect garbage**: any object on an available provider that no
//!   inode, hot copy or metadata block references is removed, and
//!   pending-log puts for unreferenced objects are pruned. GC only runs
//!   when the whole fleet is reachable and no block was lost — with
//!   providers down, an "unreferenced" object may simply belong to
//!   metadata this client cannot see yet.
//! * **Flush** whatever metadata the resolution dirtied.
//!
//! The result is a [`RestartReport`] of plain scalars, so crash-torture
//! reports stay byte-deterministic.

use std::collections::BTreeSet;
use std::sync::Arc;

use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};
use hyrd_telemetry::Collector;

use crate::bootstrap::is_meta_object;
use crate::config::HyrdConfig;
use crate::dispatcher::Hyrd;
use crate::journal::{Intent, Journal};
use crate::recovery::LogRecord;
use crate::scheme::SchemeResult;

/// What a [`Hyrd::restart`] accomplished — all plain scalars so sweep
/// reports serialize byte-identically run over run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Metadata blocks recovered and loaded.
    pub meta_blocks_loaded: u64,
    /// Incremental diffs folded onto their base blocks.
    pub diffs_applied: u64,
    /// Block/diff candidates that failed length/checksum validation.
    pub torn_blocks: u64,
    /// Block/diff names with no intact candidate anywhere.
    pub blocks_lost: u64,
    /// Winning blocks re-replicated to the metadata tier.
    pub replicas_healed: u64,
    /// Recovery-log records the dead client left in the journal, less its
    /// metadata puts.
    pub log_records_restored: u64,
    /// In-flight intents rolled forward (updates, deletes).
    pub intents_rolled_forward: u64,
    /// In-flight intents rolled back (creates, unplanned updates).
    pub intents_rolled_back: u64,
    /// Unreferenced provider objects removed by the GC pass.
    pub orphans_removed: u64,
    /// Pending-log puts pruned because their object is unreferenced.
    pub pending_pruned: u64,
    /// Whether GC was skipped (providers down or blocks lost).
    pub gc_skipped: bool,
}

impl Hyrd {
    /// Restarts a crashed client: builds a fresh dispatcher over `fleet`
    /// and the crash `journal` the dead client shared, and rebuilds its
    /// state from the persisted metadata blocks and that journal (see
    /// the module docs for the exact flow).
    /// Disarm the fleet's crash switch first — a client cannot restart
    /// while the injected crash is still killing every op.
    pub fn restart(
        fleet: &Fleet,
        config: HyrdConfig,
        telemetry: Collector,
        journal: Journal,
    ) -> SchemeResult<(Self, RestartReport)> {
        let hyrd = Hyrd::with_journal(fleet, config, telemetry, journal)?;
        let journal = &hyrd.journal;
        let mut report = RestartReport::default();
        let _span = hyrd.telemetry.span_with("restart").start();
        if hyrd.telemetry.enabled() {
            hyrd.telemetry.event("restart.begin").emit();
        }

        // ------------------------------------------------------------------
        // Phase 1: recover the metadata blocks — the one bootstrap, with
        // the log's pending metadata puts among the candidates.
        // ------------------------------------------------------------------
        let loaded = hyrd.load_namespace(Some(&journal.meta_puts()))?;
        report.meta_blocks_loaded = loaded.dirs.len() as u64;
        report.diffs_applied = loaded.dirs.iter().map(|d| d.chain.len() as u64).sum();
        report.torn_blocks = loaded.torn;
        report.blocks_lost = loaded.lost;

        // ------------------------------------------------------------------
        // Phase 2: drop the log's `meta:` records — the heal below
        // re-establishes metadata replication from the winning
        // (max-version) bytes, which supersede whatever block bytes the
        // log carried.
        // ------------------------------------------------------------------
        journal.retain_log(|record| match record {
            LogRecord::Put { key, .. } => !is_meta_object(&key.name),
            LogRecord::Remove { .. } | LogRecord::Window { .. } => true,
        });
        report.log_records_restored = journal.pending_len() as u64;

        // ------------------------------------------------------------------
        // Phase 3: heal metadata replicas (diverged mid-flush crashes).
        // Every winner ships as a *full* block at its resolved version —
        // chains are compacted by restart, so the seeded stores carry no
        // live diffs and the old diff objects become orphans for phase 6.
        // ------------------------------------------------------------------
        let targets = hyrd.replica_targets();
        for dir in &loaded.dirs {
            let key = Self::key(MetadataBlock::object_name(&dir.block.dir));
            hyrd.put_replicated(&key, &dir.bytes, targets, &mut Vec::new());
            report.replicas_healed += 1;
        }

        // ------------------------------------------------------------------
        // Phase 4: resolve in-flight intents, in journal order.
        // ------------------------------------------------------------------
        for (seq, intent) in journal.intents() {
            hyrd.resolve_intent(&intent, &mut report);
            journal.commit(seq);
        }

        // ------------------------------------------------------------------
        // Phase 5: consistency-update replay for every available
        // provider (drains the restored log).
        // ------------------------------------------------------------------
        for p in fleet.available() {
            let _ = hyrd.recover_provider(p.id());
        }

        // ------------------------------------------------------------------
        // Phase 6: garbage-collect orphaned objects. Only sound when the
        // whole fleet answered and every block decoded: an object that
        // looks unreferenced might belong to metadata this client could
        // not see.
        // ------------------------------------------------------------------
        let gc_sound = report.blocks_lost == 0 && fleet.available().len() == fleet.len();
        if gc_sound {
            let refs = hyrd.audit_references();
            for p in fleet.available() {
                for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                    if refs.contains(&name) {
                        continue;
                    }
                    let orphan = [(p.id(), &Self::key(name.as_str()))];
                    if hyrd.retire(orphan, &mut Vec::new()).removed > 0 {
                        report.orphans_removed += 1;
                        if hyrd.telemetry.enabled() {
                            hyrd.telemetry
                                .event("restart.orphan_removed")
                                .field("object", name.as_str())
                                .field("provider", p.name())
                                .emit();
                            hyrd.telemetry.inc("restart.orphans_removed", 1);
                        }
                    }
                }
            }
            // Pending puts for unreferenced objects would only recreate
            // the orphans on replay, and their windows patch nothing;
            // prune them (removes stay — they still reclaim storage on
            // providers currently down).
            let pruned = journal.retain_log(|record| match record {
                LogRecord::Put { key, .. } | LogRecord::Window { key, .. } => {
                    refs.contains(&*key.name)
                }
                LogRecord::Remove { .. } => true,
            });
            report.pending_pruned = pruned as u64;
        } else {
            report.gc_skipped = true;
            if hyrd.telemetry.enabled() {
                hyrd.telemetry.event("restart.gc_skipped").emit();
            }
        }

        // ------------------------------------------------------------------
        // Phase 7: ship whatever metadata the resolution dirtied.
        // ------------------------------------------------------------------
        let _ = hyrd.flush_metadata(BatchReport::empty());

        if hyrd.telemetry.enabled() {
            hyrd.telemetry
                .event("restart.complete")
                .field("meta_blocks", report.meta_blocks_loaded)
                .field("torn", report.torn_blocks)
                .field("rolled_forward", report.intents_rolled_forward)
                .field("rolled_back", report.intents_rolled_back)
                .field("orphans_removed", report.orphans_removed)
                .emit();
            hyrd.telemetry.inc("restart.completes", 1);
        }
        Ok((hyrd, report))
    }

    /// [`Hyrd::retire`] for intent resolution, which keeps no op
    /// accounting.
    fn sweep<'a>(&self, objects: impl IntoIterator<Item = &'a (ProviderId, Arc<str>)>) {
        let mut ops = Vec::new();
        for (p, name) in objects {
            self.retire([(*p, &Self::key(Arc::clone(name)))], &mut ops);
        }
    }

    /// Resolves one in-flight intent (see the module docs for the
    /// roll-forward / roll-back contract of each variant).
    fn resolve_intent(&self, intent: &Intent, report: &mut RestartReport) {
        match intent {
            Intent::Create { path, objects } => {
                // Roll back: the caller never got an ack, so the clean
                // outcome is total absence — no objects, no metadata.
                self.sweep(objects);
                if let Ok(npath) = NormPath::parse(path) {
                    if self.meta.with_inode(&npath, |_| ()).is_ok() {
                        let _ = self.meta.remove_file(&npath);
                    }
                }
                report.intents_rolled_back += 1;
            }
            Intent::UpdateReplicated { object, providers, bytes, .. } => {
                // Roll forward: the intent holds the complete new
                // content, so re-putting it everywhere is idempotent and
                // converges every replica on the new version.
                let key = Self::key(Arc::clone(object));
                self.record_digest(key.name.clone(), bytes);
                for &p in providers {
                    let _ = self.put_object(p, &key, bytes);
                }
                report.intents_rolled_forward += 1;
            }
            Intent::UpdateErasure { path, writes, hot_remove } => {
                if writes.is_empty() {
                    // The crash landed before the delta was planned:
                    // no fragment was touched, the old version (and any
                    // hot copy) still stands in full.
                    report.intents_rolled_back += 1;
                    return;
                }
                // Roll forward: redo every planned range write (range
                // puts are idempotent); what cannot be redone is logged
                // as a window for recover_provider to replay.
                let mut missed = Vec::new();
                for w in writes {
                    self.integrity_l().forget(&w.object);
                    if !self.redo_fragment_write(w) {
                        missed.push(w.clone());
                    }
                }
                self.journal.log_windows(&Arc::from(path.as_str()), missed);
                self.sweep(hot_remove);
                // The stripe now holds the new bytes; a recovered
                // placement may still advertise the stale hot copy.
                if let Ok(npath) = NormPath::parse(path) {
                    let recovered = self.meta.inode(&npath).ok();
                    if let Some(inode) = recovered {
                        if let Placement::ErasureCoded { layout, fragments, hot_copy: Some(_) } =
                            inode.placement
                        {
                            let now = self.now();
                            let _ = self.meta.set_placement(
                                &npath,
                                Placement::ErasureCoded { layout, fragments, hot_copy: None },
                                inode.size,
                                now,
                            );
                        }
                    }
                }
                report.intents_rolled_forward += 1;
            }
            Intent::Delete { path, objects } => {
                // Roll forward: finish removing the objects and the
                // metadata entry.
                if let Ok(npath) = NormPath::parse(path) {
                    if self.meta.with_inode(&npath, |_| ()).is_ok() {
                        let _ = self.meta.remove_file(&npath);
                    }
                }
                self.sweep(objects);
                report.intents_rolled_forward += 1;
            }
            Intent::Migrate { path, new_objects, old_objects } => {
                // The metastore flip is the migration's commit point and
                // it is flushed durable *before* any GC. So the recovered
                // placement decides: if it references a staged object the
                // flip committed — roll forward (finish the GC of the old
                // placement); if not, the flip never happened — roll back
                // (remove the staged objects). A deleted file references
                // neither set, so both are swept.
                let staged = |inode: &hyrd_metastore::Inode| {
                    let mut placed = inode.placement.objects();
                    placed.any(|(_, name)| new_objects.iter().any(|(_, staged)| staged == name))
                };
                // `None`: the file is gone; else whether the flip committed.
                let committed = NormPath::parse(path)
                    .ok()
                    .and_then(|npath| self.meta.with_inode(&npath, staged).ok());
                match committed {
                    None => {
                        self.sweep(new_objects.iter().chain(old_objects));
                        report.intents_rolled_forward += 1;
                    }
                    Some(true) => {
                        self.sweep(old_objects);
                        report.intents_rolled_forward += 1;
                    }
                    Some(false) => {
                        self.sweep(new_objects);
                        report.intents_rolled_back += 1;
                    }
                }
                // Heat accumulated against the old scheme means nothing
                // for the new one (and the file may be gone entirely).
                if let Ok(npath) = NormPath::parse(path) {
                    self.reads_remove(&npath);
                }
            }
        }
    }

    /// Every object name the dispatcher's state references: placement
    /// objects (replicas, fragments, hot copies) of every file, the
    /// metadata block of every directory, plus every live (unsuperseded)
    /// metadata diff in a flush chain. Anything a provider stores
    /// outside this set is an orphan (the durability auditor's rule, and
    /// the restart GC's removal predicate).
    pub fn audit_references(&self) -> BTreeSet<String> {
        let mut refs = BTreeSet::new();
        for (dir, files) in self.meta.walk() {
            refs.insert(MetadataBlock::object_name(&dir).to_string());
            for (_, inode) in files {
                refs.extend(inode.placement.objects().map(|(_, name)| name.to_string()));
            }
        }
        refs.extend(self.meta.live_diff_objects());
        refs
    }
}
