//! Adaptive redundancy policy + online scheme migration (DESIGN.md §16).
//!
//! HyRD's static size threshold freezes every file in the tier its
//! creation size picked: a 3 MB file that turns out to be read-hot pays
//! fragment fan-in forever, and a 512 KB file written once and never
//! touched again pays `replication_level`× storage forever. The policy
//! engine walks HyRES's replication↔EC trade-off curve per file, from
//! three observed signals:
//!
//! * **heat** — the sharded hot-read counters the dispatcher already
//!   keeps (every read class bumps them while the policy is enabled);
//! * **size + idle time** — from the inode (virtual clock, so decisions
//!   replay deterministically);
//! * **provider health** — optional [`ProviderHealthView`] SLIs from the
//!   observatory; migration is deferred while any provider looks sick,
//!   because re-encoding data *during* an incident converts a redundancy
//!   scheme change into a durability gamble.
//!
//! [`Hyrd::migrate_pass`] is the background migrator, modeled on the
//! scrub pass: it walks the namespace on the virtual clock, asks
//! [`PolicyEngine::decide`] about every file, and re-encodes at most
//! `max_per_pass` of them. A migration never blocks readers:
//!
//! 1. read the current bytes through the ordinary (degraded-capable)
//!    read path;
//! 2. journal an [`Intent::Migrate`] naming both object sets;
//! 3. **publish** the new placement's objects (crashpoint
//!    `migrate.publish.pre`) through `Hyrd::put_object`, one target at
//!    a time with no desperation pass: a migration below its durability
//!    floor aborts, it does not force breakers;
//! 4. **flip** the metadata through
//!    [`set_placement_if_version`](hyrd_metastore::ShardedMetaStore::set_placement_if_version)
//!    — an OCC compare-and-swap at the version the bytes were read at
//!    (crashpoints `migrate.flip.pre` / `migrate.flip.post`). A
//!    concurrent writer moved the file? The flip refuses, the staged
//!    objects are removed, the migration is aborted — the writer wins.
//! 5. flush the flip durable, **then** garbage-collect the old
//!    placement's objects (crashpoints `migrate.gc.pre` /
//!    `migrate.gc.post`). The flush-before-GC ordering is what lets
//!    restart resolve a half-migrated file from recovered metadata
//!    alone: placement references a staged object ⇒ the flip committed
//!    ⇒ roll the GC forward; otherwise roll the publish back.
//!
//! Readers racing the GC hold a placement snapshot whose objects may
//! vanish mid-read; `read_file` retries on a version bump, so they
//! converge on the new placement instead of failing.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use hyrd_gcsapi::{BatchReport, ObjectKey, OpReport, ProviderId};
use hyrd_metastore::{Inode, NormPath, Placement};

use crate::config::PolicyConfig;
use crate::dispatcher::Hyrd;
use crate::journal::Intent;
use crate::observatory::ProviderHealthView;
use crate::scheme::SchemeResult;

/// Which direction a migration moves a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Erasure-coded → whole-object replication on the performance tier
    /// (the file is hot: fragment fan-in on every read costs more than
    /// the extra copies).
    Promote,
    /// Replicated → erasure-coded fragments on the cost tier (the file
    /// is cold and large: paying `replication_level`× storage for data
    /// nobody reads is pure waste).
    Demote,
}

/// SLI gate: migration only runs when every provider's measured
/// availability is at least this.
pub const MIN_AVAILABILITY: f64 = 0.9;

/// SLI gate: migration only runs when every provider's error EWMA is at
/// most this.
pub const MAX_ERROR_EWMA: f64 = 0.5;

/// The placement decision function: pure, so it can be unit-tested
/// without a fleet and reasoned about without reading the migrator.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    config: PolicyConfig,
}

impl PolicyEngine {
    /// Builds an engine over the given tunables.
    pub fn new(config: PolicyConfig) -> Self {
        PolicyEngine { config }
    }

    /// What, if anything, should happen to this file — from its current
    /// placement, its observed read count and the virtual time `now`.
    pub fn decide(&self, inode: &Inode, reads: u32, now: Duration) -> Option<MigrationKind> {
        match &inode.placement {
            Placement::Pending => None,
            Placement::ErasureCoded { .. } => {
                (reads >= self.config.promote_reads).then_some(MigrationKind::Promote)
            }
            Placement::Replicated { .. } => {
                // Cold: not read once since its creation or last migration.
                let cold = reads == 0;
                let heavy = inode.size >= self.config.demote_min_bytes;
                let idle = now.saturating_sub(inode.modified) >= self.config.demote_idle;
                (cold && heavy && idle).then_some(MigrationKind::Demote)
            }
        }
    }

    /// SLI gate: every provider must clear the availability floor and
    /// the error-EWMA ceiling for migration to run at all.
    pub fn fleet_healthy(&self, slis: &[ProviderHealthView]) -> bool {
        slis.iter().all(|p| p.availability >= MIN_AVAILABILITY && p.error_ewma <= MAX_ERROR_EWMA)
    }
}

hyrd_telemetry::json_struct! {
    /// What one [`Hyrd::migrate_pass`] accomplished — plain scalars, so
    /// drill reports stay byte-deterministic.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MigrationReport {
        /// Files examined by the decision function.
        pub scanned: u64,
        /// Files moved EC → replicated.
        pub promoted: u64,
        /// Files moved replicated → EC.
        pub demoted: u64,
        /// Migrations started but abandoned (publish below the durability
        /// floor, or the OCC flip lost to a concurrent writer). Aborts leave
        /// the old placement fully intact.
        pub aborted: u64,
        /// Passes skipped whole because a provider was down or failed the
        /// SLI gate.
        pub skipped_unhealthy: u64,
        /// Old-placement objects removed by the post-flip GC.
        pub gc_removed: u64,
        /// Old-placement objects left to recovery (remove logged).
        pub gc_logged: u64,
        /// Logical bytes re-encoded by completed migrations.
        pub bytes_rewritten: u64,
    }
}

impl MigrationReport {
    /// Merges another report into this one.
    pub fn absorb(&mut self, other: MigrationReport) {
        self.scanned += other.scanned;
        self.promoted += other.promoted;
        self.demoted += other.demoted;
        self.aborted += other.aborted;
        self.skipped_unhealthy += other.skipped_unhealthy;
        self.gc_removed += other.gc_removed;
        self.gc_logged += other.gc_logged;
        self.bytes_rewritten += other.bytes_rewritten;
    }
}

impl Hyrd {
    /// One background migration pass with no SLI input (the fleet
    /// availability gate still applies). See [`Self::migrate_pass_with`].
    pub fn migrate_pass(&self) -> SchemeResult<(MigrationReport, BatchReport)> {
        self.migrate_pass_with(None)
    }

    /// One background migration pass: walk the namespace, decide every
    /// file through the [`PolicyEngine`], migrate at most
    /// `policy.max_per_pass` of them (namespace order, so same state ⇒
    /// same candidates ⇒ byte-identical traces). A no-op unless
    /// `config.policy.enabled`.
    ///
    /// `slis` is the observatory's measured per-provider health; when
    /// provided, the whole pass is skipped unless every provider clears
    /// the configured floors. Migration is also skipped outright while
    /// any provider is unavailable — GC against a down provider would
    /// only queue removes, and re-encoding during an outage narrows the
    /// durability margin exactly when it matters most.
    pub fn migrate_pass_with(
        &self,
        slis: Option<&[ProviderHealthView]>,
    ) -> SchemeResult<(MigrationReport, BatchReport)> {
        let mut report = MigrationReport::default();
        if !self.config.policy.enabled {
            return Ok((report, BatchReport::empty()));
        }
        let _span = self.telemetry.span("migrate.pass");
        let engine = PolicyEngine::new(self.config.policy);
        let fleet_up = self.fleet.available().len() == self.fleet.len();
        let slis_ok = slis.is_none_or(|s| engine.fleet_healthy(s));
        if !fleet_up || !slis_ok {
            report.skipped_unhealthy = 1;
            if self.telemetry.enabled() {
                self.telemetry
                    .event("policy.pass_skipped")
                    .field("fleet_up", u64::from(fleet_up))
                    .field("slis_ok", u64::from(slis_ok))
                    .emit();
                self.telemetry.inc("policy.passes_skipped", 1);
            }
            return Ok((report, BatchReport::empty()));
        }

        // Decide first, then migrate: decisions come from a consistent
        // sweep of the namespace, and the per-file OCC flip protects
        // against anything that moves between the sweep and the flip.
        let now = self.now();
        let mut candidates: Vec<(NormPath, MigrationKind)> = Vec::new();
        'scan: for (_, files) in self.meta.walk() {
            for (fpath, inode) in files {
                report.scanned += 1;
                if let Some(kind) = engine.decide(&inode, self.reads_of(&fpath), now) {
                    candidates.push((fpath, kind));
                    if candidates.len() >= self.config.policy.max_per_pass {
                        break 'scan;
                    }
                }
            }
        }

        let mut ops: Vec<OpReport> = Vec::new();
        for (path, kind) in candidates {
            self.migrate_one(&path, kind, &mut report, &mut ops);
        }
        if self.telemetry.enabled() {
            self.telemetry
                .event("policy.pass")
                .field("scanned", report.scanned)
                .field("promoted", report.promoted)
                .field("demoted", report.demoted)
                .field("aborted", report.aborted)
                .emit();
        }
        // Background traffic: latencies sum serially, like scrub.
        Ok((report, BatchReport::serial(ops)))
    }

    /// Migrates one file (or aborts leaving the old placement intact).
    /// Failures here are absorbed into the report — a background pass
    /// must never take the client down over one stubborn file.
    fn migrate_one(
        &self,
        path: &NormPath,
        kind: MigrationKind,
        report: &mut MigrationReport,
        ops: &mut Vec<OpReport>,
    ) {
        let _span = self.telemetry.span_with("migrate.file").field("path", path.as_str()).start();
        // Re-fetch under the span: the inode's version is the OCC ticket
        // the flip below validates, so it must cover the byte read too.
        let Ok(inode) = self.meta.inode(path) else {
            return;
        };
        let outcome = match kind {
            MigrationKind::Promote => self.migrate_promote(path, &inode, report, ops),
            MigrationKind::Demote => self.migrate_demote(path, &inode, report, ops),
        };
        match outcome {
            Some(bytes) => {
                match kind {
                    MigrationKind::Promote => report.promoted += 1,
                    MigrationKind::Demote => report.demoted += 1,
                }
                report.bytes_rewritten += bytes;
                if self.telemetry.enabled() {
                    let (event, counter) = match kind {
                        MigrationKind::Promote => ("policy.promote", "policy.promotions"),
                        MigrationKind::Demote => ("policy.demote", "policy.demotions"),
                    };
                    self.telemetry
                        .event(event)
                        .field("path", path.as_str())
                        .field("bytes", bytes)
                        .emit();
                    self.telemetry.inc(counter, 1);
                    self.telemetry.inc("policy.migrated_bytes", bytes);
                }
            }
            None => {
                report.aborted += 1;
                if self.telemetry.enabled() {
                    self.telemetry.event("policy.abort").field("path", path.as_str()).emit();
                    self.telemetry.inc("policy.aborts", 1);
                }
            }
        }
    }

    /// EC → replicated. Returns the logical bytes moved, or `None` on
    /// abort (old placement untouched).
    fn migrate_promote(
        &self,
        path: &NormPath,
        inode: &Inode,
        report: &mut MigrationReport,
        ops: &mut Vec<OpReport>,
    ) -> Option<u64> {
        let Placement::ErasureCoded { layout, fragments, .. } = &inode.placement else {
            return None;
        };
        let (bytes, read_batch) = self.read_erasure(path.as_str(), layout, fragments).ok()?;
        ops.extend(read_batch.ops);

        let providers = self.replica_targets();
        let copies = vec![bytes.clone(); providers.len()];
        let object = crate::scheme::object_name(path.as_str());
        let replicated = Placement::Replicated { providers: providers.to_vec(), object };
        if !self.migrate_commit(path, inode, replicated, copies, report, ops) {
            return None;
        }
        // Stale dirty-fragment marks describe fragments that no longer
        // exist.
        self.dirty_l().forget(path.as_str());
        self.sync_dirty_journal();
        // The whole object now lives replicated: updates can come
        // through the write-through cache like any replicated file.
        self.cache_l().put(path, bytes.clone());
        self.journal.crashpoint("migrate.gc.post");
        Some(bytes.len() as u64)
    }

    /// Replicated → EC. Returns the logical bytes moved, or `None` on
    /// abort (old placement untouched).
    fn migrate_demote(
        &self,
        path: &NormPath,
        inode: &Inode,
        report: &mut MigrationReport,
        ops: &mut Vec<OpReport>,
    ) -> Option<u64> {
        let Placement::Replicated { providers, object } = &inode.placement else {
            return None;
        };
        let bytes = match self.cache_l().get(path.as_str()) {
            Some(b) => b,
            None => {
                let key = Self::key(Arc::clone(object));
                let providers = providers.iter().copied();
                let (b, read_batch) =
                    self.read_replicated(path.as_str(), providers, &key, Some(inode.size)).ok()?;
                ops.extend(read_batch.ops);
                b
            }
        };

        let base = crate::scheme::object_name(path.as_str());
        let (layout, encoded) = self.planner.split_encode(self.code.as_code(), &bytes).ok()?;
        let targets = self.fragment_targets().iter().enumerate();
        let coded = Placement::ErasureCoded {
            layout,
            fragments: targets.map(|(i, &t)| (t, crate::scheme::fragment_name(&base, i))).collect(),
            hot_copy: None,
        };
        let encoded = encoded.into_iter().map(Bytes::from).collect();
        if !self.migrate_commit(path, inode, coded, encoded, report, ops) {
            return None;
        }
        // The cached whole object would serve stale bytes if a later
        // update went through the replicated path; the file is EC now.
        self.cache_l().remove(path.as_str());
        self.journal.crashpoint("migrate.gc.post");
        Some(bytes.len() as u64)
    }

    /// Steps 2–5 of the module docs, for either direction: journal the
    /// intent, publish `data` (one buffer per object of `placement`, in
    /// [`Placement::objects`] order), flip the file to `placement` at
    /// the snapshot's version, flush, collect the old objects. `false`
    /// is an abort — too few objects landed, or a writer (or delete) got
    /// to the file first and its placement is the truth: the staged
    /// objects are removed and the old placement stands.
    fn migrate_commit(
        &self,
        path: &NormPath,
        inode: &Inode,
        placement: Placement,
        data: Vec<Bytes>,
        report: &mut MigrationReport,
        ops: &mut Vec<OpReport>,
    ) -> bool {
        let owned = |placement: &Placement| -> Vec<(ProviderId, Arc<str>)> {
            placement.objects().map(|(p, name)| (p, Arc::clone(name))).collect()
        };
        let (new_objects, old_objects) = (owned(&placement), owned(&inode.placement));
        let _intent = self.journal.begin(|| Intent::Migrate {
            path: path.as_str().to_string(),
            new_objects: new_objects.clone(),
            old_objects: old_objects.clone(),
        });

        self.journal.crashpoint("migrate.publish.pre");
        let mut live = 0;
        let mut recorded: Option<&ObjectKey> = None;
        let keys = Self::keys_of(placement.objects());
        for ((target, key), bytes) in keys.iter().zip(&data) {
            // Replicas share one object name, and so one digest.
            if recorded.is_none_or(|last| last.name != key.name) {
                self.record_digest(key.name.clone(), bytes);
                recorded = Some(key);
            }
            if let Ok(put) = self.put_object(*target, key, bytes) {
                ops.push(put);
                live += 1;
            }
        }
        // The durability floor: one replica, or enough fragments to
        // decode the object back.
        let floor = match &placement {
            Placement::ErasureCoded { layout, .. } => layout.m,
            _ => 1,
        };
        let flipped = live >= floor && {
            self.journal.crashpoint("migrate.flip.pre");
            let now = self.now();
            self.meta
                .set_placement_if_version(path, inode.version, placement, inode.size, now)
                .unwrap_or(false)
        };
        if !flipped {
            self.migrate_sweep(&new_objects, None, ops);
            return false;
        }
        self.journal.crashpoint("migrate.flip.post");
        // The flip must be durable *before* the old objects go away —
        // restart decides forward-vs-back from recovered metadata.
        let meta_batch = self.flush_metadata(BatchReport::empty());
        ops.extend(meta_batch.ops);

        self.journal.crashpoint("migrate.gc.pre");
        self.migrate_sweep(&old_objects, Some(report), ops);
        // Fresh heat epoch for the new scheme.
        self.reads_remove(path);
        true
    }

    /// [`Hyrd::retire`]s a set of placement objects. With `report`, the
    /// sweep is a post-flip GC and counts as such; without, it unstages
    /// an aborted publish.
    fn migrate_sweep(
        &self,
        doomed: &[(ProviderId, Arc<str>)],
        report: Option<&mut MigrationReport>,
        ops: &mut Vec<OpReport>,
    ) {
        let keys = Self::keys_of(doomed.iter().map(|(p, name)| (*p, name)));
        let retired = self.retire(keys.iter().map(|(p, key)| (*p, key)), ops);
        if let Some(report) = report {
            report.gc_removed += retired.removed;
            report.gc_logged += retired.logged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyrdConfig;
    use crate::driver::synth_content;
    use hyrd_cloudsim::{Fleet, SimClock};

    const KB: usize = 1024;
    const MB: usize = 1024 * 1024;

    fn policy_config() -> HyrdConfig {
        let mut c = HyrdConfig::default();
        c.policy.enabled = true;
        c.policy.promote_reads = 3;
        c.policy.demote_idle = Duration::from_secs(60);
        c.policy.demote_min_bytes = 64 * KB as u64;
        c
    }

    fn engine(c: &HyrdConfig) -> PolicyEngine {
        PolicyEngine::new(c.policy)
    }

    #[test]
    fn decide_promotes_hot_ec_and_demotes_cold_replicas() {
        let c = policy_config();
        let e = engine(&c);
        let now = Duration::from_secs(3600);
        let ec = Inode {
            id: hyrd_metastore::FileId(1),
            size: 3 * MB as u64,
            placement: Placement::ErasureCoded {
                layout: hyrd_gfec::FragmentLayout { object_len: 3 * MB, m: 3, n: 4, shard_len: MB },
                fragments: Vec::new(),
                hot_copy: None,
            },
            version: 1,
            created: Duration::ZERO,
            modified: Duration::ZERO,
        };
        assert_eq!(e.decide(&ec, 3, now), Some(MigrationKind::Promote));
        assert_eq!(e.decide(&ec, 2, now), None, "below the heat bar");

        let repl = Inode {
            id: hyrd_metastore::FileId(2),
            size: 512 * KB as u64,
            placement: Placement::Replicated { providers: Vec::new(), object: "o".into() },
            version: 1,
            created: Duration::ZERO,
            modified: Duration::ZERO,
        };
        assert_eq!(e.decide(&repl, 0, now), Some(MigrationKind::Demote));
        assert_eq!(e.decide(&repl, 1, now), None, "it has a reader");
        assert_eq!(e.decide(&repl, 0, Duration::from_secs(30)), None, "too young");
        let tiny = Inode { size: 4 * KB as u64, ..repl.clone() };
        assert_eq!(e.decide(&tiny, 0, now), None, "not worth fragmenting");
        let pending = Inode { placement: Placement::Pending, ..repl };
        assert_eq!(e.decide(&pending, 0, now), None);
    }

    #[test]
    fn sli_gate_blocks_on_any_sick_provider() {
        let c = policy_config();
        let e = engine(&c);
        let healthy = ProviderHealthView {
            provider: "a".into(),
            availability: 1.0,
            error_ewma: 0.0,
            ops: 10,
            faults: 0,
            cancels: 0,
            backoffs: 0,
            breaker_rejects: 0,
            bytes_in: 0,
            bytes_out: 0,
            latency_p50_ns: 0,
            latency_p99_ns: 0,
            downtime_ns: 0,
            outages: 0,
            queue_depth_peak: 0,
        };
        let mut sick = healthy.clone();
        sick.availability = 0.5;
        assert!(e.fleet_healthy(std::slice::from_ref(&healthy)));
        assert!(!e.fleet_healthy(&[healthy.clone(), sick]));
        let mut flaky = healthy.clone();
        flaky.error_ewma = 0.9;
        assert!(!e.fleet_healthy(&[healthy, flaky]));
    }

    #[test]
    fn pass_is_a_noop_when_the_policy_is_off() {
        let fleet = Fleet::standard_four(SimClock::new());
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        h.create_file("/f", &synth_content("/f", 0, 8 * KB)).expect("up");
        let (report, batch) = h.migrate_pass().expect("pass runs");
        assert_eq!(report, MigrationReport::default());
        assert_eq!(batch.op_count(), 0);
    }

    #[test]
    fn hot_large_file_is_promoted_to_replication() {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let h = Hyrd::new(&fleet, policy_config()).expect("valid config");
        let data = synth_content("/big", 0, 3 * MB);
        h.create_file("/big", &data).expect("up");
        for _ in 0..4 {
            let (bytes, _) = h.read_file("/big").expect("up");
            assert_eq!(&bytes[..], &data[..]);
        }
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.promoted, 1);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.bytes_rewritten, 3 * MB as u64);
        assert!(report.gc_removed >= 4, "all four fragments reclaimed");

        let npath = NormPath::parse("/big").unwrap();
        let inode = h.meta.inode(&npath).expect("still there");
        assert!(
            matches!(inode.placement, Placement::Replicated { .. }),
            "placement flipped to replication"
        );
        let (bytes, _) = h.read_file("/big").expect("up");
        assert_eq!(&bytes[..], &data[..], "bytes survive the scheme change");
        // The migrated file starts a fresh heat epoch.
        assert_eq!(h.reads_of(&npath), 1, "only the post-migration read counts");
        // Nothing orphaned: every stored object is referenced.
        let refs = h.audit_references();
        for p in fleet.providers() {
            for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                assert!(refs.contains(&name), "orphan left behind: {name}");
            }
        }
    }

    #[test]
    fn cold_replicated_file_is_demoted_to_erasure_coding() {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let h = Hyrd::new(&fleet, policy_config()).expect("valid config");
        let data = synth_content("/cold", 0, 512 * KB);
        h.create_file("/cold", &data).expect("up");
        clock.advance(Duration::from_secs(120));
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.demoted, 1);
        assert_eq!(report.aborted, 0);

        let npath = NormPath::parse("/cold").unwrap();
        let inode = h.meta.inode(&npath).expect("still there");
        assert!(
            matches!(inode.placement, Placement::ErasureCoded { .. }),
            "placement flipped to erasure coding"
        );
        let (bytes, _) = h.read_file("/cold").expect("up");
        assert_eq!(&bytes[..], &data[..]);
        let refs = h.audit_references();
        for p in fleet.providers() {
            for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                assert!(refs.contains(&name), "orphan left behind: {name}");
            }
        }
        // Round-trip guard: the demoted file is cold again (counter
        // reset), so a second pass finds nothing to do.
        clock.advance(Duration::from_secs(120));
        let (again, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(again.promoted + again.demoted, 0, "no ping-pong");
    }

    #[test]
    fn pass_skips_while_a_provider_is_down() {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let h = Hyrd::new(&fleet, policy_config()).expect("valid config");
        h.create_file("/cold", &synth_content("/cold", 0, 512 * KB)).expect("up");
        clock.advance(Duration::from_secs(120));
        fleet.providers()[0].force_down();
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.skipped_unhealthy, 1);
        assert_eq!(report.demoted, 0, "nothing migrates during an outage");
        fleet.providers()[0].restore();
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.demoted, 1, "migration resumes with the fleet whole");
    }

    #[test]
    fn pass_respects_the_sli_gate() {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let h = Hyrd::new(&fleet, policy_config()).expect("valid config");
        h.create_file("/cold", &synth_content("/cold", 0, 512 * KB)).expect("up");
        clock.advance(Duration::from_secs(120));
        let sick = ProviderHealthView {
            provider: "Amazon S3".into(),
            availability: 0.2,
            error_ewma: 0.0,
            ops: 10,
            faults: 8,
            cancels: 0,
            backoffs: 0,
            breaker_rejects: 0,
            bytes_in: 0,
            bytes_out: 0,
            latency_p50_ns: 0,
            latency_p99_ns: 0,
            downtime_ns: 0,
            outages: 1,
            queue_depth_peak: 0,
        };
        let (report, _) = h.migrate_pass_with(Some(&[sick])).expect("pass runs");
        assert_eq!(report.skipped_unhealthy, 1);
        assert_eq!(report.demoted, 0);
    }

    #[test]
    fn max_per_pass_bounds_the_background_traffic() {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let mut config = policy_config();
        config.policy.max_per_pass = 2;
        let h = Hyrd::new(&fleet, config).expect("valid config");
        for i in 0..5 {
            let path = format!("/cold{i}");
            h.create_file(&path, &synth_content(&path, 0, 256 * KB)).expect("up");
        }
        clock.advance(Duration::from_secs(120));
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.demoted, 2, "capped at max_per_pass");
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.demoted, 2);
        let (report, _) = h.migrate_pass().expect("pass runs");
        assert_eq!(report.demoted, 1, "the tail drains on later passes");
    }

    #[test]
    fn occ_flip_loses_to_a_concurrent_writer() {
        // Simulate the race by bumping the inode version between the
        // candidate sweep and the flip: migrate_one re-reads the inode,
        // so the stand-in is a version bump after the re-read — easiest
        // provoked by updating the file and then calling the internal
        // promote with the stale inode snapshot.
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let h = Hyrd::new(&fleet, policy_config()).expect("valid config");
        let data = synth_content("/big", 0, 3 * MB);
        h.create_file("/big", &data).expect("up");
        let npath = NormPath::parse("/big").unwrap();
        let stale = h.meta.inode(&npath).expect("exists");
        // The writer wins the race: version moves past the snapshot.
        h.update_file("/big", 0, &synth_content("/big", 1, 4 * KB)).expect("up");
        let mut report = MigrationReport::default();
        let mut ops = Vec::new();
        let outcome = h.migrate_promote(&npath, &stale, &mut report, &mut ops);
        assert_eq!(outcome, None, "stale snapshot must not flip");
        let inode = h.meta.inode(&npath).expect("still there");
        assert!(
            matches!(inode.placement, Placement::ErasureCoded { .. }),
            "the writer's placement stands"
        );
        // The staged replica was unstaged: no orphans.
        let refs = h.audit_references();
        for p in fleet.providers() {
            for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                assert!(refs.contains(&name), "orphan left behind: {name}");
            }
        }
        // And the post-update content still reads back.
        let (bytes, _) = h.read_file("/big").expect("up");
        assert_eq!(bytes.len(), data.len());
    }

    #[test]
    fn report_absorb_sums_fields() {
        let mut a = MigrationReport { scanned: 1, promoted: 2, ..Default::default() };
        let b = MigrationReport {
            scanned: 3,
            demoted: 4,
            gc_removed: 5,
            bytes_rewritten: 6,
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.scanned, 4);
        assert_eq!(a.promoted, 2);
        assert_eq!(a.demoted, 4);
        assert_eq!(a.gc_removed, 5);
        assert_eq!(a.bytes_rewritten, 6);
    }
}
