//! The Request Dispatcher (Figure 1, middle module) — HyRD proper.
//!
//! "Based on the data type information (i.e., file system metadata, small
//! file, or large file), the Request Dispatcher module decides which
//! redundancy scheme should be used for the incoming data, and
//! distributes the data to the corresponding cloud storage providers"
//! (§III-B). Concretely:
//!
//! * **metadata + small files** → full replicas (default level 2) on the
//!   performance-oriented tier, fastest provider first;
//! * **large files** → erasure-coded fragments (default RAID5 3+1) over
//!   the cost-oriented tier (cheapest storage first);
//! * **large reads** → any `m` fragments in parallel, preferring cheapest
//!   egress (§IV-B) or fastest (ablation), reconstructing around outages
//!   (degraded read, recovery phase 1);
//! * **small updates** → one parallel replica-write round (the client
//!   write-through cache supplies the base version);
//! * **large updates** → the RAID5 read-modify-write of §II-B (2 reads +
//!   2 writes for a sub-shard update);
//! * **writes a provider missed** → applied to the providers that take
//!   them and recorded in the [`UpdateLog`] for the consistency update
//!   when the provider returns (recovery phase 2).
//!
//! # The log rule
//!
//! Every provider put and remove meets the recovery log in one place,
//! the provider-I/O module (`io.rs`), under one rule per `(provider,
//! key)`: the mutation **landed** ⇒ whatever the log held for the pair
//! is discharged (the provider now holds the newest state, so replaying
//! an older record would undo it); a remove found the object
//! **verifiably absent** ⇒ likewise; **anything else** ⇒ the pair's
//! record is superseded with the full bytes the object must hold, or a
//! Remove. A ranged put to a replica with a pending record ships the
//! whole post-update object instead — the replica's base is stale by
//! definition. `publish` (breaker pre-admission, then a desperation pass
//! below the durability floor) and `retire` (tolerant removes) are built
//! on those verbs, and every write path, the scrub, migration and
//! restart go through them; only `ecops`' ranged fragment writes stay on
//! their own `lookup` closure, with the dirty-fragment set as their
//! recovery record.
//!
//! # Hardening
//!
//! Every provider call the verbs make runs through the hardening stack:
//! retry with capped exponential backoff on transient faults (sleeps
//! advance the virtual clock), a per-provider circuit breaker
//! ([`crate::health`]) that short-circuits providers in a failure
//! streak, and — on whole-object Gets — client-side BLAKE3 verification
//! ([`crate::integrity`]); a corrupt payload is treated as an erasure
//! (failover / degraded read) and repaired by the scrub pass
//! ([`crate::scrub`]). Breakers never veto a read outright: when no
//! healthier copy is left, the suspect breaker is force-closed and the
//! read proceeds — a probing read beats a refused one.
//!
//! # Layout
//!
//! This file holds the client itself — the struct, constructors,
//! [`Hyrd::attach`], the lock stripes, accessors and the [`Scheme`]
//! impls. The request path lives in four submodules split by concern:
//! `cache` (the small-file write-through cache), `io` (provider I/O and
//! the log rule), `read` (replica / fragment / hot-copy reads on the
//! event engine) and `write` (create, update, delete, metadata flush).
//!
//! # Concurrency
//!
//! The whole CRUD surface takes `&self`: the mutable interior state is
//! **lock-striped** — the update log, the small-file cache, the
//! dirty-fragment set, the workload monitor and the integrity index each
//! sit behind their own `Mutex` (fleet, health, counters and telemetry
//! were already interior-mutable). Namespace metadata no
//! longer has a stripe at all: it lives in a
//! [`hyrd_metastore::ShardedMetaStore`] — hash-partitioned by directory
//! into independently `RwLock`ed shards with optimistic
//! read-validate-commit mutations (DESIGN.md §15) — and the hot-read
//! counters are sharded alongside it, keyed by [`NormPath`]. Guards are
//! scoped to single statements, so the client never holds two stripes at
//! once; the canonical acquisition order (monitor → meta shard → cache →
//! read_counts shard → log → dirty → integrity) is documented in
//! DESIGN.md §11 for any future section that must nest. Contended
//! acquisitions are counted and timed into registry histograms
//! (`lock.contended[..]`, `lock.wait_ns[..]`; the meta shards publish
//! theirs through [`Hyrd::publish_meta_metrics`]) — wall timings never
//! reach the trace, which stays virtual-time-stamped and
//! byte-deterministic.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{sync, BatchReport, CloudStorage, ObjectKey, ProviderId};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::{ErasureCode, FragmentLayout, Raid5, Raid6, ReedSolomon};
use hyrd_metastore::{
    BlockDelta, FlushItem, Inode, MetaOccStats, NormPath, Placement, ShardedMetaStore,
};
use hyrd_telemetry::{Collector, Gauge, HistogramSeries, SpanGuard, SpanName};

use crate::config::{CodeChoice, HyrdConfig};
use crate::evaluator::Evaluator;
use crate::fleet_list::FleetList;
use crate::health::{FaultCounterSnapshot, FaultCounters, HealthTracker};
use crate::integrity::{IntegrityIndex, Verdict};
use crate::journal::Journal;
use crate::monitor::WorkloadMonitor;
use crate::recovery::{RecoveryReport, UpdateLog};
use crate::scheme::{Scheme, SchemeError, SchemeResult};

mod cache;
mod io;
mod read;
mod write;

pub use cache::SmallFileCache;

/// Concrete erasure code behind [`CodeChoice`].
pub(crate) enum CodeImpl {
    Raid5(Raid5),
    Rs(ReedSolomon),
    Raid6(Raid6),
}

impl CodeImpl {
    fn build(choice: CodeChoice) -> Result<Self, SchemeError> {
        Ok(match choice {
            CodeChoice::Raid5 { m } => CodeImpl::Raid5(Raid5::new(m)?),
            CodeChoice::ReedSolomon { m, n } => CodeImpl::Rs(ReedSolomon::new(m, n)?),
            CodeChoice::Raid6 { m } => CodeImpl::Raid6(Raid6::new(m)?),
        })
    }

    pub(crate) fn as_code(&self) -> &dyn ErasureCode {
        match self {
            CodeImpl::Raid5(c) => c,
            CodeImpl::Rs(c) => c,
            CodeImpl::Raid6(c) => c,
        }
    }
}

/// Hot-read counters, sharded alongside the metastore: keyed by
/// [`NormPath`] (the caller already holds one, so bumping a counter
/// allocates nothing) and partitioned with the same directory hash, so
/// reads in different directories touch independent locks instead of
/// convoying on one map.
struct ReadCounts {
    shards: Vec<Mutex<HashMap<NormPath, u32>>>,
}

impl ReadCounts {
    fn new(shards: usize) -> Self {
        ReadCounts { shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, path: &NormPath) -> &Mutex<HashMap<NormPath, u32>> {
        &self.shards[ShardedMetaStore::shard_of(path, self.shards.len())]
    }
}

/// The labelled spans the request path opens around a provider call,
/// `put_replica[Aliyun]` and the like.
#[derive(Clone, Copy)]
pub(crate) enum ProviderSpan {
    PutReplica,
    PutFragment,
    FetchReplica,
    FetchFragment,
}

impl ProviderSpan {
    const ALL: [ProviderSpan; 4] = [
        ProviderSpan::PutReplica,
        ProviderSpan::PutFragment,
        ProviderSpan::FetchReplica,
        ProviderSpan::FetchFragment,
    ];

    fn name(self) -> &'static str {
        match self {
            ProviderSpan::PutReplica => "put_replica",
            ProviderSpan::PutFragment => "put_fragment",
            ProviderSpan::FetchReplica => "fetch_replica",
            ProviderSpan::FetchFragment => "fetch_fragment",
        }
    }
}

/// What the request path reports about one provider on every call it
/// makes there, resolved once when the client is built: the labelled
/// spans around the call and the engine's `engine.queue_depth[provider]`
/// gauge and histogram.
struct ProviderSeries {
    spans: [SpanName; ProviderSpan::ALL.len()],
    queue_depth: Gauge,
    queue_depths: HistogramSeries,
}

impl ProviderSeries {
    fn resolve(telemetry: &Collector, provider: &str) -> Self {
        ProviderSeries {
            spans: ProviderSpan::ALL.map(|span| telemetry.span_name(span.name(), provider)),
            queue_depth: telemetry.gauge_series("engine.queue_depth", provider),
            queue_depths: telemetry.histogram_series("engine.queue_depth", provider),
        }
    }
}

/// The placement tiers padded to what a placement needs: a replica list
/// `replication_level` long and a fragment list `n` long.
struct Targets {
    replicas: Vec<ProviderId>,
    fragments: Vec<ProviderId>,
}

impl Targets {
    fn derive(evaluator: &Evaluator, config: &HyrdConfig) -> Self {
        // `tier`, padded with the remaining fastest providers up to `count`.
        let padded = |tier: &[ProviderId], count: usize| {
            let mut targets = tier.to_vec();
            for &id in evaluator.fastest_first() {
                if targets.len() >= count {
                    break;
                }
                if !targets.contains(&id) {
                    targets.push(id);
                }
            }
            targets.truncate(count);
            targets
        };
        Targets {
            replicas: padded(evaluator.performance_tier(), config.replication_level),
            fragments: padded(evaluator.cost_tier(), config.code.n()),
        }
    }
}

/// A file's inode as one request uses it, lent out of its shard
/// ([`ShardedMetaStore::with_inode`]) as provider ids and shared names:
/// taking it copies no name and allocates nothing, and nothing of the
/// store stays locked while the request talks to providers.
pub(crate) struct Lent {
    pub(crate) size: u64,
    pub(crate) version: u64,
    pub(crate) stored: Stored,
    /// The replicas, or the fragments in order, each with its provider.
    pub(crate) copies: FleetList<(ProviderId, Arc<str>)>,
    /// An erasure-coded file's hot copy.
    pub(crate) hot_copy: Option<(ProviderId, Arc<str>)>,
}

/// How a [`Lent`] file is stored.
pub(crate) enum Stored {
    Pending,
    /// Whole copies under one object name.
    Replicated(Arc<str>),
    ErasureCoded(FragmentLayout),
}

impl Lent {
    fn of(inode: &Inode) -> Self {
        let (stored, copies, hot_copy) = match &inode.placement {
            Placement::Pending => (Stored::Pending, FleetList::new(), None),
            Placement::Replicated { providers, object } => (
                Stored::Replicated(Arc::clone(object)),
                providers.iter().map(|&p| (p, Arc::clone(object))).collect(),
                None,
            ),
            Placement::ErasureCoded { layout, fragments, hot_copy } => (
                Stored::ErasureCoded(*layout),
                fragments.iter().cloned().collect(),
                hot_copy.clone(),
            ),
        };
        Lent { size: inode.size, version: inode.version, stored, copies, hot_copy }
    }

    /// Every physical object with the provider holding it, in
    /// [`Placement::objects`] order.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (ProviderId, &Arc<str>)> {
        self.copies.iter().chain(&self.hot_copy).map(|(p, name)| (*p, name))
    }

    /// The providers of the copies.
    pub(crate) fn providers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        self.copies.iter().map(|&(p, _)| p)
    }
}

/// The HyRD client. See the crate docs for an end-to-end example.
///
/// `Hyrd` is `Sync`: every CRUD operation takes `&self` (see the module
/// docs on lock striping), so one client can be shared across threads or
/// across the sessions of [`crate::driver::multi_client`].
pub struct Hyrd {
    pub(crate) fleet: Fleet,
    pub(crate) config: HyrdConfig,
    monitor: Mutex<WorkloadMonitor>,
    evaluator: Evaluator,
    pub(crate) meta: ShardedMetaStore,
    pub(crate) log: Mutex<UpdateLog>,
    pub(crate) planner: StripePlanner,
    pub(crate) code: CodeImpl,
    cache: Mutex<SmallFileCache>,
    read_counts: ReadCounts,
    /// Meta-shard contention totals already published to the registry
    /// (so [`Hyrd::publish_meta_metrics`] increments deltas, not totals).
    meta_published: Mutex<MetaOccStats>,
    pub(crate) dirty: Mutex<crate::ecops::DirtyFragments>,
    setup_cost: BatchReport,
    pub(crate) health: HealthTracker,
    pub(crate) integrity: Mutex<IntegrityIndex>,
    pub(crate) counters: FaultCounters,
    pub(crate) telemetry: Collector,
    /// Per provider, in fleet order.
    series: Vec<ProviderSeries>,
    /// Where new replicas and fragments go, derived from the evaluator's
    /// tiers whenever it assesses (construction, [`Hyrd::reassess`]).
    targets: Targets,
    /// Crash journal (disabled outside the crash harness; see
    /// [`crate::journal`]).
    pub(crate) journal: Journal,
    /// The list a metadata flush collects its items in, lent to each
    /// flush in turn so that a flush allocates only what it ships.
    flush_items: Mutex<Vec<FlushItem>>,
}

impl Hyrd {
    /// Builds a HyRD client over a fleet: validates the configuration,
    /// probes the providers (the evaluator's setup cost is retained in
    /// [`Self::setup_cost`]) and derives the placement tiers.
    pub fn new(fleet: &Fleet, config: HyrdConfig) -> SchemeResult<Self> {
        Hyrd::with_telemetry(fleet, config, Collector::disabled())
    }

    /// Like [`Hyrd::new`], but with an attached telemetry collector: the
    /// fleet's providers, the circuit breakers and the dispatcher itself
    /// all emit spans and events into it. Build the collector on the
    /// fleet's clock so trace timestamps are virtual (and same-seed runs
    /// byte-identical).
    pub fn with_telemetry(
        fleet: &Fleet,
        config: HyrdConfig,
        telemetry: Collector,
    ) -> SchemeResult<Self> {
        Hyrd::with_journal(fleet, config, telemetry, Journal::disabled())
    }

    /// Like [`Hyrd::with_telemetry`], with an attached crash journal:
    /// the dispatcher mirrors its recovery log and dirty-fragment set
    /// into the journal and records per-operation intents, and the
    /// journal's crashpoints become live (see [`crate::journal`] and
    /// [`Hyrd::restart`]). Ordinary clients pass [`Journal::disabled`].
    pub fn with_journal(
        fleet: &Fleet,
        config: HyrdConfig,
        telemetry: Collector,
        journal: Journal,
    ) -> SchemeResult<Self> {
        journal.set_crash_switch(fleet.crash_switch().clone());
        config
            .validate(fleet.len())
            .map_err(|detail| SchemeError::DataUnavailable { path: String::new(), detail })?;
        fleet.set_telemetry(&telemetry);
        let (evaluator, setup_cost) = {
            let _span = telemetry
                .span_with("setup.assess")
                .field("probe_bytes", config.probe_bytes)
                .start();
            Evaluator::assess(fleet, config.probe_bytes)
        };
        let targets = Targets::derive(&evaluator, &config);
        let code = CodeImpl::build(config.code)?;
        let planner = StripePlanner::new(config.code.m(), config.code.n())?;
        let mut health = HealthTracker::new(config.breaker, fleet.len());
        health.set_telemetry(telemetry.clone());
        Ok(Hyrd {
            fleet: fleet.clone(),
            monitor: Mutex::new(WorkloadMonitor::new(config.threshold)),
            evaluator,
            meta: ShardedMetaStore::with_shards(config.meta_shards),
            log: Mutex::new(UpdateLog::new()),
            planner,
            code,
            cache: Mutex::new(SmallFileCache::new(256 << 20)),
            read_counts: ReadCounts::new(config.meta_shards),
            meta_published: Mutex::new(MetaOccStats::default()),
            dirty: Mutex::new(crate::ecops::DirtyFragments::new()),
            setup_cost,
            health,
            integrity: Mutex::new(IntegrityIndex::new()),
            counters: FaultCounters::default(),
            series: fleet
                .providers()
                .iter()
                .map(|p| ProviderSeries::resolve(&telemetry, p.name()))
                .collect(),
            targets,
            telemetry,
            config,
            journal,
            flush_items: Mutex::new(Vec::new()),
        })
    }

    /// The attached telemetry collector (disabled for [`Hyrd::new`]).
    pub fn telemetry(&self) -> &Collector {
        &self.telemetry
    }

    /// Attaches to an **existing** namespace: builds a client and loads
    /// every metadata block from the cloud ("Before accessing a file, its
    /// metadata blocks must be loaded into the client memory", §III-C) —
    /// the market-mobility story of the Cloud-of-Clouds. Returns the
    /// client plus what the bootstrap cost: one List per available
    /// provider and one Get per metadata object and provider listing it
    /// (see [`crate::bootstrap`] — the highest intact version wins, so a
    /// replica that missed an outage's writes cannot hide them).
    ///
    /// The namespace has a single active writer at a time; attach after
    /// the previous client is gone (object names embed the file ids the
    /// loaded blocks carry, which `load_block` adopts).
    pub fn attach(fleet: &Fleet, config: HyrdConfig) -> SchemeResult<(Self, BatchReport)> {
        Hyrd::attach_with(fleet, config, Collector::disabled())
    }

    /// [`Hyrd::attach`] with a telemetry collector. A torn metadata
    /// object does **not** abort the mount: a block with no intact copy
    /// is skipped with a `bootstrap.block_lost` event and the rest of
    /// the namespace stays mountable. Fails with `DataUnavailable` only
    /// when no provider answers the List.
    pub fn attach_with(
        fleet: &Fleet,
        config: HyrdConfig,
        telemetry: Collector,
    ) -> SchemeResult<(Self, BatchReport)> {
        let hyrd = Hyrd::with_telemetry(fleet, config, telemetry)?;
        let loaded = hyrd.load_namespace(None)?;
        // Attach rewrites nothing on the providers, so the diffs it
        // folded stay recorded as each directory's live chain and the
        // next compaction supersedes them there.
        for dir in loaded.dirs {
            hyrd.meta.seed_chain(&dir.block.dir, dir.chain);
        }
        Ok((hyrd, BatchReport::serial(loaded.ops)))
    }

    // ------------------------------------------------------------------
    // Lock stripes
    // ------------------------------------------------------------------

    /// Acquires one stripe, counting and (wall-)timing contended waits
    /// into registry metrics — `lock.contended[name]` and
    /// `lock.wait_ns[name]`. The fast path is an uncontended `try_lock`
    /// with zero bookkeeping, so single-session runs pay nothing.
    fn stripe<'a, T>(&self, name: &'static str, lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if let Some(guard) = sync::try_lock(lock) {
            return guard;
        }
        let waited = std::time::Instant::now();
        let guard = sync::lock(lock);
        if self.telemetry.enabled() {
            self.telemetry.inc_labeled("lock.contended", name, 1);
            let waited_ns = waited.elapsed().as_nanos() as u64;
            self.telemetry.observe_labeled("lock.wait_ns", name, waited_ns);
        }
        guard
    }

    fn monitor_l(&self) -> MutexGuard<'_, WorkloadMonitor> {
        self.stripe("monitor", &self.monitor)
    }

    pub(crate) fn cache_l(&self) -> MutexGuard<'_, SmallFileCache> {
        self.stripe("cache", &self.cache)
    }

    /// Bumps a file's hot-read counter, returning the new count. The
    /// counter map is sharded by the same hash as the metastore; only
    /// the owning shard's lock is taken.
    fn reads_bump(&self, path: &NormPath) -> u32 {
        let mut shard = self.stripe("read_counts", self.read_counts.shard(path));
        let count = shard.entry(path.clone()).or_insert(0);
        *count += 1;
        *count
    }

    /// A file's current hot-read count without bumping it — the
    /// adaptive policy's heat input.
    pub(crate) fn reads_of(&self, path: &NormPath) -> u32 {
        self.stripe("read_counts", self.read_counts.shard(path)).get(path).copied().unwrap_or(0)
    }

    /// Drops a file's hot-read counter (delete, content turnover, or a
    /// completed migration starting a fresh heat epoch).
    pub(crate) fn reads_remove(&self, path: &NormPath) {
        self.stripe("read_counts", self.read_counts.shard(path)).remove(path);
    }

    pub(crate) fn log_l(&self) -> MutexGuard<'_, UpdateLog> {
        self.stripe("log", &self.log)
    }

    pub(crate) fn dirty_l(&self) -> MutexGuard<'_, crate::ecops::DirtyFragments> {
        self.stripe("dirty", &self.dirty)
    }

    pub(crate) fn integrity_l(&self) -> MutexGuard<'_, IntegrityIndex> {
        self.stripe("integrity", &self.integrity)
    }

    /// [`IntegrityIndex::record`], timed (see [`Hyrd::observe_hashing`]).
    pub(crate) fn record_digest(&self, name: impl AsRef<str> + Into<Arc<str>>, bytes: &[u8]) {
        let wall = self.wall_start();
        let hashed = self.integrity_l().record(name, bytes);
        self.observe_hashing(wall, hashed);
    }

    /// [`IntegrityIndex::record_patch`], timed.
    pub(crate) fn patch_digest(
        &self,
        name: impl AsRef<str> + Into<Arc<str>>,
        bytes: &[u8],
        base_len: usize,
        changed: &[Range<usize>],
    ) {
        let wall = self.wall_start();
        let hashed = self.integrity_l().record_patch(name, bytes, base_len, changed);
        self.observe_hashing(wall, hashed);
    }

    /// [`IntegrityIndex::record_flush_item`], timed.
    pub(crate) fn record_flushed_digest(&self, item: &FlushItem, delta: Option<&BlockDelta>) {
        let wall = self.wall_start();
        let hashed = self.integrity_l().record_flush_item(item, delta);
        self.observe_hashing(wall, hashed);
    }

    /// [`IntegrityIndex::verify`], timed. With no digest on record
    /// nothing is hashed and nothing observed.
    pub(crate) fn verify_digest(&self, name: &str, bytes: &[u8]) -> Verdict {
        let wall = self.wall_start();
        let verdict = self.integrity_l().verify(name, bytes);
        self.observe_hashing(wall, if verdict == Verdict::Unknown { 0 } else { bytes.len() });
        verdict
    }

    /// Hashing measured where it happens: the wall time of a call that
    /// hashed payload bytes goes into `integrity.hash_wall_ns` and the
    /// bytes into `integrity.hashed_bytes` — registry only and only with
    /// telemetry on, like the `ec.*_wall_ns` timers.
    fn observe_hashing(&self, started: Option<std::time::Instant>, hashed: usize) {
        if hashed > 0 {
            self.observe_wall("integrity.hash_wall_ns", started);
            self.telemetry.inc("integrity.hashed_bytes", hashed as u64);
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// What provider probing cost at construction.
    pub fn setup_cost(&self) -> &BatchReport {
        &self.setup_cost
    }

    /// A snapshot of the workload monitor (sizes observed, classification
    /// stats). Cloned out of its stripe so callers never hold the lock.
    pub fn monitor(&self) -> WorkloadMonitor {
        self.monitor_l().clone()
    }

    /// The evaluator's provider assessments.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The per-provider circuit breakers.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Current fault-handling counters (retries, breaker rejections,
    /// corruption detections).
    pub fn fault_counters(&self) -> FaultCounterSnapshot {
        self.counters.snapshot()
    }

    /// Objects with a recorded client-side checksum.
    pub fn integrity_len(&self) -> usize {
        self.integrity_l().len()
    }

    /// Re-runs the Cost & Performance Evaluator and adopts the fresh
    /// tiers for *future* placements (existing placements are untouched —
    /// they carry their own provider lists). The paper's evaluator
    /// "directly interacts with the individual cloud storage providers
    /// to evaluate the corresponding values" (§III-D) on an ongoing
    /// basis; call this after topology or pricing changes.
    pub fn reassess(&mut self) -> BatchReport {
        let (evaluator, cost) = Evaluator::assess(&self.fleet, self.config.probe_bytes);
        self.targets = Targets::derive(&evaluator, &self.config);
        self.evaluator = evaluator;
        cost
    }

    /// The active configuration.
    pub fn config(&self) -> &HyrdConfig {
        &self.config
    }

    /// Logical bytes stored (sum of file sizes).
    pub fn logical_bytes(&self) -> u64 {
        self.meta.logical_bytes()
    }

    /// Physical bytes stored across providers (redundancy included).
    pub fn physical_bytes(&self) -> u64 {
        self.meta.physical_bytes()
    }

    /// Pending consistency-update records (writes missed by providers
    /// currently in outage).
    pub fn pending_log_len(&self) -> usize {
        self.log_l().len()
    }

    /// Runs the consistency-update phase for a returned provider —
    /// §III-C phase 2. Call after the provider's outage ends.
    pub fn recover_provider(&self, id: ProviderId) -> SchemeResult<(RecoveryReport, BatchReport)> {
        let provider = self
            .fleet
            .get(id)
            .ok_or_else(|| SchemeError::DataUnavailable {
                path: String::new(),
                detail: format!("{id} not in fleet"),
            })?
            .clone();
        let _span = self.telemetry.span_labeled("recover_provider", provider.name());
        // The provider is declaredly back: give it a clean bill of health
        // so the replay and the reads that follow are not short-circuited
        // by a breaker left open from its bad spell.
        self.health.reset(id);
        // Phase 2a: replay whole-object writes the provider missed. The
        // log stripe stays held across the replay so a concurrent writer
        // cannot append a record for this provider mid-drain; the
        // journal mirror is synced under the same guard so a crash can
        // never observe the drain half-recorded.
        let replayed = {
            let mut log = self.log_l();
            let result = log.replay(provider.as_ref());
            if result.is_ok() {
                self.journal.sync_pending(&log);
            }
            result
        };
        let mut recovered = match replayed {
            Ok(ok) => ok,
            Err(e) => {
                crate::crashtest::escalate_if_crashed(&e);
                return Err(e.into());
            }
        };
        if self.telemetry.enabled() {
            let report = &recovered.0;
            self.telemetry
                .event("recovery.replay")
                .field("provider", provider.name())
                .field("puts", report.puts_replayed)
                .field("removes", report.removes_replayed)
                .field("bytes", report.bytes_restored)
                .emit();
            self.telemetry.inc("recovery.replays", 1);
        }
        // Phase 2b: rebuild fragments dirtied by degraded updates.
        let lookup = |pid: ProviderId| Arc::clone(self.provider(pid));
        // A rebuild takes only sources that do not fail their digest; a
        // rotten one is counted like one a read meets.
        let verify = |p: ProviderId, name: &str, bytes: &[u8]| {
            let verdict = self.check(p, name, bytes);
            if verdict == Verdict::Corrupt {
                self.note_corruption(p, name);
            }
            verdict
        };
        // Each dirty path is taken out of the set in turn (the walk keeps
        // its place in `path`) and what could not be rebuilt is put back.
        let mut path = String::new();
        loop {
            let Some(indices) = self.dirty_l().take_next(&mut path) else {
                break;
            };
            let Ok(npath) = NormPath::parse(&path) else {
                self.dirty_l().put_back(&path, indices);
                continue;
            };
            let Ok(Lent { stored: Stored::ErasureCoded(layout), copies, .. }) =
                self.lend_inode(&npath)
            else {
                // Gone, or no longer erasure-coded: nothing to rebuild.
                continue;
            };
            let remaining = crate::ecops::rebuild_dirty(
                self.code.as_code(),
                &lookup,
                &self.telemetry,
                &provider,
                &layout,
                &copies,
                &path,
                indices,
                &verify,
                &mut recovered,
            );
            self.dirty_l().put_back(&path, remaining);
        }
        self.sync_dirty_journal();
        Ok(recovered)
    }

    /// Fragments awaiting rebuild after degraded updates.
    pub fn pending_dirty_fragments(&self) -> usize {
        self.dirty_l().len()
    }

    // ------------------------------------------------------------------
    // Placement helpers
    // ------------------------------------------------------------------

    pub(crate) fn provider(&self, id: ProviderId) -> &Arc<SimProvider> {
        self.fleet.get(id).expect("placement providers come from the fleet")
    }

    /// Opens `span` labelled with the provider `id`.
    pub(crate) fn provider_span(&self, id: ProviderId, span: ProviderSpan) -> SpanGuard {
        self.series[id.0 as usize].spans[span as usize].start()
    }

    /// Records the queue depth a read arriving at provider `id` contends
    /// with (registry only, never the trace): last value + distribution.
    pub(crate) fn note_queue_depth(&self, id: ProviderId, depth: u64) {
        let series = &self.series[id.0 as usize];
        series.queue_depth.set(depth as i64);
        series.queue_depths.observe(depth);
    }

    /// Starts a wall-clock timer, but only when telemetry is enabled.
    /// Wall timings land in registry histograms only — never in the
    /// trace, which is stamped purely with virtual time so same-seed
    /// runs stay byte-identical.
    fn wall_start(&self) -> Option<std::time::Instant> {
        self.telemetry.enabled().then(std::time::Instant::now)
    }

    fn observe_wall(&self, metric: &str, started: Option<std::time::Instant>) {
        if let Some(t0) = started {
            self.telemetry.observe(metric, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Replica targets for metadata/small files: performance tier fastest
    /// first, padded if the tier is smaller than the replication level.
    pub(crate) fn replica_targets(&self) -> &[ProviderId] {
        &self.targets.replicas
    }

    /// Fragment targets for large files: cost tier cheapest-storage
    /// first, padded up to `n`.
    pub(crate) fn fragment_targets(&self) -> &[ProviderId] {
        &self.targets.fragments
    }

    /// The key of object `name` in the fleet's container. A placement's
    /// names are shared, so the request path passes a clone and the key
    /// copies nothing; every layer below that keeps the key shares it too.
    pub(crate) fn key(name: impl Into<Arc<str>>) -> ObjectKey {
        ObjectKey::shared(Fleet::CONTAINER, name.into())
    }

    /// The keys of a placement's objects, as [`Placement::objects`] lists
    /// them.
    pub(crate) fn keys_of<'a>(
        objects: impl IntoIterator<Item = (ProviderId, &'a Arc<str>)>,
    ) -> FleetList<(ProviderId, ObjectKey)> {
        objects.into_iter().map(|(p, name)| (p, Self::key(Arc::clone(name)))).collect()
    }

    /// Lends a file's inode to the request path: see [`Lent`].
    pub(crate) fn lend_inode(&self, path: &NormPath) -> SchemeResult<Lent> {
        Ok(self.meta.with_inode(path, Lent::of)?)
    }

    /// Mirrors the dirty-fragment set into the journal. Call after any
    /// dirty mutation, with the dirty stripe released.
    pub(crate) fn sync_dirty_journal(&self) {
        if self.journal.enabled() {
            let snapshot = self.dirty_l().clone();
            self.journal.sync_dirty(&snapshot);
        }
    }

    /// Publishes the sharded metastore's health into the metrics
    /// registry: OCC totals (`meta.occ.conflicts` / `meta.occ.retries`),
    /// shard-lock contention deltas under the `meta` label of
    /// `lock.contended` / `lock.wait_ns` (alongside the mutex stripes),
    /// and per-shard gauges (`meta.shard.dirty[i]`, `meta.chain.max`).
    /// Registry-only — never the trace — so callers may invoke it at any
    /// cadence without disturbing determinism. The drivers call it once
    /// before snapshotting.
    pub fn publish_meta_metrics(&self) {
        if !self.telemetry.enabled() {
            return;
        }
        let stats = self.meta.occ_stats();
        self.telemetry.set_gauge("meta.occ.conflicts", stats.conflicts as i64);
        self.telemetry.set_gauge("meta.occ.retries", stats.retries as i64);
        {
            let mut last = self.stripe("meta_published", &self.meta_published);
            let contended = stats.contended - last.contended;
            let wait_ns = stats.wait_ns - last.wait_ns;
            if contended > 0 {
                self.telemetry.inc_labeled("lock.contended", "meta", contended);
            }
            if wait_ns > 0 {
                self.telemetry.observe_labeled("lock.wait_ns", "meta", wait_ns);
            }
            *last = stats;
        }
        let gauges = self.meta.shard_gauges();
        for (i, g) in gauges.iter().enumerate() {
            self.telemetry.set_gauge_labeled("meta.shard.dirty", i, g.dirty as i64);
        }
        let chain_max = gauges.iter().map(|g| g.chain_max).max().unwrap_or(0);
        self.telemetry.set_gauge("meta.chain.max", chain_max as i64);
    }

    pub(crate) fn now(&self) -> std::time::Duration {
        self.fleet.clock().now()
    }

    /// Logical size of a file.
    pub fn file_size(&self, path: &str) -> Option<u64> {
        let npath = NormPath::parse(path).ok()?;
        self.meta.with_inode(&npath, |i| i.size).ok()
    }
}

impl Scheme for Hyrd {
    fn name(&self) -> &str {
        "HyRD"
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        Hyrd::create_file(self, path, data)
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        Hyrd::read_file(self, path)
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        Hyrd::update_file(self, path, offset, data)
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        Hyrd::delete_file(self, path)
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        Hyrd::list_dir(self, path)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        Hyrd::file_size(self, path)
    }

    fn recover_provider(&mut self, id: ProviderId) -> SchemeResult<(RecoveryReport, BatchReport)> {
        Hyrd::recover_provider(self, id)
    }
}

/// The same surface over a shared reference: every inherent operation
/// takes `&self`, so `&Hyrd` is itself a [`Scheme`] and one client can
/// serve many sessions through the `&mut dyn Scheme` drivers (see
/// DESIGN.md §11).
impl Scheme for &Hyrd {
    fn name(&self) -> &str {
        "HyRD"
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        Hyrd::create_file(self, path, data)
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        Hyrd::read_file(self, path)
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        Hyrd::update_file(self, path, offset, data)
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        Hyrd::delete_file(self, path)
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        Hyrd::list_dir(self, path)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        Hyrd::file_size(self, path)
    }

    fn recover_provider(&mut self, id: ProviderId) -> SchemeResult<(RecoveryReport, BatchReport)> {
        Hyrd::recover_provider(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lock-striping refactor's whole point: the client is shareable
    /// across threads.
    #[test]
    fn hyrd_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Hyrd>();
    }
}
