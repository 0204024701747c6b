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
//! * **writes during an outage** → applied to the surviving providers and
//!   appended to the [`UpdateLog`] for the consistency update when the
//!   provider returns (recovery phase 2).
//!
//! Every provider call additionally runs through the hardening stack
//! ([`Hyrd::guarded`]): retry with capped exponential backoff on
//! transient faults (sleeps advance the virtual clock), a per-provider
//! circuit breaker ([`crate::health`]) that short-circuits providers in
//! a failure streak, and — on whole-object Gets — client-side SHA-256
//! verification ([`crate::integrity`]); a corrupt payload is treated as
//! an erasure (failover / degraded read) and repaired by the scrub pass
//! ([`crate::scrub`]). Breakers never veto a read outright: when no
//! healthier copy is left, the suspect breaker is force-closed and the
//! read proceeds — a probing read beats a refused one.
//!
//! # Concurrency
//!
//! The whole CRUD surface takes `&self`: the mutable interior state is
//! **lock-striped** — the update log, the small-file cache, the
//! dirty-fragment set, the workload monitor and the integrity index each
//! sit behind their own `parking_lot::Mutex` (fleet, health, counters
//! and telemetry were already interior-mutable). Namespace metadata no
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

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};

use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{
    BatchReport, CloudError, CloudResult, CloudStorage, ObjectKey, OpReport, ProviderId,
};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::{decode_object, ErasureCode, Raid5, Raid6, ReedSolomon};
use hyrd_metastore::{
    resolve_chain, DiffBlock, FlushKind, MetaOccStats, MetadataBlock, NormPath, Placement,
    ShardedMetaStore,
};
use hyrd_telemetry::Collector;

use crate::config::{CodeChoice, FragmentSelection, HyrdConfig};
use crate::engine::{self, Attempt, FanoutDriver, FanoutOutcome, HedgeStats, LaunchKind};
use crate::evaluator::Evaluator;
use crate::health::{FaultCounterSnapshot, FaultCounters, HealthTracker};
use crate::integrity::{IntegrityIndex, Verdict};
use crate::journal::{FragWrite, Intent, Journal};
use crate::monitor::{DataClass, WorkloadMonitor};
use crate::recovery::{RecoveryReport, UpdateLog};
use crate::scheme::{Scheme, SchemeError, SchemeResult};

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

/// Bounded write-through cache of small-file contents, so small updates
/// need no read round. FIFO eviction is enough: the workloads touch
/// recent files.
///
/// An entry is the client's one copy of a replicated file (DESIGN.md
/// §8.1): an update [`lend`](Self::lend)s it out, patches the buffer
/// where it lies and [`put`](Self::put)s it back, or hands the
/// pre-update bytes back ([`hand_back`](Self::hand_back)) when no
/// replica took the write.
///
/// Entries carry a generation stamp so removal and re-insertion are
/// O(1): the FIFO keeps stale `(path, generation)` records and the
/// eviction loop discards any whose generation no longer matches the
/// live entry (the classic lazy-deletion queue — the previous
/// `order.retain` walked the whole queue on every update/delete, which
/// was quadratic over a replay).
pub(crate) struct SmallFileCache {
    budget: usize,
    used: usize,
    generation: u64,
    map: HashMap<Arc<str>, Slot>,
    order: VecDeque<(Arc<str>, u64)>,
}

struct Slot {
    /// `None` while lent out to an updater; the slot then reads as a
    /// miss but keeps its budget share and its place in the FIFO.
    data: Option<Bytes>,
    /// Bytes held against the budget, lent out or not.
    len: usize,
    generation: u64,
}

impl SmallFileCache {
    fn new(budget: usize) -> Self {
        SmallFileCache {
            budget,
            used: 0,
            generation: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn put(&mut self, path: &str, data: Bytes) {
        // A payload larger than the whole budget can never stay resident:
        // admitting it would evict every live entry and then evict itself
        // — a full cache flush that caches nothing. Reject it up front.
        // Any previously cached entry for the path still goes: the
        // authoritative content just changed, so the cached bytes are
        // stale either way.
        if data.len() > self.budget {
            self.remove(path);
            return;
        }
        // One key allocation per path, shared by the map and the FIFO
        // and kept across re-insertions.
        let key = match self.map.remove_entry(path) {
            Some((key, old)) => {
                self.used -= old.len;
                key
            }
            None => Arc::from(path),
        };
        self.generation += 1;
        self.used += data.len();
        let slot = Slot { len: data.len(), data: Some(data), generation: self.generation };
        self.map.insert(key.clone(), slot);
        self.order.push_back((key, self.generation));
        while self.used > self.budget {
            let Some((victim, generation)) = self.order.pop_front() else {
                break;
            };
            // Stale record: the path was removed or re-inserted since.
            if self.map.get(&victim).is_some_and(|slot| slot.generation == generation) {
                self.remove(&victim);
            }
        }
        // Bound the stale-record backlog independently of the byte
        // budget so `order` cannot grow past O(live entries).
        if self.order.len() > self.map.len() * 2 + 16 {
            let map = &self.map;
            self.order.retain(|(p, g)| map.get(p).is_some_and(|slot| slot.generation == *g));
        }
    }

    /// A shared view of the entry (the migration engine's read; an
    /// update takes the entry itself with [`Self::lend`]).
    pub(crate) fn get(&self, path: &str) -> Option<Bytes> {
        self.map.get(path).and_then(|slot| slot.data.clone())
    }

    /// Moves the `len`-byte entry for `path` out for mutation, with the
    /// generation to present when handing it back. The slot stays — its
    /// budget share, its generation, its FIFO record — so the cache is
    /// exactly as [`Self::get`] would have left it, except that until the
    /// updater's [`Self::put`] or [`Self::hand_back`] the path reads as a
    /// miss. An entry of any other length does not describe the file the
    /// caller is updating and is a miss too.
    pub(crate) fn lend(&mut self, path: &str, len: usize) -> Option<(Bytes, u64)> {
        let slot = self.map.get_mut(path).filter(|slot| slot.len == len)?;
        Some((slot.data.take()?, slot.generation))
    }

    /// Returns lent bytes unchanged (the update failed): the slot is
    /// whole again, at its old generation and FIFO position. A slot that
    /// was removed, evicted or re-inserted in the meantime is not
    /// resurrected — the generation no longer matches and the bytes drop.
    pub(crate) fn hand_back(&mut self, path: &str, generation: u64, data: Bytes) {
        if let Some(slot) = self.map.get_mut(path) {
            if slot.generation == generation && slot.len == data.len() {
                slot.data = Some(data);
            }
        }
    }

    pub(crate) fn remove(&mut self, path: &str) {
        if let Some(slot) = self.map.remove(path) {
            self.used -= slot.len;
            // The FIFO record goes stale and is skipped at eviction.
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
    /// Crash journal (disabled outside the crash harness; see
    /// [`crate::journal`]).
    pub(crate) journal: Journal,
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
                .field("probe_bytes", config.probe_bytes as u64)
                .start();
            Evaluator::assess(fleet, config.probe_bytes)
        };
        let code = CodeImpl::build(config.code)?;
        let planner = StripePlanner::new(config.code.m(), config.code.n())?;
        let mut health = HealthTracker::new(config.breaker);
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
            telemetry,
            config,
            journal,
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
    /// client plus what the bootstrap cost (one List + one Get per
    /// directory block, served by the fastest metadata replica).
    ///
    /// The namespace has a single active writer at a time; attach after
    /// the previous client is gone (object names embed the file ids the
    /// loaded blocks carry, which `load_block` adopts).
    pub fn attach(fleet: &Fleet, config: HyrdConfig) -> SchemeResult<(Self, BatchReport)> {
        Hyrd::attach_with(fleet, config, Collector::disabled())
    }

    /// [`Hyrd::attach`] with a telemetry collector. A metadata block
    /// that fails its length/checksum validation (a torn write caught
    /// by the `HYM2` codec) does **not** abort the mount: the other
    /// replicas are tried directly, and a block with no intact replica
    /// is skipped with a `attach.block_lost` event — the rest of the
    /// namespace stays mountable.
    pub fn attach_with(
        fleet: &Fleet,
        config: HyrdConfig,
        telemetry: Collector,
    ) -> SchemeResult<(Self, BatchReport)> {
        let hyrd = Hyrd::with_telemetry(fleet, config, telemetry)?;
        let mut ops = Vec::new();

        // Find a metadata replica that answers a List.
        let mut listing: Option<Vec<String>> = None;
        for &id in hyrd.evaluator.fastest_first() {
            match hyrd.provider(id).list(Fleet::CONTAINER) {
                Ok(out) => {
                    ops.push(out.report);
                    listing = Some(out.value);
                    break;
                }
                Err(_) => continue,
            }
        }
        let names = listing.ok_or_else(|| SchemeError::DataUnavailable {
            path: String::new(),
            detail: "no provider answered the bootstrap List".to_string(),
        })?;

        // Fetch every metadata block and diff (they are small; fastest
        // replica first with failover, like any metadata read).
        let targets = hyrd.replica_targets();
        let mut blocks: Vec<MetadataBlock> = Vec::new();
        let mut dir_diffs: std::collections::BTreeMap<NormPath, Vec<DiffBlock>> =
            std::collections::BTreeMap::new();
        for name in &names {
            if DiffBlock::is_diff_object(name) {
                // A torn or lost diff just truncates that directory's
                // chain at the gap — resolve_chain strands the suffix.
                if let Some(diff) = Self::fetch_decoded(&hyrd, &targets, name, &mut ops, |b| {
                    DiffBlock::from_bytes(b).ok()
                }) {
                    dir_diffs.entry(diff.dir.clone()).or_default().push(diff);
                }
            } else if name.starts_with("meta:") {
                if let Some(block) = Self::fetch_decoded(&hyrd, &targets, name, &mut ops, |b| {
                    MetadataBlock::from_bytes(b).ok()
                }) {
                    blocks.push(block);
                }
            }
        }
        // Parent directories first so joins always resolve. Each block
        // is folded with its surviving diff chain before loading; the
        // flush state is seeded at the resolved version (the next real
        // change ships a diff on top) and the applied diffs stay
        // recorded as the live chain so a later compaction supersedes
        // them on the providers.
        blocks.sort_by(|a, b| a.dir.cmp(&b.dir));
        for block in blocks {
            let dir = block.dir.clone();
            let diffs = dir_diffs.remove(&dir).unwrap_or_default();
            let chain: Vec<String> = Self::chain_objects(&block, &diffs);
            let resolved = resolve_chain(block, diffs);
            hyrd.meta.load_block(&resolved.block)?;
            hyrd.meta.seed_flushed(&dir, resolved.block.version);
            hyrd.meta.seed_chain(&dir, chain);
        }
        Ok((hyrd, BatchReport::serial(ops)))
    }

    /// The object names of the diffs that will link onto `block`, in
    /// version order — exactly what [`resolve_chain`] applies, computed
    /// up front because resolution consumes the diffs.
    fn chain_objects(block: &MetadataBlock, diffs: &[DiffBlock]) -> Vec<String> {
        let mut sorted: Vec<&DiffBlock> = diffs.iter().collect();
        sorted.sort_by_key(|d| d.version);
        let mut reached = block.version;
        let mut chain = Vec::new();
        for diff in sorted {
            if diff.version <= reached || diff.base != reached {
                continue;
            }
            chain.push(DiffBlock::object_name(&diff.dir, diff.version));
            reached = diff.version;
        }
        chain
    }

    /// Fetches one metadata object during attach and decodes it with
    /// `decode`, falling back to per-replica direct gets when the chosen
    /// replica served torn bytes. Returns `None` (with `attach.torn_block`
    /// / `attach.block_lost` marks) when no intact copy exists.
    fn fetch_decoded<T>(
        hyrd: &Hyrd,
        targets: &[ProviderId],
        name: &str,
        ops: &mut Vec<OpReport>,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let mut decoded = match hyrd.read_replicated("<bootstrap>", targets, name, None) {
            Ok((bytes, batch)) => {
                ops.extend(batch.ops);
                decode(&bytes)
            }
            Err(_) => return None, // an orphaned or unreachable object
        };
        if decoded.is_none() {
            // The chosen replica served a torn object (e.g. a crash
            // mid-flush tore the write). Try the remaining replicas
            // directly: any intact copy keeps the directory.
            if hyrd.telemetry.enabled() {
                hyrd.telemetry.event("attach.torn_block").field("object", name).emit();
                hyrd.telemetry.inc("attach.torn_blocks", 1);
            }
            for &t in targets {
                if decoded.is_some() {
                    break;
                }
                if let Ok(out) = hyrd.guarded(t, |p| p.get(&Self::key(name))) {
                    ops.push(out.report);
                    decoded = decode(&out.value);
                }
            }
            if decoded.is_none() {
                // No replica holds an intact copy: mount without the
                // directory rather than refusing the namespace.
                if hyrd.telemetry.enabled() {
                    hyrd.telemetry.event("attach.block_lost").field("object", name).emit();
                    hyrd.telemetry.inc("attach.blocks_lost", 1);
                }
            }
        }
        decoded
    }

    // ------------------------------------------------------------------
    // Lock stripes
    // ------------------------------------------------------------------

    /// Acquires one stripe, counting and (wall-)timing contended waits
    /// into registry metrics — `lock.contended[name]` and
    /// `lock.wait_ns[name]`. The fast path is an uncontended `try_lock`
    /// with zero bookkeeping, so single-session runs pay nothing.
    fn stripe<'a, T>(&self, name: &'static str, lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if let Some(guard) = lock.try_lock() {
            return guard;
        }
        let waited = std::time::Instant::now();
        let guard = lock.lock();
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
        let (mut report, mut batch) = match replayed {
            Ok(ok) => ok,
            Err(e) => {
                crate::crashtest::escalate_if_crashed(&e);
                return Err(e.into());
            }
        };
        if self.telemetry.enabled() {
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
        let lookup = {
            let fleet = self.fleet.clone();
            move |pid: ProviderId| fleet.get(pid).expect("fleet member").clone()
        };
        let dirty_paths = self.dirty_l().paths();
        for path in dirty_paths {
            let Ok(npath) = NormPath::parse(&path) else {
                continue;
            };
            let Ok(inode) = self.meta.inode(&npath) else {
                self.dirty_l().forget(&path);
                continue;
            };
            let Placement::ErasureCoded { layout, fragments, .. } = inode.placement else {
                self.dirty_l().forget(&path);
                continue;
            };
            let indices = self.dirty_l().take(&path);
            let mut remaining = std::collections::BTreeSet::new();
            for idx in indices {
                if fragments.get(idx).map(|(p, _)| *p) != Some(id) {
                    remaining.insert(idx);
                    continue;
                }
                match crate::ecops::rebuild_fragment(
                    self.code.as_code(),
                    &lookup,
                    &self.telemetry,
                    &layout,
                    &fragments,
                    idx,
                    &path,
                ) {
                    Ok((b, bytes)) => {
                        if self.telemetry.enabled() {
                            self.telemetry
                                .event("recovery.rebuild")
                                .field("path", path.as_str())
                                .field("fragment", idx as u64)
                                .field("provider", provider.name())
                                .field("bytes", bytes)
                                .emit();
                            self.telemetry.inc("recovery.rebuilds", 1);
                        }
                        report.puts_replayed += 1;
                        report.bytes_restored += bytes;
                        batch = batch.then(b);
                    }
                    Err(_) => {
                        remaining.insert(idx);
                    }
                }
            }
            self.dirty_l().put_back(&path, remaining);
        }
        self.sync_dirty_journal();
        Ok((report, batch))
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

    /// Runs one cloud op through the full hardening stack: circuit
    /// breaker admission, retry with capped exponential backoff (sleeps
    /// advance the *virtual* clock), and health bookkeeping on the
    /// outcome. On the clean path this is exactly one provider call with
    /// zero added latency, so fault-free runs are bit-identical to the
    /// unhardened dispatcher.
    pub(crate) fn guarded<T>(
        &self,
        id: ProviderId,
        mut op: impl FnMut(&SimProvider) -> CloudResult<T>,
    ) -> CloudResult<T> {
        if !self.health.probe(id, self.now()) {
            self.note_breaker_reject(id);
            return Err(CloudError::Unavailable { provider: id });
        }
        let provider = self.provider(id).clone();
        let clock = self.fleet.clock().clone();
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
            || op(provider.as_ref()),
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

    /// Counts a detected integrity failure and traces the object.
    fn note_corruption(&self, id: ProviderId, object: &str) {
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
            self.integrity_l().verify(object, bytes)
        }
    }

    /// Replica targets for metadata/small files: performance tier fastest
    /// first, padded from the global fastest ranking if the tier is
    /// smaller than the replication level.
    pub(crate) fn replica_targets(&self) -> Vec<ProviderId> {
        let mut targets = self.evaluator.performance_tier().to_vec();
        for &id in self.evaluator.fastest_first() {
            if targets.len() >= self.config.replication_level {
                break;
            }
            if !targets.contains(&id) {
                targets.push(id);
            }
        }
        targets.truncate(self.config.replication_level);
        targets
    }

    /// Fragment targets for large files: cost tier cheapest-storage
    /// first, padded with the remaining fastest providers up to `n`.
    pub(crate) fn fragment_targets(&self) -> Vec<ProviderId> {
        let n = self.config.code.n();
        let mut targets = self.evaluator.cost_tier().to_vec();
        for &id in self.evaluator.fastest_first() {
            if targets.len() >= n {
                break;
            }
            if !targets.contains(&id) {
                targets.push(id);
            }
        }
        targets.truncate(n);
        targets
    }

    pub(crate) fn key(name: &str) -> ObjectKey {
        ObjectKey::new(Fleet::CONTAINER, name)
    }

    // ------------------------------------------------------------------
    // Write-ahead log helpers
    //
    // Every recovery-log mutation goes through one of these so the crash
    // journal's mirror is synced under the same stripe guard — before
    // the next provider op (the next possible crash boundary) can run.
    // ------------------------------------------------------------------

    pub(crate) fn wal_log_put(&self, target: ProviderId, key: ObjectKey, data: Bytes) {
        let mut log = self.log_l();
        log.log_put(target, key, data);
        self.journal.sync_pending(&log);
    }

    pub(crate) fn wal_log_remove(&self, target: ProviderId, key: ObjectKey) {
        let mut log = self.log_l();
        log.log_remove(target, key);
        self.journal.sync_pending(&log);
    }

    pub(crate) fn wal_discharge(&self, target: ProviderId, key: &ObjectKey) {
        let mut log = self.log_l();
        log.discharge(target, key);
        self.journal.sync_pending(&log);
    }

    /// Mirrors the dirty-fragment set into the journal. Call after any
    /// dirty mutation, with the dirty stripe released.
    pub(crate) fn sync_dirty_journal(&self) {
        if self.journal.enabled() {
            let snapshot = self.dirty_l().clone();
            self.journal.sync_dirty(&snapshot);
        }
    }

    /// Puts `data` to every target in parallel. Unavailable (or
    /// breaker-rejected) targets get the write logged for the consistency
    /// update. Returns the batch and how many targets took the write
    /// synchronously.
    pub(crate) fn put_replicated(
        &self,
        name: &str,
        data: &Bytes,
        targets: &[ProviderId],
    ) -> (BatchReport, usize) {
        let key = Self::key(name);
        // The digest is what the object *should* hold from now on; it is
        // recorded up front so even log-replayed copies verify.
        self.integrity_l().record(name, data);
        let mut ops = Vec::new();
        let mut live = 0;
        let mut rejected: Vec<ProviderId> = Vec::new();
        for &t in targets {
            if !self.health.admits(t, self.now()) {
                // Open breaker: skip the call, log the write like an
                // outage miss. If it turns out no target takes the write
                // we come back to these below.
                self.note_breaker_reject(t);
                rejected.push(t);
                self.wal_log_put(t, key.clone(), data.clone());
                continue;
            }
            let put = {
                let _put = self.telemetry.span_labeled("put_replica", self.provider(t).name());
                self.guarded(t, |p| p.put(&key, data.clone()))
            };
            match put {
                Ok(out) => {
                    ops.push(out.report);
                    live += 1;
                }
                Err(_) => {
                    // Outages, exhausted retries, container errors — all
                    // become missed writes; the replay path will surface
                    // persistent problems.
                    self.wal_log_put(t, key.clone(), data.clone());
                }
            }
        }
        if live == 0 && !rejected.is_empty() {
            // Desperation pass: every admitted target failed, so a
            // breaker verdict is no longer allowed to cost us the write.
            // Force the rejected breakers closed and try for real.
            for t in rejected {
                self.health.reset(t);
                if let Ok(out) = self.guarded(t, |p| p.put(&key, data.clone())) {
                    ops.push(out.report);
                    live += 1;
                    // The forced put landed the authoritative bytes;
                    // the pessimistic log entry would only re-ship them
                    // on recovery. Discharge it.
                    self.wal_discharge(t, &key);
                }
            }
        }
        (BatchReport::parallel(ops), live)
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
    /// Each shipped item leaves a `meta.flush.block` / `meta.flush.diff`
    /// / `meta.flush.compact` trace event. The fields (dir, version,
    /// records, bytes) are pure functions of the serialized op order, so
    /// deterministic runs stay byte-identical.
    pub(crate) fn flush_metadata(&self) -> BatchReport {
        self.journal.crashpoint("meta.flush.pre");
        let items = self.meta.flush_dirty_encoded();
        if items.is_empty() {
            return BatchReport::empty();
        }
        let targets = self.replica_targets();
        let mut ops = Vec::new();
        for item in items {
            let bytes = Bytes::from(item.bytes);
            let (batch, _) = self.put_replicated(&item.object, &bytes, &targets);
            ops.extend(batch.ops);
            if self.telemetry.enabled() {
                let (event, counter) = match item.kind {
                    FlushKind::Block => ("meta.flush.block", "meta.flush.blocks"),
                    FlushKind::Diff => ("meta.flush.diff", "meta.flush.diffs"),
                    FlushKind::Compact => ("meta.flush.compact", "meta.flush.compacts"),
                };
                let mut ev = self.telemetry.event(event);
                ev.field("dir", item.dir.as_str())
                    .field("version", item.version)
                    .field("records", item.records as u64)
                    .field("bytes", bytes.len() as u64);
                if item.kind == FlushKind::Compact {
                    ev.field("folded", item.supersedes.len() as u64);
                }
                ev.emit();
                self.telemetry.inc(counter, 1);
            }
            // A compaction's full block supersedes its diff chain: the
            // diff objects are garbage now, and leaving them would both
            // leak billed storage and re-apply on the next restart (a
            // no-op by version, but the GC pass would never converge).
            for stale in &item.supersedes {
                self.integrity_l().forget(stale);
                let key = Self::key(stale);
                for &t in &targets {
                    match self.guarded(t, |p| p.remove(&key)) {
                        Ok(out) => ops.push(out.report),
                        // Verifiably gone — nothing left to reclaim.
                        Err(CloudError::NoSuchObject { .. })
                        | Err(CloudError::NoSuchContainer { .. }) => {}
                        // Unreachable: log the remove so recovery
                        // reclaims the stale diff later.
                        Err(_) => self.wal_log_remove(t, key.clone()),
                    }
                }
            }
        }
        self.journal.crashpoint("meta.flush.post");
        BatchReport::parallel(ops)
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

    // ------------------------------------------------------------------
    // Create
    // ------------------------------------------------------------------

    fn create_small(&self, path: &NormPath, data: &[u8]) -> SchemeResult<BatchReport> {
        let now = self.now();
        self.meta.create_file(path, data.len() as u64, now)?;
        let name = crate::scheme::object_name(path.as_str());
        let bytes = Bytes::copy_from_slice(data);
        let targets = self.replica_targets();
        let _intent = self.journal.begin(|| Intent::Create {
            path: path.as_str().to_string(),
            objects: targets.iter().map(|&t| (t, name.clone())).collect(),
        });

        let (batch, live) = self.put_replicated(&name, &bytes, &targets);
        if live == 0 {
            // No provider holds the data — fail the write and roll back.
            self.meta.remove_file(path)?;
            self.integrity_l().forget(&name);
            for &t in &targets {
                // Drop the logged writes for the rolled-back object.
                self.wal_log_remove(t, Self::key(&name));
            }
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "all replica targets unavailable".to_string(),
            });
        }
        self.cache_l().put(path.as_str(), bytes);
        self.meta.set_placement(
            path,
            Placement::Replicated { providers: targets, object: name },
            data.len() as u64,
            now,
        )?;
        Ok(batch.then(self.flush_metadata()))
    }

    fn create_large(&self, path: &NormPath, data: &[u8]) -> SchemeResult<BatchReport> {
        let now = self.now();
        self.meta.create_file(path, data.len() as u64, now)?;
        let base_name = crate::scheme::object_name(path.as_str());
        let targets = self.fragment_targets();
        let _intent = self.journal.begin(|| Intent::Create {
            path: path.as_str().to_string(),
            objects: (0..targets.len())
                .map(|i| (targets[i], format!("{base_name}.f{i}")))
                .collect(),
        });

        // Split + encode (rayon-parallel for multi-MB objects), in
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

        let mut fragments: Vec<(ProviderId, String)> = Vec::with_capacity(targets.len());
        let mut ops = Vec::new();
        let mut live = 0;
        let mut rejected: Vec<(ProviderId, String, Bytes)> = Vec::new();
        for (idx, fragment) in encoded.into_iter().enumerate() {
            let target = targets[idx];
            let name = format!("{base_name}.f{idx}");
            let key = Self::key(&name);
            let bytes = Bytes::from(fragment);
            self.integrity_l().record(&name, &bytes);
            if !self.health.admits(target, self.now()) {
                self.note_breaker_reject(target);
                self.wal_log_put(target, key, bytes.clone());
                rejected.push((target, name.clone(), bytes));
            } else {
                let put = {
                    let _put =
                        self.telemetry.span_labeled("put_fragment", self.provider(target).name());
                    self.guarded(target, |p| p.put(&key, bytes.clone()))
                };
                match put {
                    Ok(out) => {
                        ops.push(out.report);
                        live += 1;
                    }
                    Err(_) => self.wal_log_put(target, key, bytes),
                }
            }
            fragments.push((target, name));
        }
        if live < self.config.code.m() && !rejected.is_empty() {
            // Desperation pass: below the durability floor, so open
            // breakers no longer get a vote — force them closed and put
            // the rejected fragments for real.
            for (t, name, bytes) in rejected {
                self.health.reset(t);
                let key = Self::key(&name);
                if let Ok(out) = self.guarded(t, |p| p.put(&key, bytes.clone())) {
                    ops.push(out.report);
                    live += 1;
                    // The fragment landed after all: drop the pending-log
                    // entry so recovery does not re-ship identical bytes.
                    self.wal_discharge(t, &key);
                }
            }
        }

        if live < self.config.code.m() {
            // Not enough survivors to make the object durable: undo —
            // remove what landed, supersede the logged writes.
            self.meta.remove_file(path)?;
            for (t, name) in &fragments {
                let key = Self::key(name);
                self.integrity_l().forget(name);
                match self.guarded(*t, |p| p.remove(&key)) {
                    Ok(out) => ops.push(out.report),
                    Err(_) => self.wal_log_remove(*t, key),
                }
            }
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
        Ok(BatchReport::parallel(ops).then(self.flush_metadata()))
    }

    // ------------------------------------------------------------------
    // Read
    // ------------------------------------------------------------------

    /// One whole replica of `object`. With `expect_len` (the inode's
    /// size, for file payloads) a replica of any other length is an
    /// erasure like a digest mismatch: the read fails over to the next
    /// replica and no caller ever indexes into a short one.
    pub(crate) fn read_replicated(
        &self,
        path: &str,
        providers: &[ProviderId],
        object: &str,
        expect_len: Option<u64>,
    ) -> SchemeResult<(Bytes, BatchReport)> {
        let key = Self::key(object);
        // Fastest replica first — the evaluator's whole purpose — with
        // breaker-suspect providers demoted to the back of the line.
        // A replica with a pending log record holds stale bytes (it
        // missed the latest write); never serve a read from it.
        let mut order = Evaluator::order_by(self.evaluator.fastest_first(), providers);
        let now = self.now();
        order.sort_by_key(|&id| !self.health.admits(id, now));
        let candidates: Vec<(ProviderId, &ObjectKey)> = order
            .into_iter()
            .filter(|&id| !self.log_l().is_pending(id, &key))
            .map(|id| (id, &key))
            .collect();
        // One copy wins; the hedge timer fans out to a second replica
        // when the first is slow (metadata and small files included —
        // `list_dir`'s fastest-replica fetch rides the same path).
        let mut fanout = ReadFanout { hyrd: self, span: "fetch_replica", candidates, expect_len };
        let Some(mut outcome) = engine::fanout_read(&mut fanout, 1, &self.config.hedge, now) else {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("no replica of '{object}' reachable"),
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
        fragments: &[(ProviderId, String)],
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
        let keys: Vec<ObjectKey> = fragments.iter().map(|(_, name)| Self::key(name)).collect();
        let mut candidates: Vec<(usize, ProviderId, &ObjectKey)> = fragments
            .iter()
            .zip(&keys)
            .enumerate()
            .filter(|(i, ((p, _), key))| {
                self.provider(*p).is_available()
                    && !self.log_l().is_pending(*p, key)
                    && !self.dirty_l().contains(path, *i)
            })
            .map(|(i, ((p, _), key))| (i, *p, key))
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
        let frag_index: Vec<usize> = candidates.iter().map(|(i, _, _)| *i).collect();
        let fanout_candidates: Vec<(ProviderId, &ObjectKey)> =
            candidates.into_iter().map(|(_, p, key)| (p, key)).collect();
        let mut fanout = ReadFanout {
            hyrd: self,
            span: "fetch_fragment",
            candidates: fanout_candidates,
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
        let got: Vec<(usize, &Bytes)> =
            winners.iter().map(|w| (frag_index[w.candidate], &w.payload)).collect();
        let ops = report;
        let object = {
            let _dec = self
                .telemetry
                .span_with("ec.decode")
                .field("path", path)
                .field("fragments", got.len() as u64)
                .start();
            let wall = self.wall_start();
            let object = decode_object(self.code.as_code(), layout, &got)?;
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
        inode: &hyrd_metastore::Inode,
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
        let Placement::ErasureCoded { layout, fragments, hot_copy: None } = &inode.placement else {
            return batch;
        };
        let Some(&target) = self.evaluator.performance_tier().first() else {
            return batch;
        };
        let name = format!("{}.hot", crate::scheme::object_name(path.as_str()));
        let now = self.now();
        let hot_key = Self::key(&name);
        match self.guarded(target, |p| p.put(&hot_key, data.clone())) {
            Ok(out) => {
                self.integrity_l().record(&name, data);
                let landed = self.meta.set_placement_if_version(
                    path,
                    inode.version,
                    Placement::ErasureCoded {
                        layout: *layout,
                        fragments: fragments.clone(),
                        hot_copy: Some((target, name.clone())),
                    },
                    inode.size,
                    now,
                );
                if !matches!(landed, Ok(true)) {
                    // Raced an update or delete: the bytes we staged are
                    // already stale. Take the copy back out.
                    self.integrity_l().forget(&name);
                    let mut ops = vec![out.report];
                    match self.guarded(target, |p| p.remove(&hot_key)) {
                        Ok(rm) => ops.push(rm.report),
                        Err(CloudError::NoSuchObject { .. })
                        | Err(CloudError::NoSuchContainer { .. }) => {}
                        Err(_) => self.wal_log_remove(target, hot_key),
                    }
                    if self.telemetry.enabled() {
                        self.telemetry
                            .event("hot.install_raced")
                            .field("path", path.as_str())
                            .emit();
                        self.telemetry.inc("hot.install_races", 1);
                    }
                    return batch.with_background(BatchReport::parallel(ops));
                }
                let meta_batch = self.flush_metadata();
                batch.with_background(BatchReport::parallel(vec![out.report]).then(meta_batch))
            }
            Err(_) => batch,
        }
    }

    // ------------------------------------------------------------------
    // Update
    // ------------------------------------------------------------------

    fn update_replicated(
        &self,
        path: &NormPath,
        providers: Vec<ProviderId>,
        object: String,
        size: u64,
        offset: u64,
        data: &[u8],
    ) -> SchemeResult<BatchReport> {
        let (start, end) = (offset as usize, offset as usize + data.len());
        // Base version: the write-through cache's entry, lent out for the
        // length of the update, or one replica read. Either is exactly
        // `size` bytes, and either way this call now holds the client's
        // one copy of the file.
        let lent = self.cache_l().lend(path.as_str(), size as usize);
        let (base, lent_generation, read_batch) = match lent {
            Some((bytes, generation)) => (bytes, Some(generation), BatchReport::empty()),
            None => {
                let (bytes, report) =
                    self.read_replicated(path.as_str(), &providers, &object, Some(size))?;
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
        // Ranged write: only the modified bytes travel to each replica
        // (the Put function "writes or modifies a file", §III-D).
        // Unavailable replicas get the *full* new content logged so the
        // consistency update restores a complete object.
        let key = Self::key(&object);
        let patch = Bytes::copy_from_slice(data);
        let _intent = self.journal.begin(|| Intent::UpdateReplicated {
            path: path.as_str().to_string(),
            object: object.clone(),
            providers: providers.clone(),
            bytes: bytes.clone(),
        });
        let mut ops = Vec::new();
        let mut live = 0;
        let mut rejected: Vec<ProviderId> = Vec::new();
        for &t in &providers {
            if !self.health.admits(t, self.now()) {
                self.note_breaker_reject(t);
                rejected.push(t);
                self.wal_log_put(t, key.clone(), bytes.clone());
                continue;
            }
            match self.guarded(t, |p| p.put_range(&key, offset, patch.clone())) {
                Ok(out) => {
                    ops.push(out.report);
                    live += 1;
                }
                Err(_) => self.wal_log_put(t, key.clone(), bytes.clone()),
            }
        }
        if live == 0 && !rejected.is_empty() {
            // Desperation pass (see put_replicated): no admitted replica
            // took the update, so open breakers lose their veto. A forced
            // *ranged* write would land on a possibly-stale base — this
            // replica was breaker-rejected, so its recent writes may have
            // been missed. Ship the whole post-update object instead,
            // then discharge the log entry it makes redundant.
            for t in rejected {
                self.health.reset(t);
                if let Ok(out) = self.guarded(t, |p| p.put(&key, bytes.clone())) {
                    ops.push(out.report);
                    live += 1;
                    self.wal_discharge(t, &key);
                }
            }
        }
        let write_batch = BatchReport::parallel(ops);
        if live == 0 {
            // The update failed outright: supersede the logged entries
            // with the pre-update content so replay restores the state
            // the caller was told still stands.
            let mut old = Vec::from(bytes);
            old[start..end].copy_from_slice(&old_window);
            let old_bytes = Bytes::from(old);
            for &t in &providers {
                self.wal_log_put(t, key.clone(), old_bytes.clone());
            }
            if let Some(generation) = lent_generation {
                self.cache_l().hand_back(path.as_str(), generation, old_bytes);
            }
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no replica target available for update".to_string(),
            });
        }
        // The object's authoritative content changed: refresh the digest
        // of the blocks the patch touched (live replicas hold the new
        // content; logged replicas will after replay).
        self.integrity_l().record_patch(&object, &bytes, offset as usize, data.len());
        self.cache_l().put(path.as_str(), bytes);
        let now = self.now();
        self.meta.set_placement(path, Placement::Replicated { providers, object }, size, now)?;
        Ok(read_batch.then(write_batch).then(self.flush_metadata()))
    }

    #[allow(clippy::too_many_arguments)]
    fn update_erasure(
        &self,
        path: &NormPath,
        layout: hyrd_gfec::FragmentLayout,
        fragments: Vec<(ProviderId, String)>,
        hot_copy: Option<(ProviderId, String)>,
        size: u64,
        offset: u64,
        data: &[u8],
    ) -> SchemeResult<BatchReport> {
        // One engine for every code and every availability state: ranged
        // RMW when all touched providers are up, the window-decode
        // degraded path otherwise (missed fragments go dirty and are
        // rebuilt by recover_provider).
        let lookup = {
            let fleet = self.fleet.clone();
            move |id: ProviderId| fleet.get(id).expect("fleet member").clone()
        };
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
        let wal: Option<&dyn Fn(&[FragWrite])> =
            if self.journal.enabled() { Some(&wal_cb) } else { None };
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
        )?;
        let mut batch = outcome.batch;
        {
            let mut dirty = self.dirty_l();
            for idx in outcome.missed {
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

        // A stale hot copy must not serve future reads: drop it.
        let mut new_hot = hot_copy;
        if let Some((p, name)) = new_hot.take() {
            let hot_key = Self::key(&name);
            self.integrity_l().forget(&name);
            match self.guarded(p, |prov| prov.remove(&hot_key)) {
                Ok(out) => batch = batch.with_background(BatchReport::parallel(vec![out.report])),
                // Verifiably gone already — nothing left to reclaim.
                Err(CloudError::NoSuchObject { .. }) | Err(CloudError::NoSuchContainer { .. }) => {}
                // Outage, timeout, retries exhausted: the stale copy may
                // well still occupy (billed) provider storage. Log a
                // pending remove so recovery reclaims it.
                Err(_) => self.wal_log_remove(p, hot_key),
            }
        }
        // The content changed, so accumulated heat describes a file that
        // no longer exists. Reset unconditionally — not just when a hot
        // copy had to be dropped — or a file one read short of the
        // threshold gets a hot copy on its first post-update read.
        self.reads_remove(path);

        let now = self.now();
        self.meta.set_placement(
            path,
            Placement::ErasureCoded { layout, fragments, hot_copy: None },
            size,
            now,
        )?;
        Ok(batch.then(self.flush_metadata()))
    }

    // ------------------------------------------------------------------
    // Inherent API mirrored by the Scheme impls
    // ------------------------------------------------------------------

    /// Creates a file, classifying it through the Workload Monitor.
    pub fn create_file(&self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let _span = self
            .telemetry
            .span_with("create_file")
            .field("path", path)
            .field("bytes", data.len() as u64)
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

    /// Reads a whole file (degraded reads during outages are automatic).
    pub fn read_file(&self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let _span = self.telemetry.span_with("read_file").field("path", path).start();
        let npath = NormPath::parse(path)?;
        // Clone the placement out of the metadata stripe: the lock must
        // not be held across provider fetches (other sessions' metadata
        // operations would serialize behind this read).
        let mut inode = self.meta.inode(&npath)?;
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
            match self.meta.inode(&npath) {
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
        inode: &hyrd_metastore::Inode,
    ) -> SchemeResult<(Bytes, BatchReport)> {
        match &inode.placement {
            Placement::Pending => Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "file has no placement".to_string(),
            }),
            Placement::Replicated { providers, object } => {
                let out = self.read_replicated(path, providers, object, Some(inode.size))?;
                if self.config.policy.enabled {
                    // The adaptive policy wants heat on every class of
                    // read; without it, promoted files would look cold
                    // and ping-pong straight back to erasure coding.
                    self.reads_bump(npath);
                }
                Ok(out)
            }
            Placement::ErasureCoded { layout, fragments, hot_copy } => {
                // Prefer the hot copy (one fast whole-object Get) — but
                // only when it is current (no pending replay), its
                // breaker admits the call, and its bytes verify; any
                // doubt falls back to the erasure-coded truth.
                if let Some((p, name)) = hot_copy {
                    let hot_key = Self::key(name);
                    if !self.log_l().is_pending(*p, &hot_key) && self.health.admits(*p, self.now())
                    {
                        if let Ok(out) = self.guarded(*p, |prov| prov.get(&hot_key)) {
                            match self.check(*p, name, &out.value) {
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
                if self.telemetry.enabled() && hot_copy.is_some() {
                    // The fast whole-object path existed but could not
                    // serve this read (stale, rejected or corrupt).
                    self.telemetry.event("read.fallback").field("path", path).emit();
                    self.telemetry.inc("read.fallbacks", 1);
                }
                let (bytes, batch) = self.read_erasure(path, layout, fragments)?;
                let batch = self.maybe_cache_hot(npath, inode, &bytes, batch);
                Ok((bytes, batch))
            }
        }
    }

    /// Overwrites a byte range.
    pub fn update_file(&self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        let _span = self
            .telemetry
            .span_with("update_file")
            .field("path", path)
            .field("offset", offset)
            .field("bytes", data.len() as u64)
            .start();
        let npath = NormPath::parse(path)?;
        let inode = self.meta.inode(&npath)?;
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
        match inode.placement {
            Placement::Pending => Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "file has no placement".to_string(),
            }),
            Placement::Replicated { providers, object } => {
                self.update_replicated(&npath, providers, object, size, offset, data)
            }
            Placement::ErasureCoded { layout, fragments, hot_copy } => {
                self.update_erasure(&npath, layout, fragments, hot_copy, size, offset, data)
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
        let inode = self.meta.inode(&npath)?;
        let doomed: Vec<(ProviderId, &str)> = match &inode.placement {
            Placement::Pending => Vec::new(),
            Placement::Replicated { providers, object } => {
                providers.iter().map(|&p| (p, object.as_str())).collect()
            }
            Placement::ErasureCoded { fragments, hot_copy, .. } => {
                fragments.iter().chain(hot_copy).map(|(p, name)| (*p, name.as_str())).collect()
            }
        };
        let _intent = self.journal.begin(|| Intent::Delete {
            path: npath.as_str().to_string(),
            objects: doomed.iter().map(|&(p, name)| (p, name.to_string())).collect(),
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

        let mut ops = Vec::new();
        let mut remove_one = |p: ProviderId, name: &str| {
            let key = Self::key(name);
            self.integrity_l().forget(name);
            match self.guarded(p, |prov| prov.remove(&key)) {
                Ok(out) => ops.push(out.report),
                // The object verifiably does not exist (e.g. a logged
                // write that never landed): nothing to reclaim.
                Err(CloudError::NoSuchObject { .. }) | Err(CloudError::NoSuchContainer { .. }) => {}
                // Unavailable, timed out, retries exhausted — the object
                // may well still be there. Dropping the metadata while
                // leaving the bytes behind would leak billed storage
                // forever; log a pending remove so recovery reclaims it.
                Err(_) => self.wal_log_remove(p, key),
            }
        };
        for &(p, name) in &doomed {
            remove_one(p, name);
        }
        Ok(BatchReport::parallel(ops).then(self.flush_metadata()))
    }

    /// Lists a directory; fetches its metadata block from the fastest
    /// available replica first (the metadata access the workload studies
    /// say dominates).
    pub fn list_dir(&self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        let _span = self.telemetry.span_with("list_dir").field("path", path).start();
        let npath = NormPath::parse(path)?;
        let name = MetadataBlock::object_name(&npath);
        let targets = self.replica_targets();
        let batch = match self.read_replicated(path, &targets, &name, None) {
            Ok((_bytes, batch)) => batch,
            // Directory never flushed (or all replicas down): local view,
            // zero ops. Availability of listings degrades gracefully.
            Err(_) => BatchReport::empty(),
        };
        let names = self
            .meta
            .list(&npath)?
            .into_iter()
            .map(|e| match e {
                hyrd_metastore::DirEntry::Dir(n) => n,
                hyrd_metastore::DirEntry::File(n, _) => n,
            })
            .collect();
        Ok((names, batch))
    }

    /// Logical size of a file.
    pub fn file_size(&self, path: &str) -> Option<u64> {
        let npath = NormPath::parse(path).ok()?;
        self.meta.inode(&npath).ok().map(|i| i.size)
    }
}

/// The dispatcher's side of a fan-out read: the event engine owns the
/// timeline, this adapter owns the cloud. `candidates` are ranked
/// `(provider, object)` pairs; every fetch runs through the full
/// hardening stack ([`Hyrd::guarded`]: breaker admission, retries with
/// virtual-clock backoff, health bookkeeping) and integrity check, and
/// every admission/cancellation goes to the provider's queue.
struct ReadFanout<'a> {
    hyrd: &'a Hyrd,
    /// Telemetry span label ("fetch_replica" / "fetch_fragment").
    span: &'static str,
    candidates: Vec<(ProviderId, &'a ObjectKey)>,
    /// Length every payload must have, where the caller knows it.
    expect_len: Option<u64>,
}

impl ReadFanout<'_> {
    /// [`Hyrd::check`], after the length: a payload of the wrong length
    /// is corrupt whatever the integrity index knows (it knows nothing
    /// on a freshly attached client or a ghost fleet).
    fn check(&self, id: ProviderId, object: &str, bytes: &[u8]) -> Verdict {
        if self.expect_len.is_some_and(|len| bytes.len() as u64 != len) {
            return Verdict::Corrupt;
        }
        self.hyrd.check(id, object, bytes)
    }
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
            let _get = self.hyrd.telemetry.span_labeled(self.span, self.hyrd.provider(id).name());
            self.hyrd.guarded(id, |p| p.get(key))
        };
        match fetched {
            Ok(out) => match self.check(id, &key.name, &out.value) {
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
        let provider = self.hyrd.provider(self.candidates[idx].0);
        let admission = provider.queue().admit(now_ns, service_ns);
        if self.hyrd.telemetry.enabled() {
            // Registry-only backlog gauges (never the trace): the depth
            // this arrival contends with, last value + distribution.
            let depth = provider.queue().busy_at(now_ns) as u64;
            let telemetry = &self.hyrd.telemetry;
            telemetry.set_gauge_labeled("engine.queue_depth", provider.name(), depth as i64);
            telemetry.observe_labeled("engine.queue_depth", provider.name(), depth);
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

    #[test]
    fn oversized_cache_put_is_rejected_without_flushing_live_entries() {
        let mut cache = SmallFileCache::new(100);
        cache.put("/a", Bytes::from(vec![1u8; 40]));
        cache.put("/b", Bytes::from(vec![2u8; 40]));
        assert_eq!(cache.used, 80);

        // A payload over the whole budget must not land — and, crucially,
        // must not evict every live entry on its way to being evicted
        // itself (the pre-fix behaviour flushed the entire cache).
        cache.put("/huge", Bytes::from(vec![3u8; 101]));
        assert!(cache.get("/huge").is_none());
        assert_eq!(cache.used, 80, "live entries survive an oversized put");
        assert_eq!(cache.map.len(), 2);
        assert!(cache.get("/a").is_some());
        assert!(cache.get("/b").is_some());
    }

    #[test]
    fn oversized_cache_put_still_invalidates_the_stale_entry() {
        let mut cache = SmallFileCache::new(100);
        cache.put("/f", Bytes::from(vec![1u8; 30]));
        cache.put("/other", Bytes::from(vec![2u8; 30]));
        // The file grew past the budget: its cached bytes are stale and
        // must go, but unrelated entries stay.
        cache.put("/f", Bytes::from(vec![9u8; 200]));
        assert!(cache.get("/f").is_none());
        assert!(cache.get("/other").is_some());
        assert_eq!(cache.used, 30);
        assert_eq!(cache.map.len(), 1);
    }

    /// The cache as it was before entries could be lent out — `get` a
    /// shared view, `put` the patched copy — kept as the oracle for
    /// [`lending_cache_matches_the_get_put_oracle`].
    struct OracleCache {
        budget: usize,
        used: usize,
        generation: u64,
        map: HashMap<Arc<str>, (Bytes, u64)>,
        order: VecDeque<(Arc<str>, u64)>,
    }

    impl OracleCache {
        fn put(&mut self, path: &str, data: Bytes) {
            if data.len() > self.budget {
                self.remove(path);
                return;
            }
            let key = match self.map.remove_entry(path) {
                Some((key, (old, _))) => {
                    self.used -= old.len();
                    key
                }
                None => Arc::from(path),
            };
            self.generation += 1;
            self.used += data.len();
            self.map.insert(key.clone(), (data, self.generation));
            self.order.push_back((key, self.generation));
            while self.used > self.budget {
                let Some((victim, generation)) = self.order.pop_front() else {
                    break;
                };
                let live = self.map.get(&victim).is_some_and(|(_, g)| *g == generation);
                if live {
                    if let Some((b, _)) = self.map.remove(&victim) {
                        self.used -= b.len();
                    }
                }
            }
            if self.order.len() > self.map.len() * 2 + 16 {
                let map = &self.map;
                self.order.retain(|(p, g)| map.get(p).is_some_and(|(_, live)| live == g));
            }
        }

        fn get(&self, path: &str) -> Option<Bytes> {
            self.map.get(path).map(|(b, _)| b.clone())
        }

        fn remove(&mut self, path: &str) {
            if let Some((b, _)) = self.map.remove(path) {
                self.used -= b.len();
            }
        }
    }

    /// Same budget accounting, same generations, same FIFO — hence the
    /// same eviction victims in the same order — and, for every path not
    /// lent out right now, the same bytes.
    fn assert_same_state(cache: &SmallFileCache, oracle: &OracleCache, lent: Option<&str>) {
        assert_eq!(cache.used, oracle.used);
        assert_eq!(cache.generation, oracle.generation);
        assert_eq!(cache.order, oracle.order);
        assert_eq!(cache.map.len(), oracle.map.len());
        for (path, (bytes, generation)) in &oracle.map {
            let slot = &cache.map[path];
            assert_eq!((slot.len, slot.generation), (bytes.len(), *generation), "{path}");
            if lent == Some(&**path) {
                assert!(slot.data.is_none() && cache.get(path).is_none(), "{path} is lent");
            } else {
                assert_eq!(slot.data.as_ref(), Some(bytes), "{path}");
            }
        }
    }

    fn put_both(cache: &mut SmallFileCache, oracle: &mut OracleCache, path: &str, data: Bytes) {
        cache.put(path, data.clone());
        oracle.put(path, data);
    }

    /// The path whose slot is lent out: the loan's, until that slot is
    /// removed, evicted or replaced (the oracle's entry then no longer
    /// carries the generation the loan was taken at).
    fn lent_now<'a>(loan: &Option<(&'a str, Bytes, u64)>, oracle: &OracleCache) -> Option<&'a str> {
        let (path, _, generation) = loan.as_ref()?;
        oracle.map.get(*path).is_some_and(|(_, live)| live == generation).then_some(*path)
    }

    /// Random put / update (lend, then put or hand back) / remove / get
    /// sequences over a budget a few entries wide, with other operations
    /// landing while an entry is lent out: the lending cache answers and
    /// evicts exactly as `get` + `put` did, a failed update leaves no
    /// trace, a lent slot reads as a miss, and a remove during the loan
    /// is not undone by handing the bytes back.
    #[test]
    fn lending_cache_matches_the_get_put_oracle() {
        const PATHS: [&str; 6] = ["/a", "/b", "/c", "/d", "/e", "/f"];
        for seed in 0..200u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut cache = SmallFileCache::new(100);
            let mut oracle = OracleCache {
                budget: 100,
                used: 0,
                generation: 0,
                map: HashMap::new(),
                order: VecDeque::new(),
            };
            // What the metadata says each file's size is.
            let mut sizes: HashMap<&str, usize> = HashMap::new();
            // The update in flight: its path, the lent bytes, their generation.
            let mut loan: Option<(&str, Bytes, u64)> = None;
            let mut stamp = 0u8;
            let mut fresh = |len: usize| {
                stamp = stamp.wrapping_add(1);
                Bytes::from(vec![stamp; len])
            };
            for _ in 0..400 {
                let path = PATHS[rand(PATHS.len())];
                match rand(6) {
                    // Create (or migrate in): a few sizes, so a path is
                    // often re-created at the length a loan was taken at,
                    // and now and then one over the budget.
                    0 => {
                        let len = [10, 25, 40, 55, 70, 130][rand(6)];
                        sizes.insert(path, len);
                        put_both(&mut cache, &mut oracle, path, fresh(len));
                    }
                    // An update starts, or the one in flight ends.
                    1 | 2 => match loan.take() {
                        None => {
                            let Some(&size) = sizes.get(path) else { continue };
                            let held = oracle.get(path).filter(|b| b.len() == size);
                            let lent = cache.lend(path, size);
                            assert_eq!(lent.as_ref().map(|(b, _)| b), held.as_ref(), "hit or miss");
                            match lent {
                                Some((bytes, generation)) => loan = Some((path, bytes, generation)),
                                // A miss fetches a replica; the update
                                // lands (and caches it) or fails.
                                None if rand(2) == 0 => {
                                    put_both(&mut cache, &mut oracle, path, fresh(size))
                                }
                                None => {}
                            }
                        }
                        Some((path, bytes, _)) if rand(2) == 0 => {
                            put_both(&mut cache, &mut oracle, path, fresh(bytes.len()))
                        }
                        // Every replica refused: the oracle does nothing.
                        Some((path, bytes, generation)) => cache.hand_back(path, generation, bytes),
                    },
                    // Delete (or migrate out), lent or not.
                    3 => {
                        sizes.remove(path);
                        cache.remove(path);
                        oracle.remove(path);
                    }
                    _ if lent_now(&loan, &oracle) == Some(path) => {
                        assert!(cache.get(path).is_none(), "a lent slot reads as a miss");
                        assert!(cache.lend(path, sizes[path]).is_none(), "and lends once");
                    }
                    _ => assert_eq!(cache.get(path), oracle.get(path)),
                }
                assert_same_state(&cache, &oracle, lent_now(&loan, &oracle));
            }
        }
    }

    #[test]
    fn exactly_budget_sized_put_is_admitted() {
        let mut cache = SmallFileCache::new(100);
        cache.put("/f", Bytes::from(vec![1u8; 100]));
        assert!(cache.get("/f").is_some());
        assert_eq!(cache.used, 100);
    }
}
