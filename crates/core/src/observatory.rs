//! Availability observatory: streaming SLIs and redundancy-exposure
//! accounting over the telemetry event stream.
//!
//! The observatory consumes trace records — either **online**, tapped
//! straight off a live [`Collector`](hyrd_telemetry::Collector) via
//! [`SharedObservatory`], or **offline**, by parsing a JSONL trace file —
//! and folds them into three ledgers, all on the virtual clock. It reads a
//! record through the [`Record`] accessors, so the borrowed record a tap or
//! the streaming parser lends and an owned [`TraceRecord`] fold alike, and
//! folding a record whose providers and files are already known allocates
//! nothing:
//!
//! 1. **Per-provider SLIs** (a provider tracker → [`ProviderHealthView`]):
//!    op counts and per-kind latency histograms, fault/cancel/backoff/
//!    breaker-reject tallies, an error-rate EWMA, and an availability
//!    fraction derived from `provider.status` down/up windows.
//! 2. **Per-file redundancy exposure** ([`FileTracker`] → [`FileExposure`]):
//!    intervals during which a file sits below full redundancy. An
//!    interval opens when a fragment goes dirty (`update.dirty`), is found
//!    corrupt (`scrub.corrupt` with a fragment), or is observed missing at
//!    read time (`read.degraded.fragment`); it closes when the fragment is
//!    rebuilt (`recovery.rebuild`) or repaired (`scrub.repair`). The sum of
//!    interval lengths is the file's **exposure-seconds**, attributed to
//!    the provider that held the degraded fragment.
//! 3. **A read ledger**: successful reads (`replay.op` with a read class)
//!    versus refused reads (`replay.error` with `op == "read"`), giving the
//!    empirical per-read availability that `trace_report` cross-checks
//!    against the paper's analytical model.
//!
//! Determinism: ingestion is a pure left-fold over the record sequence and
//! everything it reports is in name order, so the rendered report is
//! byte-identical for the same trace no matter how the records were
//! produced or parsed ([`from_trace`] streams line by line; the parallel
//! parser in [`parse_trace_jobs`] only parallelises *parsing*; ingestion
//! order is always trace order). DESIGN.md §14 states the contract and
//! defines each SLI precisely.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hyrd_gcsapi::sync::lock;
use hyrd_telemetry::{
    for_each_record, Histogram, LineParser, MetricsSnapshot, ParseError, Record, RecordKind,
    RecordRef, TraceRecord,
};

use crate::driver::replay_sweep;

/// Smoothing factor for the per-provider error-rate EWMA: each op pulls
/// the estimate toward 0, each fault toward 1. Small enough to remember
/// a burst for ~dozens of ops, large enough to decay between incidents.
const ERROR_EWMA_ALPHA: f64 = 0.05;

/// Lines per parallel parse chunk in [`parse_trace_jobs`].
const PARSE_CHUNK_LINES: usize = 512;

/// `map[key]`, made with its default value on first sight. The key is
/// copied only then: a hit allocates nothing.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present, or inserted above")
}

/// Values keyed by a short name — a provider, an op kind — in first-seen
/// order. A fold meets a handful of each, so a record finds its entry by
/// comparing a few short strings instead of walking a B-tree of them;
/// whatever is rendered goes through [`Self::in_name_order`].
#[derive(Debug, Clone)]
struct ByName<V>(Vec<(String, V)>);

impl<V> Default for ByName<V> {
    fn default() -> Self {
        ByName(Vec::new())
    }
}

impl<V: Default> ByName<V> {
    /// The entry for `name`, made on first sight (the only time the name
    /// is copied).
    fn slot(&mut self, name: &str) -> &mut V {
        let at = match self.0.iter().position(|(n, _)| n == name) {
            Some(at) => at,
            None => {
                self.0.push((name.to_string(), V::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    fn in_name_order(&self) -> Vec<&(String, V)> {
        let mut entries: Vec<_> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

// ---------------------------------------------------------------------------
// Per-provider tracking
// ---------------------------------------------------------------------------

/// Streaming per-provider state. All counters are exact; the EWMA is the
/// only smoothed quantity.
#[derive(Debug, Clone, Default)]
struct ProviderTracker {
    /// Completed provider operations.
    ops: u64,
    /// Ops and their latency histogram (nanoseconds) by op kind ("Get",
    /// "Put", ...).
    by_kind: ByName<(u64, Histogram)>,
    /// Latency across all kinds, nanoseconds.
    latency: Histogram,
    /// Bytes uploaded to the provider.
    bytes_in: u64,
    /// Bytes downloaded from the provider.
    bytes_out: u64,
    /// Faults, total and by reason string.
    faults: u64,
    faults_by_reason: BTreeMap<String, u64>,
    /// Hedging cancellations credited to the provider.
    cancels: u64,
    /// Retry backoffs attributed to the provider.
    backoffs: u64,
    /// Requests the circuit breaker refused to send.
    breaker_rejects: u64,
    /// Error-rate EWMA in [0, 1]: ops pull toward 0, faults toward 1.
    error_ewma: f64,
    /// When the provider went down, if currently down.
    down_since: Option<u64>,
    /// Accumulated downtime from closed down/up windows, nanoseconds.
    downtime_ns: u64,
    /// Number of down transitions observed.
    outages: u64,
    /// Outage windows announced via `provider.outage_scheduled`.
    outages_scheduled: u64,
    /// Peak engine queue depth, folded in from the metrics registry by
    /// [`Observatory::absorb_metrics`] (gauges never reach the trace).
    queue_depth_peak: u64,
}

impl ProviderTracker {
    fn note_op(&mut self, kind: &str, latency_ns: u64, bytes_in: u64, bytes_out: u64) {
        self.ops += 1;
        let (ops, latency) = self.by_kind.slot(kind);
        *ops += 1;
        latency.record(latency_ns);
        self.latency.record(latency_ns);
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
        self.error_ewma *= 1.0 - ERROR_EWMA_ALPHA;
    }

    fn note_fault(&mut self, reason: &str) {
        self.faults += 1;
        *slot(&mut self.faults_by_reason, reason) += 1;
        self.error_ewma = self.error_ewma * (1.0 - ERROR_EWMA_ALPHA) + ERROR_EWMA_ALPHA;
    }

    /// Downtime including a still-open down window extended to `now_ns`.
    fn downtime_at(&self, now_ns: u64) -> u64 {
        let open = self.down_since.map_or(0, |s| now_ns.saturating_sub(s));
        self.downtime_ns + open
    }
}

/// Rendered per-provider SLI row: the health view the report exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderHealthView {
    pub provider: String,
    /// Uptime fraction over the trace horizon (1.0 when never down).
    pub availability: f64,
    pub error_ewma: f64,
    pub ops: u64,
    pub faults: u64,
    pub cancels: u64,
    pub backoffs: u64,
    pub breaker_rejects: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
    pub downtime_ns: u64,
    pub outages: u64,
    pub queue_depth_peak: u64,
}

// ---------------------------------------------------------------------------
// Per-file exposure tracking
// ---------------------------------------------------------------------------

/// Streaming per-file state: which fragments are currently below full
/// redundancy and how much exposure has accumulated.
#[derive(Debug, Clone, Default)]
pub struct FileTracker {
    /// Open exposure intervals, at most one per (fragment index, provider
    /// name). A fragment re-reported dirty while already open keeps its
    /// original open time (exposure started then). A file has a handful of
    /// fragments, so this is searched, and every reader sums over it: the
    /// order intervals sit in never shows.
    open: Vec<OpenInterval>,
    /// Exposure from closed intervals, nanoseconds.
    pub exposure_ns: u64,
    /// Closed interval count.
    pub intervals_closed: u64,
    /// Exposure attribution per provider (closed intervals), nanoseconds.
    pub by_provider: BTreeMap<String, u64>,
    /// Degraded reads observed for this file.
    pub degraded_reads: u64,
    /// Corruptions the scrubber detected on this file's objects.
    pub corrupt: u64,
}

#[derive(Debug, Clone)]
struct OpenInterval {
    fragment: u64,
    provider: String,
    since: u64,
}

impl FileTracker {
    fn position(&self, fragment: u64, provider: &str) -> Option<usize> {
        self.open.iter().position(|i| i.fragment == fragment && i.provider == provider)
    }

    fn open_interval(&mut self, fragment: u64, provider: &str, t: u64) {
        if self.position(fragment, provider).is_none() {
            self.open.push(OpenInterval { fragment, provider: provider.to_string(), since: t });
        }
    }

    fn close_interval(&mut self, fragment: u64, provider: &str, t: u64) {
        if let Some(at) = self.position(fragment, provider) {
            let span = t.saturating_sub(self.open.swap_remove(at).since);
            self.exposure_ns += span;
            self.intervals_closed += 1;
            *slot(&mut self.by_provider, provider) += span;
        }
    }

    /// Exposure including still-open intervals extended to `now_ns`.
    fn exposure_at(&self, now_ns: u64) -> u64 {
        let open: u64 = self.open.iter().map(|i| now_ns.saturating_sub(i.since)).sum();
        self.exposure_ns + open
    }

    /// Attribution including still-open intervals extended to `now_ns`.
    fn attribution_at(&self, now_ns: u64) -> BTreeMap<String, u64> {
        let mut out = self.by_provider.clone();
        for i in &self.open {
            *slot(&mut out, &i.provider) += now_ns.saturating_sub(i.since);
        }
        out
    }
}

/// Rendered per-file exposure row.
#[derive(Debug, Clone, PartialEq)]
pub struct FileExposure {
    pub path: String,
    /// Total exposure (closed + still-open-at-horizon), nanoseconds.
    pub exposure_ns: u64,
    /// Intervals still open when the trace ended.
    pub open_intervals: u64,
    pub intervals_closed: u64,
    pub degraded_reads: u64,
    pub corrupt: u64,
    /// Exposure per provider, nanoseconds.
    pub by_provider: BTreeMap<String, u64>,
}

// ---------------------------------------------------------------------------
// The observatory
// ---------------------------------------------------------------------------

/// The streaming aggregator. Feed it records with [`Observatory::ingest`]
/// (any order of construction works, but SLI semantics assume trace
/// order); read results with [`Observatory::report`].
#[derive(Debug, Clone, Default)]
pub struct Observatory {
    /// Schema version from the trace's meta record.
    pub schema: Option<u32>,
    /// Clock domain from the meta record ("virtual" or "wall").
    pub clock_domain: String,
    /// Records ingested, including meta.
    pub records: u64,
    /// First timestamp seen.
    start_ns: Option<u64>,
    /// Largest timestamp seen.
    last_ns: u64,
    providers: ByName<ProviderTracker>,
    files: BTreeMap<String, FileTracker>,
    /// Successful reads by tier.
    pub reads_ok_small: u64,
    pub reads_ok_large: u64,
    /// Reads the scheme refused (`replay.error` with `op == "read"`).
    pub reads_failed: u64,
    /// Successful non-read replay ops (context for the ledger).
    pub other_ops_ok: u64,
    /// Non-read replay errors.
    pub other_ops_failed: u64,
    /// Metadata-plane flush ledger (`meta.flush.*` events).
    meta: MetaPlaneTracker,
}

/// Running totals for the metadata plane: how the metastore shipped its
/// state (full blocks vs incremental diffs vs compactions) and, via
/// [`Observatory::absorb_metrics`], the OCC contention gauges.
#[derive(Debug, Clone, Default, PartialEq)]
struct MetaPlaneTracker {
    flush_blocks: u64,
    flush_diffs: u64,
    flush_compacts: u64,
    records: u64,
    bytes: u64,
    /// Diff frames folded away by compactions.
    diffs_folded: u64,
    /// Registry-only OCC gauges (zero when analysing a bare trace).
    occ_conflicts: u64,
    occ_retries: u64,
    chain_max: u64,
}

impl Observatory {
    pub fn new() -> Self {
        Self::default()
    }

    fn provider(&mut self, name: &str) -> &mut ProviderTracker {
        self.providers.slot(name)
    }

    fn file(&mut self, path: &str) -> &mut FileTracker {
        slot(&mut self.files, path)
    }

    /// Folds one record, owned or borrowed, into the ledgers.
    pub fn ingest<R: Record + ?Sized>(&mut self, rec: &R) {
        self.records += 1;
        if let Some((schema, clock)) = rec.meta() {
            self.schema = Some(schema);
            if self.clock_domain != clock {
                self.clock_domain = clock.to_string();
            }
        }
        let t = rec.t();
        if self.start_ns.is_none() {
            self.start_ns = Some(t);
        }
        self.last_ns = self.last_ns.max(t);

        let (RecordKind::Event, Some(name)) = (rec.kind(), rec.name()) else {
            return;
        };
        let mut f = EventFields::default();
        rec.each_field(&mut |key, s, n| f.note(key, s, n));
        // The fragment a record is about: file, fragment index, holder.
        let fragment = || Some((f.path?, f.fragment?, f.provider?));
        match name {
            "provider.op" => {
                if let Some(p) = f.provider {
                    let kind = f.op.unwrap_or("?");
                    let lat = f.latency_ns.unwrap_or(0);
                    let (bin, bout) = (f.bytes_in.unwrap_or(0), f.bytes_out.unwrap_or(0));
                    self.provider(p).note_op(kind, lat, bin, bout);
                }
            }
            "provider.fault" => {
                if let Some(p) = f.provider {
                    self.provider(p).note_fault(f.reason.unwrap_or("?"));
                }
            }
            "provider.cancel" => {
                if let Some(p) = f.provider {
                    self.provider(p).cancels += 1;
                }
            }
            "retry.backoff" => {
                if let Some(p) = f.provider {
                    self.provider(p).backoffs += 1;
                }
            }
            "breaker.reject" => {
                if let Some(p) = f.provider {
                    self.provider(p).breaker_rejects += 1;
                }
            }
            "provider.status" => {
                if let (Some(p), Some(state)) = (f.provider, f.state) {
                    let tracker = self.provider(p);
                    match state {
                        "down" if tracker.down_since.is_none() => {
                            tracker.down_since = Some(t);
                            tracker.outages += 1;
                        }
                        "up" => {
                            if let Some(since) = tracker.down_since.take() {
                                tracker.downtime_ns += t.saturating_sub(since);
                            }
                        }
                        _ => {}
                    }
                }
            }
            "provider.outage_scheduled" => {
                if let Some(p) = f.provider {
                    self.provider(p).outages_scheduled += 1;
                }
            }
            "update.dirty" | "read.degraded.fragment" => {
                if let Some((path, frag, p)) = fragment() {
                    self.file(path).open_interval(frag, p, t);
                }
            }
            "read.degraded" => {
                if let Some(path) = f.path {
                    self.file(path).degraded_reads += 1;
                }
            }
            "scrub.corrupt" => {
                if let Some(path) = f.path {
                    let tracker = self.file(path);
                    tracker.corrupt += 1;
                    if let (Some(frag), Some(p)) = (f.fragment, f.provider) {
                        tracker.open_interval(frag, p, t);
                    }
                }
            }
            "scrub.repair" | "recovery.rebuild" => {
                if let Some((path, frag, p)) = fragment() {
                    self.file(path).close_interval(frag, p, t);
                }
            }
            "replay.op" => match f.class {
                Some("small-read") => self.reads_ok_small += 1,
                Some("large-read") => self.reads_ok_large += 1,
                Some(_) => self.other_ops_ok += 1,
                None => {}
            },
            "replay.error" => {
                if f.op == Some("read") {
                    self.reads_failed += 1;
                } else {
                    self.other_ops_failed += 1;
                }
            }
            "meta.flush.block" | "meta.flush.diff" | "meta.flush.compact" => {
                match name {
                    "meta.flush.block" => self.meta.flush_blocks += 1,
                    "meta.flush.diff" => self.meta.flush_diffs += 1,
                    _ => {
                        self.meta.flush_compacts += 1;
                        self.meta.diffs_folded += f.folded.unwrap_or(0);
                    }
                }
                self.meta.records += f.records.unwrap_or(0);
                self.meta.bytes += f.bytes.unwrap_or(0);
            }
            _ => {}
        }
    }

    /// Folds registry-only signals (engine queue-depth histograms) into
    /// the provider trackers. Gauges never reach the trace, so offline
    /// analysis of a bare trace simply reports zero peaks.
    pub fn absorb_metrics(&mut self, metrics: &MetricsSnapshot) {
        for (provider, digest) in metrics.histograms_labeled("engine.queue_depth") {
            let tracker = self.provider(&provider);
            tracker.queue_depth_peak = tracker.queue_depth_peak.max(digest.max);
        }
        let gauge = |name: &str| metrics.gauges.get(name).copied().map_or(0, |v| v.max(0) as u64);
        self.meta.occ_conflicts = self.meta.occ_conflicts.max(gauge("meta.occ.conflicts"));
        self.meta.occ_retries = self.meta.occ_retries.max(gauge("meta.occ.retries"));
        self.meta.chain_max = self.meta.chain_max.max(gauge("meta.chain.max"));
    }

    /// Trace horizon in nanoseconds (first to last timestamp).
    pub fn horizon_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.start_ns.unwrap_or(0))
    }

    /// Successful reads across both tiers.
    pub fn reads_ok(&self) -> u64 {
        self.reads_ok_small + self.reads_ok_large
    }

    /// Empirical per-read availability: `ok / (ok + failed)`; 1.0 when no
    /// reads were attempted.
    pub fn empirical_read_availability(&self) -> f64 {
        let total = self.reads_ok() + self.reads_failed;
        if total == 0 {
            1.0
        } else {
            self.reads_ok() as f64 / total as f64
        }
    }

    /// Fraction of successful reads that were small-tier (the model's
    /// `small_request_frac` input, measured rather than assumed).
    pub fn small_read_fraction(&self) -> f64 {
        let ok = self.reads_ok();
        if ok == 0 {
            0.0
        } else {
            self.reads_ok_small as f64 / ok as f64
        }
    }

    /// Snapshot of the per-provider SLIs, horizon-closed, in name order.
    pub fn provider_health(&self) -> Vec<ProviderHealthView> {
        let horizon = self.horizon_ns();
        self.providers
            .in_name_order()
            .into_iter()
            .map(|(name, tr)| {
                let downtime = tr.downtime_at(self.last_ns);
                let availability = if horizon == 0 {
                    1.0
                } else {
                    1.0 - (downtime.min(horizon) as f64 / horizon as f64)
                };
                ProviderHealthView {
                    provider: name.clone(),
                    availability,
                    error_ewma: tr.error_ewma,
                    ops: tr.ops,
                    faults: tr.faults,
                    cancels: tr.cancels,
                    backoffs: tr.backoffs,
                    breaker_rejects: tr.breaker_rejects,
                    bytes_in: tr.bytes_in,
                    bytes_out: tr.bytes_out,
                    latency_p50_ns: tr.latency.quantile(0.50),
                    latency_p99_ns: tr.latency.quantile(0.99),
                    downtime_ns: downtime,
                    outages: tr.outages,
                    queue_depth_peak: tr.queue_depth_peak,
                }
            })
            .collect()
    }

    /// Snapshot of per-file exposure, horizon-closed, only files with any
    /// exposure activity, sorted by path.
    pub fn file_exposure(&self) -> Vec<FileExposure> {
        self.files
            .iter()
            .filter(|(_, tr)| {
                tr.exposure_at(self.last_ns) > 0 || tr.degraded_reads > 0 || tr.corrupt > 0
            })
            .map(|(path, tr)| FileExposure {
                path: path.clone(),
                exposure_ns: tr.exposure_at(self.last_ns),
                open_intervals: tr.open.len() as u64,
                intervals_closed: tr.intervals_closed,
                degraded_reads: tr.degraded_reads,
                corrupt: tr.corrupt,
                by_provider: tr.attribution_at(self.last_ns),
            })
            .collect()
    }

    /// Full report snapshot.
    pub fn report(&self) -> ObservatoryReport {
        let files = self.file_exposure();
        let mut exposure_by_provider: BTreeMap<String, u64> = BTreeMap::new();
        for f in &files {
            for (p, ns) in &f.by_provider {
                *exposure_by_provider.entry(p.clone()).or_insert(0) += ns;
            }
        }
        ObservatoryReport {
            schema: self.schema,
            clock_domain: self.clock_domain.clone(),
            records: self.records,
            horizon_ns: self.horizon_ns(),
            providers: self.provider_health(),
            files,
            exposure_by_provider,
            reads_ok_small: self.reads_ok_small,
            reads_ok_large: self.reads_ok_large,
            reads_failed: self.reads_failed,
            empirical_read_availability: self.empirical_read_availability(),
            small_read_fraction: self.small_read_fraction(),
            meta_flush_blocks: self.meta.flush_blocks,
            meta_flush_diffs: self.meta.flush_diffs,
            meta_flush_compacts: self.meta.flush_compacts,
            meta_flush_records: self.meta.records,
            meta_flush_bytes: self.meta.bytes,
            meta_diffs_folded: self.meta.diffs_folded,
            meta_occ_conflicts: self.meta.occ_conflicts,
            meta_occ_retries: self.meta.occ_retries,
            meta_chain_max: self.meta.chain_max,
        }
    }
}

/// The fields the fold reads, gathered in one pass over a record: each
/// holds what `field_str` / `field_u64` of its key returns.
#[derive(Default)]
struct EventFields<'r> {
    provider: Option<&'r str>,
    op: Option<&'r str>,
    reason: Option<&'r str>,
    state: Option<&'r str>,
    path: Option<&'r str>,
    class: Option<&'r str>,
    fragment: Option<u64>,
    latency_ns: Option<u64>,
    bytes_in: Option<u64>,
    bytes_out: Option<u64>,
    folded: Option<u64>,
    records: Option<u64>,
    bytes: Option<u64>,
}

impl<'r> EventFields<'r> {
    fn note(&mut self, key: &'r str, s: Option<&'r str>, n: Option<u64>) {
        match key {
            "provider" => self.provider = s,
            "op" => self.op = s,
            "reason" => self.reason = s,
            "state" => self.state = s,
            "path" => self.path = s,
            "class" => self.class = s,
            "fragment" => self.fragment = n,
            "latency_ns" => self.latency_ns = n,
            "bytes_in" => self.bytes_in = n,
            "bytes_out" => self.bytes_out = n,
            "folded" => self.folded = n,
            "records" => self.records = n,
            "bytes" => self.bytes = n,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Point-in-time observatory output: everything the SLI and exposure
/// sections of `trace_report` print. Rendering is hand-rolled so the
/// bytes are fully under this crate's control (same rationale as the
/// trace emitter).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservatoryReport {
    pub schema: Option<u32>,
    pub clock_domain: String,
    pub records: u64,
    pub horizon_ns: u64,
    pub providers: Vec<ProviderHealthView>,
    pub files: Vec<FileExposure>,
    /// Exposure-seconds attributed per provider, across all files.
    pub exposure_by_provider: BTreeMap<String, u64>,
    pub reads_ok_small: u64,
    pub reads_ok_large: u64,
    pub reads_failed: u64,
    pub empirical_read_availability: f64,
    pub small_read_fraction: f64,
    /// Metadata-plane flush ledger: full blocks, incremental diffs and
    /// compactions shipped by `flush_metadata`.
    pub meta_flush_blocks: u64,
    pub meta_flush_diffs: u64,
    pub meta_flush_compacts: u64,
    pub meta_flush_records: u64,
    pub meta_flush_bytes: u64,
    /// Diff frames folded into full blocks by compaction.
    pub meta_diffs_folded: u64,
    /// OCC contention gauges (registry-only; zero on a bare trace).
    pub meta_occ_conflicts: u64,
    pub meta_occ_retries: u64,
    /// Longest live diff chain observed behind any directory block.
    pub meta_chain_max: u64,
}

fn secs(ns: u64) -> String {
    format!("{:.6}", ns as f64 / 1e9)
}

impl ObservatoryReport {
    /// Total exposure-seconds across all files, nanoseconds.
    pub fn total_exposure_ns(&self) -> u64 {
        self.files.iter().map(|f| f.exposure_ns).sum()
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# availability observatory\n");
        out.push_str(&format!(
            "schema={} clock={} records={} horizon_s={}\n",
            self.schema.map_or("?".to_string(), |s| s.to_string()),
            if self.clock_domain.is_empty() { "?" } else { &self.clock_domain },
            self.records,
            secs(self.horizon_ns),
        ));

        out.push_str("\n## provider SLIs\n");
        out.push_str(
            "provider              avail     ewma    ops     faults cancels backoff rejects \
             p50_s      p99_s      down_s     outages qpeak\n",
        );
        for p in &self.providers {
            out.push_str(&format!(
                "{:<21} {:<9.6} {:<7.4} {:<7} {:<6} {:<7} {:<7} {:<7} \
                 {:<10} {:<10} {:<10} {:<7} {}\n",
                p.provider,
                p.availability,
                p.error_ewma,
                p.ops,
                p.faults,
                p.cancels,
                p.backoffs,
                p.breaker_rejects,
                secs(p.latency_p50_ns),
                secs(p.latency_p99_ns),
                secs(p.downtime_ns),
                p.outages,
                p.queue_depth_peak,
            ));
        }

        out.push_str("\n## redundancy exposure\n");
        out.push_str(&format!(
            "total_exposure_s={} files_exposed={}\n",
            secs(self.total_exposure_ns()),
            self.files.len(),
        ));
        if !self.files.is_empty() {
            out.push_str("path                        exposure_s open closed degraded corrupt\n");
            for f in &self.files {
                out.push_str(&format!(
                    "{:<27} {:<10} {:<4} {:<6} {:<8} {}\n",
                    f.path,
                    secs(f.exposure_ns),
                    f.open_intervals,
                    f.intervals_closed,
                    f.degraded_reads,
                    f.corrupt,
                ));
            }
        }
        if !self.exposure_by_provider.is_empty() {
            out.push_str("attribution (provider -> exposure_s):\n");
            for (p, ns) in &self.exposure_by_provider {
                out.push_str(&format!("  {:<21} {}\n", p, secs(*ns)));
            }
        }

        let meta_flushes =
            self.meta_flush_blocks + self.meta_flush_diffs + self.meta_flush_compacts;
        if meta_flushes > 0 || self.meta_occ_conflicts > 0 || self.meta_occ_retries > 0 {
            out.push_str("\n## metadata plane\n");
            out.push_str(&format!(
                "flushes={} (blocks={} diffs={} compacts={}) records={} bytes={} \
                 diffs_folded={}\n",
                meta_flushes,
                self.meta_flush_blocks,
                self.meta_flush_diffs,
                self.meta_flush_compacts,
                self.meta_flush_records,
                self.meta_flush_bytes,
                self.meta_diffs_folded,
            ));
            out.push_str(&format!(
                "occ_conflicts={} occ_retries={} chain_max={}\n",
                self.meta_occ_conflicts, self.meta_occ_retries, self.meta_chain_max,
            ));
        }

        out.push_str("\n## read ledger\n");
        out.push_str(&format!(
            "reads_ok={} (small={} large={}) reads_failed={} \
             empirical_availability={:.6} small_read_fraction={:.4}\n",
            self.reads_ok_small + self.reads_ok_large,
            self.reads_ok_small,
            self.reads_ok_large,
            self.reads_failed,
            self.empirical_read_availability,
            self.small_read_fraction,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Online tap
// ---------------------------------------------------------------------------

/// A clonable handle wrapping an [`Observatory`] behind a mutex, so a
/// live collector can stream records into it via
/// [`CollectorBuilder::tap`](hyrd_telemetry::CollectorBuilder::tap):
///
/// ```ignore
/// let obs = SharedObservatory::new();
/// let collector = Collector::builder(clock).tap(obs.tap()).build();
/// // ... run the workload ...
/// collector.flush();
/// let report = obs.report();
/// ```
///
/// The tap runs on the collector's writer thread in emission order, so
/// the online fold sees exactly the sequence an offline parse of the same
/// trace would — [`Observatory::report`] output is identical either way.
/// It folds behind the request path: read the report after
/// `Collector::flush`, which waits for it.
#[derive(Clone, Default)]
pub struct SharedObservatory(Arc<Mutex<Observatory>>);

impl SharedObservatory {
    pub fn new() -> Self {
        Self::default()
    }

    /// The closure to hand to `CollectorBuilder::tap`.
    pub fn tap(&self) -> impl FnMut(&RecordRef<'_>) + Send + 'static {
        let shared = Arc::clone(&self.0);
        move |rec: &RecordRef<'_>| {
            lock(&shared).ingest(rec);
        }
    }

    /// Clone of the current aggregator state.
    pub fn snapshot(&self) -> Observatory {
        lock(&self.0).clone()
    }

    /// Folds registry metrics in (see [`Observatory::absorb_metrics`]).
    pub fn absorb_metrics(&self, metrics: &MetricsSnapshot) {
        lock(&self.0).absorb_metrics(metrics);
    }

    /// Current report.
    pub fn report(&self) -> ObservatoryReport {
        lock(&self.0).report()
    }
}

// ---------------------------------------------------------------------------
// Offline parsing
// ---------------------------------------------------------------------------

/// Parses a JSONL trace into owned records with `jobs` worker threads, for
/// consumers that need the whole record sequence at hand (`trace_report`'s
/// span forest and heat-map). Lines are split into fixed-size chunks,
/// chunks parse in parallel via [`replay_sweep`], and results are
/// re-joined in line order — so the record sequence (and everything
/// derived from it) is identical for every `jobs` value. An error names
/// its line, 0-based.
pub fn parse_trace_jobs(text: &str, jobs: usize) -> Result<Vec<TraceRecord>, ParseError> {
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
    let cells: Vec<_> = lines
        .chunks(PARSE_CHUNK_LINES)
        .map(|chunk| {
            move || -> Result<Vec<TraceRecord>, ParseError> {
                let mut parser = LineParser::new();
                let mut owned = Vec::with_capacity(chunk.len());
                for &(i, line) in chunk {
                    let records = parser.parse(line).map_err(|e| e.on_line(i))?;
                    owned.extend(records.iter().map(|rec| rec.to_owned()));
                }
                Ok(owned)
            }
        })
        .collect();
    let mut out = Vec::with_capacity(lines.len());
    for cell in replay_sweep(cells, jobs) {
        out.extend(cell?);
    }
    Ok(out)
}

/// Builds an observatory from a JSONL trace in one call: each line is
/// parsed into a borrowed record and folded before the next is read, on
/// the calling thread. No record outlives its fold, so memory is the
/// ledgers' and time is one pass over the text. The fold is sequential by
/// contract and the borrowed parse is a small part of it, so `jobs` has
/// nothing left to spread; it stays for the callers that pass their
/// `--jobs` through.
pub fn from_trace(text: &str, _jobs: usize) -> Result<Observatory, ParseError> {
    let mut obs = Observatory::new();
    for_each_record(text, |rec| obs.ingest(rec))?;
    Ok(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_telemetry::{Fields, Value};

    fn event(name: &str, t: u64, fields: &[(&str, Value)]) -> TraceRecord {
        let mut f = Fields::new();
        for (k, v) in fields {
            f.insert(k.to_string(), v.clone());
        }
        TraceRecord::Event { span: None, name: name.to_string(), t, fields: f }
    }

    fn s(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    fn synthetic_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Meta { schema: 2, clock: "virtual".into(), t: 0 },
            event(
                "provider.op",
                1_000_000_000,
                &[
                    ("provider", s("Amazon S3")),
                    ("op", s("Get")),
                    ("bytes_in", Value::U64(0)),
                    ("bytes_out", Value::U64(4096)),
                    ("latency_ns", Value::U64(5_000_000)),
                ],
            ),
            event(
                "provider.status",
                2_000_000_000,
                &[("provider", s("Windows Azure")), ("state", s("down")), ("reason", s("forced"))],
            ),
            event(
                "update.dirty",
                3_000_000_000,
                &[
                    ("path", s("/f/a")),
                    ("fragment", Value::U64(1)),
                    ("provider", s("Windows Azure")),
                ],
            ),
            event("replay.op", 4_000_000_000, &[("class", s("large-read"))]),
            event("replay.op", 4_500_000_000, &[("class", s("small-read"))]),
            event("replay.error", 5_000_000_000, &[("op", s("read")), ("path", s("/f/b"))]),
            event(
                "provider.status",
                6_000_000_000,
                &[("provider", s("Windows Azure")), ("state", s("up")), ("reason", s("restored"))],
            ),
            event(
                "recovery.rebuild",
                7_000_000_000,
                &[
                    ("path", s("/f/a")),
                    ("fragment", Value::U64(1)),
                    ("provider", s("Windows Azure")),
                    ("bytes", Value::U64(1024)),
                ],
            ),
            event(
                "provider.fault",
                8_000_000_000,
                &[("provider", s("Amazon S3")), ("reason", s("outage"))],
            ),
        ]
    }

    fn fold(records: &[TraceRecord]) -> Observatory {
        let mut obs = Observatory::new();
        for r in records {
            obs.ingest(r);
        }
        obs
    }

    #[test]
    fn sli_fold_is_correct_on_a_synthetic_trace() {
        let obs = fold(&synthetic_trace());
        assert_eq!(obs.schema, Some(2));
        assert_eq!(obs.horizon_ns(), 8_000_000_000);
        let health = obs.provider_health();
        assert_eq!(health.len(), 2);
        let azure = health.iter().find(|h| h.provider == "Windows Azure").unwrap();
        // Down 2s..6s over an 8s horizon → 50% availability.
        assert_eq!(azure.downtime_ns, 4_000_000_000);
        assert!((azure.availability - 0.5).abs() < 1e-9, "{}", azure.availability);
        assert_eq!(azure.outages, 1);
        let s3 = health.iter().find(|h| h.provider == "Amazon S3").unwrap();
        assert_eq!(s3.ops, 1);
        assert_eq!(s3.faults, 1);
        assert_eq!(s3.bytes_out, 4096);
        assert!(s3.error_ewma > 0.0);
    }

    #[test]
    fn exposure_interval_opens_and_closes() {
        let obs = fold(&synthetic_trace());
        let files = obs.file_exposure();
        assert_eq!(files.len(), 1);
        let f = &files[0];
        assert_eq!(f.path, "/f/a");
        // Dirty at 3s, rebuilt at 7s → 4s of exposure on Azure.
        assert_eq!(f.exposure_ns, 4_000_000_000);
        assert_eq!(f.intervals_closed, 1);
        assert_eq!(f.open_intervals, 0);
        assert_eq!(f.by_provider["Windows Azure"], 4_000_000_000);
    }

    #[test]
    fn still_open_interval_extends_to_horizon() {
        let mut records = synthetic_trace();
        // Drop the rebuild: the interval stays open until the last record.
        records.retain(|r| r.name() != Some("recovery.rebuild"));
        let obs = fold(&records);
        let f = &obs.file_exposure()[0];
        // Dirty at 3s, horizon ends at 8s → 5s still-open exposure.
        assert_eq!(f.exposure_ns, 5_000_000_000);
        assert_eq!(f.open_intervals, 1);
        assert_eq!(f.intervals_closed, 0);
        assert_eq!(f.by_provider["Windows Azure"], 5_000_000_000);
    }

    #[test]
    fn read_ledger_counts_ok_and_failed() {
        let obs = fold(&synthetic_trace());
        assert_eq!(obs.reads_ok_small, 1);
        assert_eq!(obs.reads_ok_large, 1);
        assert_eq!(obs.reads_failed, 1);
        assert!((obs.empirical_read_availability() - 2.0 / 3.0).abs() < 1e-12);
        assert!((obs.small_read_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_renders_deterministically() {
        let a = fold(&synthetic_trace()).report().render();
        let b = fold(&synthetic_trace()).report().render();
        assert_eq!(a, b);
        assert!(a.contains("# availability observatory"));
        assert!(a.contains("Windows Azure"));
        assert!(a.contains("total_exposure_s=4.000000"));
    }

    #[test]
    fn parse_jobs_is_order_preserving_and_jobs_invariant() {
        let records = synthetic_trace();
        let text: String = records.iter().map(|r| r.to_json() + "\n").collect::<Vec<_>>().join("");
        let one = parse_trace_jobs(&text, 1).unwrap();
        let four = parse_trace_jobs(&text, 4).unwrap();
        assert_eq!(one, records);
        assert_eq!(one, four);
        let via_file = from_trace(&text, 2).unwrap();
        let direct = fold(&records);
        assert_eq!(via_file.report(), direct.report());
    }

    #[test]
    fn online_tap_matches_offline_parse() {
        use hyrd_telemetry::{Collector, ManualClock, SharedBuf};
        let obs = SharedObservatory::new();
        let buf = SharedBuf::new();
        let clock = ManualClock::new();
        let c = Collector::builder(clock).jsonl(buf.clone()).tap(obs.tap()).build();
        c.event("provider.op")
            .field("provider", "Aliyun")
            .field("op", "Put")
            .field("bytes_in", 512u64)
            .field("bytes_out", 0u64)
            .field("latency_ns", 7u64)
            .emit();
        c.event("replay.op").field("class", "small-read").emit();
        c.flush();
        let offline = from_trace(&buf.text(), 1).unwrap();
        assert_eq!(obs.report(), offline.report());
        assert_eq!(obs.report().render(), offline.report().render());
    }

    #[test]
    fn absorb_metrics_folds_queue_depth_peaks() {
        use hyrd_telemetry::Registry;
        let reg = Registry::default();
        reg.observe("engine.queue_depth[Aliyun]", 3);
        reg.observe("engine.queue_depth[Aliyun]", 9);
        let mut obs = Observatory::new();
        obs.absorb_metrics(&reg.snapshot());
        let health = obs.provider_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].queue_depth_peak, 9);
    }
}
