//! Workload replay: runs an [`FsOp`] stream through any [`Scheme`] and
//! collects the latency statistics the figures report.
//!
//! The driver owns content synthesis (deterministic per path/version fill
//! patterns) so reads can optionally be verified end-to-end, and advances
//! the shared virtual clock by each request's latency — which is what
//! makes scheduled outage windows actually open and close during a replay.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hyrd_cloudsim::SimClock;
use hyrd_gcsapi::BatchReport;
use hyrd_telemetry::{Collector, Counter, HistogramSeries};
use hyrd_workloads::FsOp;

use crate::scheme::Scheme;
use crate::stats::{LatencyStats, OpClass};

pub mod multi_client;
pub mod openloop;
pub mod oracle;

use oracle::Expected;

/// Replay knobs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Verify read contents, byte for byte, against what the driver
    /// wrote. Costs one pass over each read and a few runs of state per
    /// live file ([`oracle`]); ghost-mode providers hold no bytes to
    /// check.
    pub verify_reads: bool,
    /// Advance the fleet clock by each request's latency.
    pub advance_clock: bool,
    /// Small/large boundary used for *reporting* (class breakdown).
    pub stats_threshold: u64,
    /// Trace collector: each replayed request emits a `replay.op` event
    /// (class, latency, provider ops) and bumps per-class counters.
    /// Disabled by default.
    pub telemetry: Collector,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            verify_reads: false,
            advance_clock: true,
            stats_threshold: 1024 * 1024,
            telemetry: Collector::disabled(),
        }
    }
}

hyrd_telemetry::json_struct! {
    /// What a replay produced. `PartialEq` + `ToJson` make sweep determinism
    /// checkable: same seed, same stats, any `--jobs`.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ReplayStats {
        /// Scheme name.
        pub scheme: String,
        /// Latency per op class.
        pub per_class: BTreeMap<String, LatencyStats>,
        /// All requests combined.
        pub overall: LatencyStats,
        /// Requests that failed (e.g. data unavailable during an outage).
        pub errors: u64,
        /// Underlying provider operations issued.
        pub provider_ops: u64,
        /// Bytes uploaded to providers.
        pub bytes_in: u64,
        /// Bytes downloaded from providers.
        pub bytes_out: u64,
        /// Read verification failures (only counted when verification is on).
        pub verify_failures: u64,
    }
}

impl ReplayStats {
    /// Stats for one class (empty stats if the class never occurred).
    pub fn class(&self, class: OpClass) -> LatencyStats {
        self.per_class.get(class.as_str()).cloned().unwrap_or_default()
    }

    /// Mean latency across all requests.
    pub fn mean_latency(&self) -> std::time::Duration {
        self.overall.mean()
    }

    /// Folds another replay's tallies into this one — used by phased
    /// drivers (chaos drill chunks, multi-client batches) to keep one
    /// cumulative view. Latency digests merge exactly (running sums +
    /// bucket adds); `scheme` is adopted from `other` if unset.
    pub fn absorb(&mut self, other: &ReplayStats) {
        if self.scheme.is_empty() {
            self.scheme = other.scheme.clone();
        }
        self.overall.merge(&other.overall);
        for (class, stats) in &other.per_class {
            self.per_class.entry(class.clone()).or_default().merge(stats);
        }
        self.errors += other.errors;
        self.provider_ops += other.provider_ops;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.verify_failures += other.verify_failures;
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "scheme: {}", self.scheme).unwrap();
        writeln!(
            out,
            "  overall: n={} mean={:.3}s p50={:.3}s p95={:.3}s p99={:.3}s p999={:.3}s errors={}",
            self.overall.count(),
            self.overall.mean().as_secs_f64(),
            self.overall.quantile(0.5).as_secs_f64(),
            self.overall.quantile(0.95).as_secs_f64(),
            self.overall.quantile(0.99).as_secs_f64(),
            self.overall.quantile(0.999).as_secs_f64(),
            self.errors
        )
        .unwrap();
        for (class, stats) in &self.per_class {
            if stats.count() > 0 {
                writeln!(
                    out,
                    "  {class:<12} n={:<6} mean={:.3}s",
                    stats.count(),
                    stats.mean().as_secs_f64()
                )
                .unwrap();
            }
        }
        writeln!(
            out,
            "  provider ops={} in={:.1}MB out={:.1}MB",
            self.provider_ops,
            self.bytes_in as f64 / 1e6,
            self.bytes_out as f64 / 1e6
        )
        .unwrap();
        out
    }
}

/// Deterministic fill byte for a path + version.
fn fill_byte(path: &str, version: u32) -> u8 {
    let mut h: u32 = 2166136261;
    for b in path.bytes() {
        h = (h ^ b as u32).wrapping_mul(16777619);
    }
    (h ^ version.wrapping_mul(0x9E37)) as u8
}

/// Synthesizes `len` content bytes for a path at a version.
pub fn synth_content(path: &str, version: u32, len: usize) -> Vec<u8> {
    vec![fill_byte(path, version); len]
}

/// Reusable scratch buffer for content synthesis: the replay loop fills
/// it in place instead of allocating a fresh `Vec` per op (the per-op
/// allocation that dominated steady-state replay profiles).
#[derive(Debug, Default)]
pub struct SynthBuf {
    buf: Vec<u8>,
}

impl SynthBuf {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        SynthBuf::default()
    }

    /// Fills the buffer with the deterministic content for
    /// `path`/`version` and returns it — same bytes as
    /// [`synth_content`], no allocation once the buffer has grown to the
    /// workload's largest op.
    pub fn fill(&mut self, path: &str, version: u32, len: usize) -> &[u8] {
        let byte = fill_byte(path, version);
        self.buf.clear();
        self.buf.resize(len, byte);
        &self.buf
    }
}

/// What a replay loop keeps between its steps: the content buffer, and
/// the `replay.ops[class]` / `replay.latency_ns[class]` series its
/// records count into, each resolved to handles on its class's first op.
#[derive(Default)]
pub(crate) struct StepCache {
    synth: SynthBuf,
    series: [Option<(Counter, HistogramSeries)>; OpClass::ALL.len()],
}

impl StepCache {
    fn series(&mut self, telemetry: &Collector, class: OpClass) -> &(Counter, HistogramSeries) {
        self.series[class as usize].get_or_insert_with(|| {
            let name = class.as_str();
            (
                telemetry.counter_series("replay.ops", name),
                telemetry.histogram_series("replay.latency_ns", name),
            )
        })
    }
}

/// Driver state that must persist across phased replays (pool
/// initialization, then transactions): the live-file table and, when
/// verification is on, the expected contents — as the fill runs the
/// driver wrote, not as bytes.
#[derive(Debug, Default)]
pub struct ReplayState {
    files: HashMap<String, LiveFile>,
}

/// What the driver knows of one live file, under one copy of its path.
#[derive(Debug)]
struct LiveFile {
    size: u64,
    /// The fill version its next update writes.
    version: u32,
    /// What a verified read must return (verified replays only).
    expected: Option<Expected>,
}

impl ReplayState {
    /// Paths with verified expected contents, sorted (deterministic
    /// iteration for final verification sweeps).
    pub fn expected_paths(&self) -> Vec<&str> {
        let mut paths: Vec<&str> = self
            .files
            .iter()
            .filter(|(_, file)| file.expected.is_some())
            .map(|(path, _)| path.as_str())
            .collect();
        paths.sort_unstable();
        paths
    }

    /// The bytes a verified replay expects `path` to hold right now,
    /// materialised from its runs.
    pub fn expected_content(&self, path: &str) -> Option<Vec<u8>> {
        self.files.get(path)?.expected.as_ref().map(Expected::to_vec)
    }

    /// Live files the replay has created and not deleted.
    pub fn live_files(&self) -> usize {
        self.files.len()
    }
}

/// Replays `ops` through `scheme` with fresh state.
pub fn replay(
    scheme: &mut dyn Scheme,
    ops: &[FsOp],
    clock: &SimClock,
    opts: &ReplayOptions,
) -> ReplayStats {
    let mut state = ReplayState::default();
    replay_with_state(scheme, ops, clock, opts, &mut state)
}

/// Executes one [`FsOp`] against `scheme`, maintaining the live-file /
/// expected-content tables: the op's class, what it cost, and whether a
/// read came back wrong. `Err(())` means the scheme refused the op.
fn exec_one(
    scheme: &mut dyn Scheme,
    op: &FsOp,
    state: &mut ReplayState,
    synth: &mut SynthBuf,
    opts: &ReplayOptions,
) -> Result<(OpClass, BatchReport, bool), ()> {
    let files = &mut state.files;
    match op {
        FsOp::Create { path, size } => {
            let data = synth.fill(path, 0, *size as usize);
            let batch = scheme.create_file(path, data).map_err(|_| ())?;
            let class = if *size <= opts.stats_threshold {
                OpClass::SmallWrite
            } else {
                OpClass::LargeWrite
            };
            let expected = opts.verify_reads.then(|| Expected::filled(*size, fill_byte(path, 0)));
            files.insert(path.clone(), LiveFile { size: *size, version: 1, expected });
            Ok((class, batch, false))
        }
        FsOp::Read { path } => {
            let file = files.get(path);
            let size = file.map_or(0, |f| f.size);
            let (bytes, batch) = scheme.read_file(path).map_err(|_| ())?;
            let class =
                if size <= opts.stats_threshold { OpClass::SmallRead } else { OpClass::LargeRead };
            let verify_failure = if opts.verify_reads {
                file.and_then(|f| f.expected.as_ref()).is_some_and(|want| !want.matches(&bytes))
            } else {
                bytes.len() as u64 != size
            };
            Ok((class, batch, verify_failure))
        }
        FsOp::Update { path, offset, len } => {
            let file = files.get_mut(path);
            let version = file.as_ref().map_or(1, |f| f.version);
            let data = synth.fill(path, version, *len as usize);
            let batch = scheme.update_file(path, *offset, data).map_err(|_| ())?;
            if let Some(file) = file {
                file.version += 1;
                if let Some(content) = file.expected.as_mut().filter(|_| opts.verify_reads) {
                    content.patch(*offset, *len, fill_byte(path, version));
                }
            }
            Ok((OpClass::Update, batch, false))
        }
        FsOp::Delete { path } => {
            let batch = scheme.delete_file(path).map_err(|_| ())?;
            files.remove(path);
            Ok((OpClass::Delete, batch, false))
        }
        FsOp::ListDir { path } => {
            let (_, batch) = scheme.list_dir(path).map_err(|_| ())?;
            Ok((OpClass::Metadata, batch, false))
        }
    }
}

/// Folds one executed op into `stats` and emits the `replay.op`
/// telemetry.
fn record_into(
    stats: &mut ReplayStats,
    class: OpClass,
    batch: &BatchReport,
    cache: &mut StepCache,
    opts: &ReplayOptions,
) {
    stats.overall.record(batch.latency);
    let name = class.as_str();
    // The key is allocated once per class, on the first miss only.
    match stats.per_class.get_mut(name) {
        Some(per_class) => per_class.record(batch.latency),
        None => stats.per_class.entry(name.to_string()).or_default().record(batch.latency),
    }
    stats.provider_ops += batch.op_count() as u64;
    stats.bytes_in += batch.bytes_in();
    stats.bytes_out += batch.bytes_out();
    if opts.telemetry.enabled() {
        let latency_ns = batch.latency.as_nanos() as u64;
        opts.telemetry
            .event("replay.op")
            .field("class", name)
            .field("latency_ns", latency_ns)
            .field("provider_ops", batch.op_count() as u64)
            .emit();
        let (ops, latency) = cache.series(&opts.telemetry, class);
        ops.inc(1);
        latency.observe(latency_ns);
    }
}

/// Folds one refused op into `stats` and emits the `replay.error` trace
/// event (op kind + path). Successful requests mark `replay.op`; these
/// mark the failures, which is what lets the observatory measure
/// empirical per-request availability straight from the trace.
fn record_error(stats: &mut ReplayStats, op: &FsOp, opts: &ReplayOptions) {
    stats.errors += 1;
    if opts.telemetry.enabled() {
        let (kind, path) = match op {
            FsOp::Create { path, .. } => ("create", path),
            FsOp::Read { path } => ("read", path),
            FsOp::Update { path, .. } => ("update", path),
            FsOp::Delete { path } => ("delete", path),
            FsOp::ListDir { path } => ("listdir", path),
        };
        opts.telemetry.event("replay.error").field("op", kind).field("path", path.as_str()).emit();
        opts.telemetry.inc_labeled("replay.errors", kind, 1);
    }
}

/// The one replay step: executes `op`, keeps the live-file tables, folds
/// the outcome into `stats` and emits its `replay.op` / `replay.error`
/// record. Every driver — closed loop, open loop, multi-client — is this
/// step plus its own rule for who moves the clock, which is why they
/// agree byte-for-byte on classification, verification and bookkeeping.
/// Returns what the op cost, or `None` when the scheme refused it.
pub(crate) fn step(
    scheme: &mut dyn Scheme,
    op: &FsOp,
    state: &mut ReplayState,
    cache: &mut StepCache,
    stats: &mut ReplayStats,
    opts: &ReplayOptions,
) -> Option<BatchReport> {
    let Ok((class, batch, verify_failure)) = exec_one(scheme, op, state, &mut cache.synth, opts)
    else {
        record_error(stats, op, opts);
        return None;
    };
    record_into(stats, class, &batch, cache, opts);
    stats.verify_failures += u64::from(verify_failure);
    Some(batch)
}

/// Replays `ops` through `scheme`, carrying `state` across calls —
/// use this when splitting a workload into phases (e.g. Figure 6's
/// pool-load in the normal state, transactions during the outage).
pub fn replay_with_state(
    scheme: &mut dyn Scheme,
    ops: &[FsOp],
    clock: &SimClock,
    opts: &ReplayOptions,
    state: &mut ReplayState,
) -> ReplayStats {
    let mut stats = ReplayStats { scheme: scheme.name().to_string(), ..Default::default() };
    let mut cache = StepCache::default();
    for op in ops {
        if let Some(batch) = step(scheme, op, state, &mut cache, &mut stats, opts) {
            if opts.advance_clock {
                clock.advance(batch.latency);
            }
        }
    }
    stats
}

/// Resolves a `--jobs` request: `0` means "one worker per core".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// One cell of a [`replay_sweep`] whose cells are different closures.
pub type SweepCell<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs independent sweep cells on `jobs` worker threads and collects
/// their results **in cell order**.
///
/// Each cell must own everything it touches (fleet, clock, collector —
/// the standing pattern in `paper::run_scheme` and the drills), which
/// is what makes the sweep deterministic: cells never share mutable
/// state, workers only race for *which* cell to run next, and results
/// land in slots indexed by cell position. The output is therefore
/// byte-identical for any job count, including `jobs == 1` (which runs
/// inline on the caller's thread, no spawning).
///
/// `jobs == 0` uses one worker per available core.
pub fn replay_sweep<T, F>(cells: Vec<F>, jobs: usize) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let jobs = effective_jobs(jobs).min(cells.len().max(1));
    if jobs <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }

    let queue: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<T>>> = queue.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queue.len() {
                    break;
                }
                let cell = queue[i]
                    .lock()
                    .expect("no panics while holding a cell")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = cell();
                *slots[i].lock().expect("no panics while holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers have exited")
                .expect("every claimed cell stored its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_bytes_differ_by_path_and_version() {
        assert_eq!(fill_byte("/a", 0), fill_byte("/a", 0));
        assert_ne!(fill_byte("/a", 0), fill_byte("/a", 1));
        assert_ne!(fill_byte("/a", 0), fill_byte("/b", 0));
        assert_eq!(synth_content("/x", 2, 5).len(), 5);
    }

    #[test]
    fn replay_options_default_matches_paper_threshold() {
        let o = ReplayOptions::default();
        assert_eq!(o.stats_threshold, 1024 * 1024);
        assert!(o.advance_clock);
        assert!(!o.verify_reads);
    }

    #[test]
    fn synth_buf_matches_synth_content_and_reuses_storage() {
        let mut s = SynthBuf::new();
        assert_eq!(s.fill("/a", 0, 100), &synth_content("/a", 0, 100)[..]);
        assert_eq!(s.fill("/b", 3, 10), &synth_content("/b", 3, 10)[..]);
        // Shrinking then regrowing stays within the grown capacity.
        let cap = s.buf.capacity();
        s.fill("/c", 1, 50);
        assert_eq!(s.buf.capacity(), cap);
        assert_eq!(s.fill("/a", 0, 0), &[] as &[u8]);
    }

    #[test]
    fn replay_sweep_collects_in_cell_order_for_any_job_count() {
        let make_cells = || -> Vec<SweepCell<'_, u64>> {
            (0..13u64)
                .map(|i| {
                    Box::new(move || {
                        // Unequal cell durations exercise out-of-order
                        // completion.
                        let mut acc = i;
                        for _ in 0..((13 - i) * 1000) {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        i * i
                    }) as SweepCell<'_, u64>
                })
                .collect()
        };
        let want: Vec<u64> = (0..13u64).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(replay_sweep(make_cells(), jobs), want, "jobs={jobs}");
        }
        assert_eq!(replay_sweep(make_cells(), 0), want, "jobs=0 (auto)");
        assert_eq!(replay_sweep(Vec::<SweepCell<'_, u64>>::new(), 4), vec![]);
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }
}
