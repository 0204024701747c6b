//! The four workloads and what one lap of any of them yields.
//!
//! A lap is count-bounded and a pure function of `(workload, seed,
//! scale)`: it generates its inputs, builds a fresh `SimClock` /
//! `Fleet::standard_four` / `Hyrd`, populates the pool (all of that is
//! set-up), then runs the timed phase through the repo's own drivers with
//! a [`crate::tap::Tap`] as the only thing in between. The program under
//! test receives only the generated `FsOp` / `Arrival` lists.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use hyrd::driver::ReplayStats;
use hyrd::stats::OpClass;
use hyrd::{FaultCounterSnapshot, Hyrd};
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gcsapi::StatsSnapshot;
use hyrd_telemetry::{Collector, MetricsSnapshot};
use hyrd_workloads::FsOp;

use crate::alloc::{self, Snapshot};
use crate::host;
use crate::tap::{Off, Recorder, Sample, Span, Tracer};

pub mod openloop;
pub mod outage;
pub mod postmark;

/// The benchmark's workloads. Names are the `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    PostmarkSmall,
    LargeEcOutage,
    OpenloopZipf,
    PostmarkObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PostmarkSmall,
        Workload::LargeEcOutage,
        Workload::OpenloopZipf,
        Workload::PostmarkObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PostmarkSmall => "postmark_small",
            Workload::LargeEcOutage => "large_ec_outage",
            Workload::OpenloopZipf => "openloop_zipf",
            Workload::PostmarkObserved => "postmark_observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PostmarkSmall => {
                "closed loop, small replicated files that fit the cache: per-op fixed cost \
                 (metastore flush, dispatcher glue, driver, allocations) dominates, gfec idle"
            }
            Workload::LargeEcOutage => {
                "closed loop, erasure-coded MiB files through an outage and recovery: bytes dominate \
                 (gfec, SHA-256, payload copies); the mirror image of postmark_small"
            }
            Workload::OpenloopZipf => {
                "open loop, Poisson arrivals at 4 fixed rates over a Zipf pool twice the cache, spikes \
                 and hedging on: the only workload where requests queue"
            }
            Workload::PostmarkObserved => {
                "postmark_small's op stream with the full observatory on and the offline trace fold \
                 timed: telemetry is the extra work, virtual numbers must not move"
            }
        }
    }

    /// Closed-loop workloads never queue and never hedge (asserted).
    pub fn closed_loop(self) -> bool {
        self != Workload::OpenloopZipf
    }
}

/// Workload size. `Full` is what the benchmark measures; `Smoke` runs the
/// same code paths in seconds under a debug build (tests, `--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Picks the full or the smoke value of a sizing constant.
    pub(crate) fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Whether a lap records spans and attaches a sink-less collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
}

/// What a region of a lap cost the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall_s: f64,
    /// Process CPU time, user + system, all threads.
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Measures a region: wall clock, process CPU clock, allocator counters.
pub(crate) struct Meter {
    wall: Instant,
    cpu_s: f64,
    alloc: Snapshot,
}

impl Meter {
    pub(crate) fn start() -> Self {
        Meter { alloc: Snapshot::now(), cpu_s: host::process_cpu_s(), wall: Instant::now() }
    }

    pub(crate) fn stop(&self) -> Cost {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - self.cpu_s;
        let (allocs, alloc_bytes) = Snapshot::now().since(&self.alloc);
        Cost { wall_s, cpu_s, allocs, alloc_bytes }
    }
}

/// One staircase step of the open-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered load, arrivals per virtual second.
    pub rate_per_s: f64,
    pub read_p99_ns: Option<u64>,
    /// p95, not p99: a step's writes are too few to leave ten samples
    /// beyond a p99.
    pub write_p95_ns: Option<u64>,
    /// Mean latency of the step's last quarter ÷ its first quarter.
    pub backlog_ratio: f64,
    /// Read p99 within the limit, backlog not growing, nothing failed.
    pub meets_limit: bool,
}

/// What `recover_provider` did in the outage workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    pub wall_s: f64,
    pub virt_s: f64,
    /// Whole-object puts and removes replayed from the update log.
    pub replays: u64,
    /// Fragments rebuilt after degraded updates.
    pub rebuilds: u64,
    pub bytes_moved: u64,
    /// `pending_log_len() + pending_dirty_fragments()` afterwards.
    pub pending_after: u64,
}

/// The observatory's share of a `postmark_observed` lap.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Wall time of the replay alone (sink + tap on), without the
    /// offline fold.
    pub replay_wall_s: f64,
    pub replay_allocs: u64,
    /// `from_trace` + `report().render()`.
    pub offline_wall_s: f64,
    pub trace_bytes: u64,
    pub records: u64,
    /// The captured trace of the timed phase, for the parser probes
    /// (kept by the traced lap only; tens of megabytes).
    pub trace: String,
}

/// Everything one lap measured.
#[derive(Debug, Clone)]
pub struct Lap {
    /// Generating the op lists (part of `setup`).
    pub gen_s: f64,
    pub setup: Cost,
    pub timed: Cost,
    /// Peak live heap over the whole lap, above what was live when it
    /// began (results of earlier laps the caller still holds). The counter
    /// is process-wide: exact in the single-threaded command, approximate
    /// when tests run laps on parallel threads.
    pub peak_live: u64,
    /// One sample per timed-phase scheme call, in issue order.
    pub samples: Vec<Sample>,
    /// Timed-phase ops the driver attempted.
    pub attempted: u64,
    /// Refused ops + read-verification failures.
    pub failed: u64,
    /// Per-provider op/byte deltas over the timed phase, in fleet order.
    pub providers: Vec<StatsSnapshot>,
    /// Modelled transfer + transaction cost of those deltas.
    pub cost_usd: f64,
    /// `Fleet::total_stored_bytes()` and `Hyrd::logical_bytes()` with the
    /// live set at its final size (before PostMark's closing delete sweep).
    pub stored_bytes: u64,
    pub logical_bytes: u64,
    /// The driver's own (log2-bucket) read-class quantiles, for
    /// `telemetry.hist_*_rel_err`.
    pub hist_read_p50_ns: u64,
    pub hist_read_p99_ns: u64,
    pub faults: FaultCounterSnapshot,
    /// Median size of the small (replicated) and the large (erasure-coded)
    /// files the lap created, 0 where it has none — the sizes the
    /// stand-alone probes run on.
    pub median_small_file: u64,
    pub median_large_file: u64,
    /// Bytes one update op rewrites.
    pub update_len: u64,
    /// Ghost-mode providers (payloads discarded, reads zero-filled).
    pub ghost: bool,
    pub steps: Vec<Step>,
    pub recovery: Option<Recovery>,
    pub observed: Option<Observed>,
    /// Registry of the sink-less collector (traced laps only).
    pub registry: Option<MetricsSnapshot>,
    /// Recorded spans (traced laps only).
    pub spans: Vec<Span>,
}

impl Lap {
    /// User payload bytes the timed phase read + wrote.
    pub fn user_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.user_bytes).sum()
    }

    /// A hash of everything that must repeat for a seed: every sample's
    /// modelled latency and provider ops, the provider ledgers, the space,
    /// cost and failure counts. Two laps of one process with equal
    /// fingerprints have equal virtual metrics and counts. (`Sample::large`
    /// is left out: only the traced lap classifies updates.)
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for s in &self.samples {
            (s.call, s.ok, s.latency_ns, s.provider_ops, s.fetched, s.user_bytes).hash(&mut h);
        }
        for p in &self.providers {
            [p.list, p.get, p.create, p.put, p.remove, p.errors, p.bytes_in, p.bytes_out]
                .hash(&mut h);
        }
        [self.attempted, self.failed, self.stored_bytes, self.logical_bytes].hash(&mut h);
        self.cost_usd.to_bits().hash(&mut h);
        h.finish()
    }
}

/// The op lists a lap of `workload` replays, `(pool, timed)` — what the
/// metastore probe feeds a bare store.
pub fn op_lists(workload: Workload, seed: u64, scale: Scale) -> (Vec<FsOp>, Vec<FsOp>) {
    match workload {
        Workload::PostmarkSmall | Workload::PostmarkObserved => {
            let (pool, mut txns, deletes) = postmark::generate(seed, scale);
            txns.extend(deletes);
            (pool, txns)
        }
        Workload::LargeEcOutage => {
            let plan = outage::generate(seed, scale);
            (plan.pool, [plan.normal, plan.degraded, plan.read_back].concat())
        }
        Workload::OpenloopZipf => {
            let plan = openloop::generate(seed, scale);
            (plan.pool, plan.arrivals.into_iter().map(|a| a.op).collect())
        }
    }
}

/// Runs one lap of `workload`.
pub fn run_lap(workload: Workload, seed: u64, scale: Scale, mode: Mode) -> Lap {
    fn dispatch<R: Recorder>(workload: Workload, seed: u64, scale: Scale, rec: &mut R) -> Lap {
        match workload {
            Workload::PostmarkSmall => postmark::lap(seed, scale, false, rec),
            Workload::PostmarkObserved => postmark::lap(seed, scale, true, rec),
            Workload::LargeEcOutage => outage::lap(seed, scale, rec),
            Workload::OpenloopZipf => openloop::lap(seed, scale, rec),
        }
    }
    match mode {
        Mode::Untraced => {
            let baseline = alloc::reset_peak();
            let mut lap = dispatch(workload, seed, scale, &mut Off);
            lap.peak_live = alloc::peak_live().saturating_sub(baseline);
            lap
        }
        Mode::Traced => {
            let mut tracer = Tracer::with_capacity(1 << 18);
            let baseline = alloc::reset_peak();
            let mut lap = tracer.scoped("run", |t| dispatch(workload, seed, scale, t));
            lap.peak_live = alloc::peak_live().saturating_sub(baseline);
            lap.spans = tracer.into_spans();
            lap
        }
    }
}

/// splitmix64 — the benchmark's own generator for everything the repo's
/// workload crates do not generate (sizes, orders, offsets, arrival gaps).
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1] — never zero, so `ln` is finite.
    pub(crate) fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher-Yates.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A fresh clock, the paper's four-provider fleet and a `Hyrd` on it. The
/// traced lap attaches a sink-less collector so the registry counters
/// exist; untraced laps run with telemetry disabled, as `Hyrd::new` does.
pub(crate) fn build(
    config: hyrd::HyrdConfig,
    ghost: bool,
    observed: Option<Collector>,
    traced: bool,
    clock: &SimClock,
) -> (Fleet, Hyrd, Collector) {
    let fleet = Fleet::standard_four(clock.clone());
    if ghost {
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
    }
    let telemetry = match observed {
        Some(collector) => collector,
        None if traced => Collector::builder(clock.clone()).build(),
        None => Collector::disabled(),
    };
    let hyrd =
        Hyrd::with_telemetry(&fleet, config, telemetry.clone()).expect("valid default config");
    (fleet, hyrd, telemetry)
}

pub(crate) fn fleet_stats(fleet: &Fleet) -> Vec<StatsSnapshot> {
    fleet.providers().iter().map(|p| p.stats()).collect()
}

/// Per-provider deltas since `before` and their modelled dollar cost
/// (Table II transfer + transaction prices).
pub(crate) fn fleet_delta(fleet: &Fleet, before: &[StatsSnapshot]) -> (Vec<StatsSnapshot>, f64) {
    let deltas: Vec<StatsSnapshot> =
        fleet.providers().iter().zip(before).map(|(p, b)| p.stats().delta_since(b)).collect();
    let cost = fleet
        .providers()
        .iter()
        .zip(&deltas)
        .map(|(p, d)| {
            p.prices().transfer_cost(d.bytes_in, d.bytes_out)
                + p.prices().transaction_cost(d.put_class_ops(), d.get_class_ops())
        })
        .sum();
    (deltas, cost)
}

/// The driver's bucketed read-class quantiles (small + large reads).
pub(crate) fn hist_read_quantiles(stats: &ReplayStats) -> (u64, u64) {
    let mut reads = stats.class(OpClass::SmallRead);
    reads.merge(&stats.class(OpClass::LargeRead));
    (reads.quantile(0.5).as_nanos() as u64, reads.quantile(0.99).as_nanos() as u64)
}

/// Median of a list of sizes (0 when empty).
pub(crate) fn median_size(mut sizes: Vec<u64>) -> u64 {
    sizes.sort_unstable();
    sizes.get(sizes.len() / 2).copied().unwrap_or(0)
}
