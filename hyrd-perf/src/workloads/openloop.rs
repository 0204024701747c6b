//! `openloop_zipf`: Poisson arrivals at a staircase of fixed offered rates
//! over a Zipf-skewed pool about twice the `SmallFileCache`, on ghost-mode
//! providers with rotating ×8 latency spikes and hedged reads on.
//!
//! The only workload where requests queue (`ProviderQueue`), hedges fire
//! and the hot set competes for the cache, so `engine` and the hot-data
//! path decide the result. Updates ride beside reads, so a change that
//! helps read fan-out at the cost of writes — or starts queueing writes —
//! shows. Kernels and SHA-256 do little (ghost payloads).
//!
//! Arrivals are virtual: the generator cannot run late, and every request
//! is timed from the instant it was due.

use std::time::{Duration, Instant};

use hyrd::driver::openloop::replay_arrivals;
use hyrd::driver::{replay_with_state, ReplayOptions, ReplayState};
use hyrd::{HedgeConfig, HyrdConfig};
use hyrd_cloudsim::faults::FaultPlan;
use hyrd_cloudsim::SimClock;
use hyrd_telemetry::Collector;
use hyrd_workloads::openloop::Arrival;
use hyrd_workloads::zipf::{ZipfConfig, ZipfWorkload};
use hyrd_workloads::FsOp;

use super::{
    build, fleet_delta, fleet_stats, hist_read_quantiles, Lap, Meter, Scale, SplitMix, Step,
};
use crate::stats;
use crate::tap::{Call, Recorder, Sample, Tap};

/// Frozen sizing (see README, "Sizing"), full / smoke scale.
const FILES: (usize, usize) = (1_024, 48);
const ARRIVALS_PER_STEP: (usize, usize) = (3_200, 160);
/// The staircase: offered arrivals per virtual second, ascending.
pub const RATES: [f64; 4] = [4.0, 8.0, 16.0, 32.0];
const THETA: f64 = 0.9;
const LARGE_EVERY: usize = 16;
const SMALL_BYTES: (usize, usize) = (512 * 1024, 32 * 1024);
const LARGE_BYTES: u64 = 1280 * 1024;
const UPDATE_BYTES: u64 = 4 * 1024;
const WRITE_FRAC: f64 = 0.2;
/// Idle virtual time between steps, so a step starts on drained queues
/// unless the one before it was far past saturation.
const STEP_GAP: Duration = Duration::from_secs(120);
/// Spike episodes per step, rotating over the providers; each lasts 1/32
/// of the step and multiplies that provider's latency by `SPIKE_FACTOR`.
const SPIKES_PER_STEP: usize = 6;
const SPIKE_FACTOR: f64 = 8.0;

/// The latency limit a step must meet: read p99 within `LIMIT_READ_P99`
/// and no growing backlog — the mean latency of the step's last quarter at
/// most `LIMIT_BACKLOG` times that of its first quarter.
pub const LIMIT_READ_P99: Duration = Duration::from_secs(20);
pub const LIMIT_BACKLOG: f64 = 1.5;

/// The generated inputs.
pub(crate) struct Plan {
    pub(crate) pool: Vec<FsOp>,
    pub(crate) arrivals: Vec<Arrival>,
    /// `(start, end)` offset of each step within the timed phase.
    pub(crate) windows: Vec<(Duration, Duration)>,
}

pub(crate) fn generate(seed: u64, scale: Scale) -> Plan {
    let per_step = scale.pick(ARRIVALS_PER_STEP.0, ARRIVALS_PER_STEP.1);
    let zipf = ZipfWorkload::new(ZipfConfig {
        seed,
        files: scale.pick(FILES.0, FILES.1),
        theta: THETA,
        ops: per_step * RATES.len(),
        write_frac: WRITE_FRAC,
        large_every: LARGE_EVERY,
        small_bytes: scale.pick(SMALL_BYTES.0, SMALL_BYTES.1) as u64,
        large_bytes: LARGE_BYTES,
        update_bytes: UPDATE_BYTES,
    });
    // Exponential gaps from the benchmark's own stream, decorrelated from
    // the stream the Zipf generator draws its ranks from.
    let mut rng = SplitMix::new(seed ^ 0xA55A_5AA5_0F0F_F0F0);
    let mut at = Duration::ZERO;
    let mut windows = Vec::with_capacity(RATES.len());
    let mut arrivals = Vec::with_capacity(per_step * RATES.len());
    for (ops, rate) in zipf.access_ops().chunks(per_step).zip(RATES) {
        let start = at;
        for op in ops {
            at += Duration::from_secs_f64(-rng.unit().ln() / rate);
            arrivals.push(Arrival { at, op: op.clone() });
        }
        windows.push((start, at));
        at += STEP_GAP;
    }
    Plan { pool: zipf.setup_ops(), arrivals, windows }
}

/// Provider `idx`'s share of the rotating spike episodes, as in
/// `tail_latency::spike_plan` but once per staircase step.
fn spike_plan(
    idx: usize,
    providers: usize,
    origin: Duration,
    windows: &[(Duration, Duration)],
) -> FaultPlan {
    let mut plan = FaultPlan::quiet();
    for &(start, end) in windows {
        let span = end - start;
        for e in (0..SPIKES_PER_STEP).filter(|e| e % providers == idx) {
            let from = origin + start + span * e as u32 / SPIKES_PER_STEP as u32;
            plan = plan.with_spike(from, from + span / 32, SPIKE_FACTOR);
        }
    }
    plan
}

fn tail(samples: &[Sample], p: f64, pick: impl Fn(&Sample) -> bool) -> Option<u64> {
    let mut latencies: Vec<u64> =
        samples.iter().filter(|s| pick(s)).map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    stats::percentile(&latencies, p)
}

/// Judges one step's samples against the limit.
fn judge(rate_per_s: f64, samples: &[Sample]) -> Step {
    let quarter = (samples.len() / 4).max(1);
    let mean =
        |part: &[Sample]| stats::mean(&part.iter().map(|s| s.latency_ns).collect::<Vec<_>>());
    let (first, last) = (mean(&samples[..quarter]), mean(&samples[samples.len() - quarter..]));
    let backlog_ratio = if first > 0.0 { last / first } else { 0.0 };
    let read_p99_ns = tail(samples, 0.99, |s| s.call == Call::Read);
    let meets_limit = samples.iter().all(|s| s.ok)
        && read_p99_ns.is_some_and(|p| p <= LIMIT_READ_P99.as_nanos() as u64)
        && backlog_ratio <= LIMIT_BACKLOG;
    Step {
        rate_per_s,
        read_p99_ns,
        write_p95_ns: tail(samples, 0.95, |s| s.call.is_write()),
        backlog_ratio,
        meets_limit,
    }
}

pub(crate) fn lap<R: Recorder>(seed: u64, scale: Scale, rec: &mut R) -> Lap {
    let setup = Meter::start();
    let gen = Instant::now();
    let plan = rec.scoped("workloads.generate", |_| generate(seed, scale));
    let gen_s = gen.elapsed().as_secs_f64();

    rec.open("setup", None);
    let clock = SimClock::new();
    // The one deviation from `HyrdConfig::default()`.
    let config = HyrdConfig {
        hedge: HedgeConfig { enabled: true, ..HedgeConfig::default() },
        ..HyrdConfig::default()
    };
    let threshold = config.threshold;
    let (fleet, hyrd, telemetry) = build(config, true, None, R::ENABLED, &clock);
    // Ghost reads return zeroes, so contents cannot be compared; the
    // driver still checks every read's length.
    let opts = ReplayOptions {
        verify_reads: false,
        telemetry: Collector::disabled(),
        ..ReplayOptions::default()
    };
    let mut state = ReplayState::default();
    let mut tap = Tap::new(hyrd, threshold, plan.arrivals.len(), rec);
    let pool_stats = replay_with_state(&mut tap, &plan.pool, &clock, &opts, &mut state);
    assert_eq!(pool_stats.errors, 0, "pool build must succeed");
    drop(tap.take_samples());
    // Windows are anchored at the post-setup clock, whatever set-up cost.
    for (idx, provider) in fleet.providers().iter().enumerate() {
        provider.set_fault_plan(spike_plan(idx, fleet.len(), clock.now(), &plan.windows));
    }
    tap.rec().close();
    let setup = setup.stop();

    let before = fleet_stats(&fleet);
    let timed = Meter::start();
    tap.rec().open("driver.replay", None);
    let stats = replay_arrivals(&mut tap, &plan.arrivals, &clock, &opts, &mut state);
    tap.rec().close();
    let timed = timed.stop();

    let (providers, cost_usd) = fleet_delta(&fleet, &before);
    let (hist_read_p50_ns, hist_read_p99_ns) = hist_read_quantiles(&stats);
    let samples = tap.take_samples();
    let per_step = plan.arrivals.len() / RATES.len();
    let steps = samples.chunks(per_step).zip(RATES).map(|(part, rate)| judge(rate, part)).collect();
    let hyrd = tap.inner();
    Lap {
        gen_s,
        setup,
        timed,
        peak_live: 0,
        attempted: plan.arrivals.len() as u64,
        failed: stats.errors + stats.verify_failures,
        providers,
        cost_usd,
        stored_bytes: fleet.total_stored_bytes(),
        logical_bytes: hyrd.logical_bytes(),
        hist_read_p50_ns,
        hist_read_p99_ns,
        faults: hyrd.fault_counters(),
        median_small_file: scale.pick(SMALL_BYTES.0, SMALL_BYTES.1) as u64,
        median_large_file: LARGE_BYTES,
        update_len: UPDATE_BYTES,
        ghost: true,
        steps,
        recovery: None,
        observed: None,
        registry: R::ENABLED.then(|| {
            hyrd.publish_meta_metrics();
            telemetry.metrics()
        }),
        spans: Vec::new(),
        samples,
    }
}
