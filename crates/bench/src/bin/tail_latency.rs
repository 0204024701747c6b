//! Tail-latency sweep: hedged vs unhedged reads under latency spikes,
//! driven by the open-loop Poisson workload (`hyrd::driver::openloop`).
//!
//! The grid is hedging delay × fault plan. Each cell builds a fresh
//! fleet/clock/client, loads the file pool, installs the cell's fault
//! plan *relative to the post-setup clock* (so spike windows always
//! cover the timed phase), then replays the same arrival schedule and
//! reports p50/p99/p999 with the hedge counters. The `spikes` plan is a
//! rotating ×8 latency spike: six episodes spread across the arrival
//! span, each slowing one of the four providers — the classic "one slow
//! replica" regime hedged requests exist for.
//!
//! `--check` reruns the whole sweep at `--jobs 1` and `--jobs 2` and
//! asserts every cell's stats and telemetry trace are byte-identical —
//! the determinism contract with hedging both off and on. CI's
//! tail-smoke job additionally `cmp`s `--trace` files across separate
//! processes.
//!
//! Prints the headline (p99 speedup from hedging under spikes, extra
//! provider ops paid for it); the committed numbers for the same regime
//! are the ledger's `engine.step*_read_p99_s` / `engine.hedges_*` rows on
//! `openloop_zipf`.
//!
//! Usage: `tail_latency [--arrivals N] [--rate R] [--seed S] [--jobs N]
//! [--smoke] [--check] [--trace PATH] [--obs PATH]`

use std::time::Duration;

use hyrd::config::{HedgeConfig, HyrdConfig};
use hyrd::dispatcher::Hyrd;
use hyrd::driver::openloop::replay_arrivals;
use hyrd::driver::{replay_sweep, replay_with_state, ReplayOptions, ReplayState, ReplayStats};
use hyrd::prelude::*;
use hyrd::telemetry::{Collector, SharedBuf};
use hyrd_bench::header;
use hyrd_cloudsim::faults::FaultPlan;
use hyrd_workloads::{OpenLoop, OpenLoopConfig};

/// One sweep cell: a hedging policy crossed with a fault plan.
#[derive(Debug, Clone)]
struct Cell {
    label: String,
    hedge: HedgeConfig,
    spikes: bool,
}

/// What a cell produced.
struct CellOutput {
    label: String,
    timed: ReplayStats,
    hedges_fired: u64,
    hedges_won: u64,
    hedges_cancelled: u64,
    trace: Vec<u8>,
}

/// Rotating ×8 spike plan for provider `idx`: of the six episodes laid
/// across `span` (each `span/32` long, so an ~19% duty cycle overall),
/// this provider is slowed during episodes `idx`, `idx+4`, …
fn spike_plan(idx: usize, origin: Duration, span: Duration) -> FaultPlan {
    let episode = span / 32;
    let stride = span / 6;
    let mut plan = FaultPlan::quiet();
    for e in 0..6usize {
        if e % 4 == idx {
            let start = origin + stride * e as u32;
            plan = plan.with_spike(start, start + episode, 8.0);
        }
    }
    plan
}

fn run_cell(cell: &Cell, workload: &OpenLoop) -> CellOutput {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let trace_buf = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(trace_buf.clone()).build();
    let config = HyrdConfig { hedge: cell.hedge, ..HyrdConfig::default() };
    let mut hyrd = Hyrd::with_telemetry(&fleet, config, telemetry.clone()).expect("valid config");
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: telemetry.clone(),
        ..ReplayOptions::default()
    };

    let mut state = ReplayState::default();
    let setup = replay_with_state(&mut hyrd, &workload.setup_ops(), &clock, &opts, &mut state);
    assert_eq!(setup.errors, 0, "pool setup must succeed");

    if cell.spikes {
        // Windows are anchored at the post-setup clock so they always
        // cover the timed phase, whatever the setup phase cost.
        let arrivals = workload.arrivals();
        let span = arrivals.last().expect("non-empty workload").at;
        for (idx, provider) in fleet.providers().iter().enumerate() {
            provider.set_fault_plan(spike_plan(idx, clock.now(), span));
        }
    }

    let timed = replay_arrivals(&mut hyrd, &workload.arrivals(), &clock, &opts, &mut state);
    assert_eq!(timed.errors, 0, "open-loop reads must succeed");
    assert_eq!(timed.verify_failures, 0, "hedged reads must return correct bytes");
    telemetry.flush();
    let metrics = telemetry.metrics();
    CellOutput {
        label: cell.label.clone(),
        timed,
        hedges_fired: metrics.counter("hedge.fired"),
        hedges_won: metrics.counter("hedge.won"),
        hedges_cancelled: metrics.counter("hedge.cancelled"),
        trace: trace_buf.contents(),
    }
}

fn run_sweep(cells: &[Cell], workload: &OpenLoop, jobs: usize) -> Vec<CellOutput> {
    let work: Vec<_> = cells
        .iter()
        .map(|cell| {
            let cell = cell.clone();
            let workload = workload.clone();
            move || run_cell(&cell, &workload)
        })
        .collect();
    replay_sweep(work, jobs)
}

fn main() {
    let mut arrivals: usize = 400;
    let mut rate: f64 = 2.0;
    let mut seed: u64 = 11;
    let mut jobs: usize = 1;
    let mut smoke = false;
    let mut check = false;
    let mut trace_path: Option<String> = None;
    let mut obs_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--arrivals" => {
                arrivals = args.next().expect("--arrivals N").parse().expect("numeric --arrivals");
            }
            "--rate" => rate = args.next().expect("--rate R").parse().expect("numeric --rate"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("numeric --seed"),
            "--jobs" => jobs = args.next().expect("--jobs N").parse().expect("numeric --jobs"),
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--trace" => trace_path = Some(args.next().expect("--trace PATH")),
            "--obs" => obs_path = Some(args.next().expect("--obs PATH")),
            other => panic!("unknown argument: {other}"),
        }
    }
    if smoke {
        arrivals = 120;
    }

    let workload = OpenLoop::new(OpenLoopConfig {
        seed,
        arrivals,
        rate_per_sec: rate,
        ..OpenLoopConfig::default()
    });

    // Delay sweep: off, aggressive (fires on moderately slow reads),
    // default (fires only on genuinely spiked reads), conservative.
    let hedged = |delay_s: u64| HedgeConfig {
        enabled: true,
        delay: Duration::from_secs(delay_s),
        ..HedgeConfig::default()
    };
    let default_delay_s = HedgeConfig::default().delay.as_secs();
    let delays = if smoke { vec![default_delay_s] } else { vec![4, default_delay_s, 16] };
    let mut cells = Vec::new();
    for spikes in [false, true] {
        let plan = if spikes { "spikes" } else { "quiet" };
        cells.push(Cell {
            label: format!("{plan}/unhedged"),
            hedge: HedgeConfig::default(),
            spikes,
        });
        for &d in &delays {
            cells.push(Cell { label: format!("{plan}/hedge-{d}s"), hedge: hedged(d), spikes });
        }
    }

    header(&format!(
        "tail-latency sweep: {arrivals} arrivals @ {rate}/s, seed {seed}, jobs {jobs}, \
         {} cells",
        cells.len()
    ));

    let outputs = run_sweep(&cells, &workload, jobs);

    println!(
        "\n{:18} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6} {:>6} {:>9}",
        "cell", "p50 s", "p99 s", "p999 s", "max s", "fired", "won", "cancel", "prov-ops"
    );
    for o in &outputs {
        let t = &o.timed;
        println!(
            "{:18} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>6} {:>6} {:>9}",
            o.label,
            t.overall.quantile(0.5).as_secs_f64(),
            t.overall.quantile(0.99).as_secs_f64(),
            t.overall.quantile(0.999).as_secs_f64(),
            t.overall.max().as_secs_f64(),
            o.hedges_fired,
            o.hedges_won,
            o.hedges_cancelled,
            t.provider_ops,
        );
    }

    // Headline: the default-delay hedge vs unhedged, under spikes.
    let unhedged = outputs.iter().find(|o| o.label == "spikes/unhedged").expect("cell exists");
    let hedged_default = outputs
        .iter()
        .find(|o| o.label == format!("spikes/hedge-{default_delay_s}s"))
        .expect("cell exists");
    let p99_un = unhedged.timed.overall.quantile(0.99).as_secs_f64();
    let p99_h = hedged_default.timed.overall.quantile(0.99).as_secs_f64();
    let speedup = p99_un / p99_h.max(1e-9);
    let extra_ops =
        hedged_default.timed.provider_ops as f64 / unhedged.timed.provider_ops.max(1) as f64 - 1.0;
    println!(
        "\nheadline (spikes, {default_delay_s}s hedge): p99 {p99_un:.2}s -> {p99_h:.2}s ({speedup:.2}x), \
         provider ops +{:.1}%",
        extra_ops * 100.0
    );

    // Quiet-fleet hedges should never fire at the default delay: it sits
    // above the worst calibrated quiet fetch.
    let quiet_hedged = outputs
        .iter()
        .find(|o| o.label == format!("quiet/hedge-{default_delay_s}s"))
        .expect("cell exists");
    assert_eq!(quiet_hedged.hedges_fired, 0, "no hedges on a quiet fleet at the default delay");

    if check {
        let fingerprint = |outs: &[CellOutput]| -> Vec<(String, String, Vec<u8>)> {
            outs.iter()
                .map(|o| (o.label.clone(), format!("{:?}", o.timed), o.trace.clone()))
                .collect()
        };
        let base = fingerprint(&outputs);
        for j in [1usize, 2] {
            let alt = fingerprint(&run_sweep(&cells, &workload, j));
            for (a, b) in base.iter().zip(&alt) {
                assert_eq!(a.0, b.0, "cell order diverged at --jobs {j}");
                assert_eq!(a.1, b.1, "stats diverged for {} at --jobs {j}", a.0);
                assert_eq!(a.2, b.2, "trace diverged for {} at --jobs {j}", a.0);
            }
        }
        println!("check: stats + traces byte-identical across --jobs {jobs}/1/2 ✓");
    }

    if let Some(path) = &trace_path {
        // The headline cell's trace: spiked plan, default hedge delay.
        std::fs::write(path, &hedged_default.trace).expect("write trace file");
        println!(
            "trace: {} records ({:.1} KB) -> {path}",
            hedged_default.trace.iter().filter(|b| **b == b'\n').count(),
            hedged_default.trace.len() as f64 / 1e3
        );
    }

    if let Some(path) = &obs_path {
        // Observatory view of the same headline cell.
        let text = std::str::from_utf8(&hedged_default.trace).expect("trace is utf-8");
        let obs = hyrd::observatory::from_trace(text, jobs).expect("parse tail trace");
        let obs_report = obs.report();
        std::fs::write(path, obs_report.render()).expect("write observatory report");
        println!(
            "observatory: {} provider(s), {} exposed file(s) -> {path}",
            obs_report.providers.len(),
            obs_report.files.len()
        );
    }
}
