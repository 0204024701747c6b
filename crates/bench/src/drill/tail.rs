//! `tail`: hedged against unhedged reads under latency spikes, driven by
//! the open-loop Poisson workload ([`hyrd::driver::openloop`]).
//!
//! The grid is hedging delay × fault plan. Each cell builds a fresh rig,
//! loads the file pool, installs the cell's fault plan *relative to the
//! post-setup clock* (so spike windows always cover the timed phase),
//! then replays the same arrival schedule. The `spikes` plan is a
//! rotating ×8 latency spike ([`spike_plan`]) — the "one slow replica"
//! regime hedged requests exist for. Claims: no errors and no wrong bytes
//! in any cell, and no hedge fires on a quiet fleet at the default delay.
//! The trace written is the headline cell's (spikes, default delay); the
//! one compared across worker counts is every cell's.
//!
//! The committed numbers for this regime are the perf ledger's
//! `engine.step*_read_p99_s` / `engine.hedges_*` rows on `openloop_zipf`.

use std::fmt::Write as _;
use std::time::Duration;

use hyrd::config::HedgeConfig;
use hyrd::driver::openloop::replay_arrivals;
use hyrd::driver::{replay_sweep, replay_with_state, ReplayState};
use hyrd::prelude::*;
use hyrd_cloudsim::FaultPlan;
use hyrd_workloads::{OpenLoop, OpenLoopConfig};

use super::{Claim, Options, Outcome, Point, Rig};

const SEED: u64 = 11;

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

/// One cell: a hedging policy crossed with a fault plan, and what it
/// measured.
struct Cell {
    label: String,
    setup_errors: u64,
    timed: ReplayStats,
    hedges_fired: u64,
    trace: Vec<u8>,
}

fn run_cell(label: String, hedge: HedgeConfig, spikes: bool, workload: &OpenLoop) -> Cell {
    let rig = Rig::traced();
    let config = HyrdConfig { hedge, ..HyrdConfig::default() };
    let mut hyrd =
        Hyrd::with_telemetry(&rig.fleet, config, rig.telemetry.clone()).expect("valid config");
    let opts = rig.replay_options();
    let mut state = ReplayState::default();
    let setup = replay_with_state(&mut hyrd, &workload.setup_ops(), &rig.clock, &opts, &mut state);
    let arrivals = workload.arrivals();
    if spikes {
        let span = arrivals.last().expect("non-empty workload").at;
        for (idx, provider) in rig.fleet.providers().iter().enumerate() {
            provider.set_fault_plan(spike_plan(idx, rig.clock.now(), span));
        }
    }
    let timed = replay_arrivals(&mut hyrd, &arrivals, &rig.clock, &opts, &mut state);
    let trace = rig.trace();
    let hedges_fired = rig.telemetry.metrics().counter("hedge.fired");
    Cell { label, setup_errors: setup.errors, timed, hedges_fired, trace }
}

pub(super) fn run(opts: &Options, p: Point) -> Outcome {
    let workload = OpenLoop::new(OpenLoopConfig {
        seed: opts.seed_or(SEED),
        arrivals: if opts.smoke { 120 } else { 400 },
        rate_per_sec: 2.0,
        ..OpenLoopConfig::default()
    });
    // Delays: aggressive (fires on moderately slow reads), the default
    // (fires only on spiked reads), conservative.
    let default_s = HedgeConfig::default().delay.as_secs();
    let delays = if opts.smoke { vec![default_s] } else { vec![4, default_s, 16] };
    let mut cells = Vec::new();
    for (plan, spikes) in [("quiet", false), ("spikes", true)] {
        cells.push((format!("{plan}/unhedged"), HedgeConfig::default(), spikes));
        for &d in &delays {
            let delay = Duration::from_secs(d);
            let hedge = HedgeConfig { enabled: true, delay, ..HedgeConfig::default() };
            cells.push((format!("{plan}/hedge-{d}s"), hedge, spikes));
        }
    }
    let work = cells.into_iter().map(|(label, hedge, spikes)| {
        let workload = &workload;
        move || run_cell(label, hedge, spikes, workload)
    });
    let cells = replay_sweep(work.collect(), p.jobs);

    let mut summary = format!(
        "{:18} {:>9} {:>9} {:>9} {:>6} {:>9}\n",
        "cell", "p50 s", "p99 s", "p999 s", "hedges", "prov-ops"
    );
    let (mut report, mut trace) = (String::new(), Vec::new());
    for c in &cells {
        let q = |p: f64| c.timed.overall.quantile(p).as_secs_f64();
        let (fired, ops) = (c.hedges_fired, c.timed.provider_ops);
        let _ = writeln!(
            summary,
            "{:18} {:>9.3} {:>9.3} {:>9.3} {fired:>6} {ops:>9}",
            c.label,
            q(0.5),
            q(0.99),
            q(0.999)
        );
        let _ = writeln!(report, "{} {:?}", c.label, c.timed);
        trace.extend_from_slice(&c.trace);
    }
    let cell = |label: String| cells.iter().find(|c| c.label == label).expect("cell exists");
    let sum = |f: fn(&Cell) -> u64| cells.iter().map(f).sum::<u64>();
    let claims = vec![
        Claim::zero("setup_errors", sum(|c| c.setup_errors)),
        Claim::zero("errors", sum(|c| c.timed.errors)),
        Claim::zero("verify_failures", sum(|c| c.timed.verify_failures)),
        Claim::zero("quiet_hedges_fired", cell(format!("quiet/hedge-{default_s}s")).hedges_fired),
    ];
    let headline = cell(format!("spikes/hedge-{default_s}s"));
    let unhedged = cell("spikes/unhedged".into());
    let (p99_un, p99_h) =
        (unhedged.timed.overall.quantile(0.99), headline.timed.overall.quantile(0.99));
    let _ = writeln!(
        summary,
        "headline (spikes, {default_s}s hedge): p99 {:.2}s -> {:.2}s, provider ops {} -> {}",
        p99_un.as_secs_f64(),
        p99_h.as_secs_f64(),
        unhedged.timed.provider_ops,
        headline.timed.provider_ops,
    );
    let files = vec![("tail_trace.jsonl".into(), headline.trace.clone())];
    Outcome { report, trace, files, claims, summary }
}
