//! Cost-vs-latency Pareto sweep of the adaptive redundancy policy.
//!
//! Runs a Zipf-skewed popularity workload ([`hyrd_workloads::zipf`],
//! hot erasure-coded large files + a cold tail of sizable replicated
//! files) through a lineup of static placements and through HyRD with
//! the adaptive policy engine ([`hyrd::policy`]) running background
//! migration passes between access chunks. Every cell reports the
//! access-phase latency distribution (p50/p99/mean) and the physical
//! bytes left on the fleet afterwards — the storage-cost axis.
//!
//! The claim under test: the adaptive policy **Pareto-dominates at
//! least one static baseline** — strictly lower stored bytes at
//! equal-or-better p99, or strictly better p99 at equal-or-lower cost.
//! The expected victim is static HyRD: demoting the cold replicated
//! tail to erasure coding sheds replica bytes, while promoting the
//! hottest erasure-coded files moves the most frequent large reads off
//! the fragment fan-out path.
//!
//! Determinism: every cell owns a fresh fleet, virtual clock and trace
//! collector, cells run through [`replay_sweep`], and the adaptive
//! cell's migration decisions depend only on namespace order, heat
//! counters and the virtual clock — so the report and the concatenated
//! telemetry trace are byte-identical for any `--jobs` value. `--check`
//! proves it in-process; the CI job proves it cross-process with `cmp`.
//!
//! Usage: `policy_sweep [--jobs N] [--trace PATH] [--check]`

use std::time::Duration;

use hyrd::driver::{
    replay_sweep, replay_with_state, ReplayOptions, ReplayState, ReplayStats, SweepCell,
};
use hyrd::observatory;
use hyrd::policy::MigrationReport;
use hyrd::prelude::*;
use hyrd::telemetry::{Collector, SharedBuf};
use hyrd_baselines::{DuraCloud, Racs};
use hyrd_bench::{flag_usize, header, write_json};
use hyrd_workloads::{ZipfConfig, ZipfWorkload};

/// Access ops per chunk between adaptive migration passes.
const CHUNK: usize = 75;

/// The policy tuning the adaptive cell runs with: demotion after one
/// cold virtual minute (the workload spans several), promotion at the
/// default three reads.
fn adaptive_config() -> HyrdConfig {
    let mut cfg = HyrdConfig::default();
    cfg.policy.enabled = true;
    cfg.policy.demote_idle = Duration::from_secs(60);
    cfg.policy.demote_min_bytes = 256 * 1024;
    cfg
}

hyrd::telemetry::json_struct! {
    /// One sweep cell's outcome. Latency values are virtual-clock
    /// nanoseconds over the access phase only (the create phase is setup).
    #[derive(Debug, Clone, PartialEq)]
    struct Cell {
        scheme: String,
        read_p50_ns: u64,
        read_p99_ns: u64,
        mean_ns: u64,
        stored_bytes: u64,
        errors: u64,
        verify_failures: u64,
        provider_ops: u64,
        migrations: Option<MigrationReport>,
    }
}

/// Shared per-cell harness: fresh fleet + clock + trace collector, the
/// Zipf pool created in the untimed setup phase, reads verified against
/// the driver's expected bytes throughout.
struct Bench {
    clock: SimClock,
    fleet: Fleet,
    trace_buf: SharedBuf,
    telemetry: Collector,
    opts: ReplayOptions,
    state: ReplayState,
}

impl Bench {
    fn new() -> Self {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let trace_buf = SharedBuf::new();
        let telemetry = Collector::builder(clock.clone()).jsonl(trace_buf.clone()).build();
        let opts = ReplayOptions {
            verify_reads: true,
            telemetry: telemetry.clone(),
            ..ReplayOptions::default()
        };
        Bench { clock, fleet, trace_buf, telemetry, opts, state: ReplayState::default() }
    }

    fn setup(&mut self, scheme: &mut dyn Scheme, workload: &ZipfWorkload) {
        let setup = workload.setup_ops();
        let _ = replay_with_state(scheme, &setup, &self.clock, &self.opts, &mut self.state);
    }

    fn finish(
        self,
        name: &str,
        stats: ReplayStats,
        migrations: Option<MigrationReport>,
    ) -> (Cell, Vec<u8>) {
        self.telemetry.flush();
        let cell = Cell {
            scheme: name.to_string(),
            read_p50_ns: stats.overall.quantile(0.5).as_nanos() as u64,
            read_p99_ns: stats.overall.quantile(0.99).as_nanos() as u64,
            mean_ns: stats.overall.mean().as_nanos() as u64,
            stored_bytes: self.fleet.total_stored_bytes(),
            errors: stats.errors,
            verify_failures: stats.verify_failures,
            provider_ops: stats.provider_ops,
            migrations,
        };
        (cell, self.trace_buf.contents())
    }
}

/// A static cell: setup, then the whole access stream in one replay.
fn run_static(
    name: &'static str,
    make: fn(&Fleet, Collector) -> Box<dyn Scheme>,
    workload: &ZipfWorkload,
) -> (Cell, Vec<u8>) {
    let mut bench = Bench::new();
    let mut scheme = make(&bench.fleet, bench.telemetry.clone());
    bench.setup(scheme.as_mut(), workload);
    let access = workload.access_ops();
    let stats =
        replay_with_state(scheme.as_mut(), &access, &bench.clock, &bench.opts, &mut bench.state);
    bench.finish(name, stats, None)
}

/// The adaptive cell: same setup and access stream, but chunked, with a
/// background migration pass between chunks — gated on the observatory
/// SLIs folded from the cell's own live trace, the way a deployment
/// would wire it.
fn run_adaptive(workload: &ZipfWorkload) -> (Cell, Vec<u8>) {
    let mut bench = Bench::new();
    let mut h = Hyrd::with_telemetry(&bench.fleet, adaptive_config(), bench.telemetry.clone())
        .expect("valid policy config");
    bench.setup(&mut h, workload);
    let access = workload.access_ops();
    let mut stats = ReplayStats::default();
    let mut migrations = MigrationReport::default();
    for chunk in access.chunks(CHUNK) {
        stats.absorb(&replay_with_state(
            &mut h,
            chunk,
            &bench.clock,
            &bench.opts,
            &mut bench.state,
        ));
        bench.telemetry.flush();
        let obs = observatory::from_trace(&bench.trace_buf.text(), 1).expect("parse own trace");
        let (r, _) = h.migrate_pass_with(Some(&obs.provider_health())).expect("migrate pass");
        migrations.absorb(r);
    }
    bench.finish("HyRD adaptive", stats, Some(migrations))
}

/// The sweep lineup: static baselines, then the adaptive policy.
fn run_lineup(workload: &ZipfWorkload, jobs: usize) -> Vec<(Cell, Vec<u8>)> {
    type Make = fn(&Fleet, Collector) -> Box<dyn Scheme>;
    let statics: Vec<(&'static str, Make)> = vec![
        ("DuraCloud", |f, _| Box::new(DuraCloud::standard(f).expect("standard fleet"))),
        ("RACS", |f, _| Box::new(Racs::new(f).expect("4-provider fleet"))),
        ("HyRD", |f, t| {
            Box::new(Hyrd::with_telemetry(f, HyrdConfig::default(), t).expect("valid config"))
        }),
        ("HyRD+hot", |f, t| {
            let cfg = HyrdConfig { hot_read_threshold: Some(2), ..HyrdConfig::default() };
            Box::new(Hyrd::with_telemetry(f, cfg, t).expect("valid config"))
        }),
    ];
    let mut cells: Vec<SweepCell<'_, (Cell, Vec<u8>)>> = Vec::new();
    for (name, make) in statics {
        let w = workload.clone();
        cells.push(Box::new(move || run_static(name, make, &w)));
    }
    let w = workload.clone();
    cells.push(Box::new(move || run_adaptive(&w)));
    replay_sweep(cells, jobs)
}

/// `a` Pareto-dominates `b`: no worse on both axes, strictly better on
/// at least one.
fn dominates(a: &Cell, b: &Cell) -> bool {
    let no_worse = a.stored_bytes <= b.stored_bytes && a.read_p99_ns <= b.read_p99_ns;
    let better = a.stored_bytes < b.stored_bytes || a.read_p99_ns < b.read_p99_ns;
    no_worse && better
}

fn main() {
    let jobs = flag_usize("jobs", 2);
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace PATH").clone());

    let workload = ZipfWorkload::new(ZipfConfig::default());
    header(&format!(
        "policy sweep: {} files, {} accesses, theta {}, jobs {jobs}",
        workload.config().files,
        workload.config().ops,
        workload.config().theta
    ));

    let results = run_lineup(&workload, jobs);
    let cells: Vec<Cell> = results.iter().map(|(c, _)| c.clone()).collect();

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12} {:>7}",
        "scheme", "p50(ms)", "p99(ms)", "mean(ms)", "stored(MB)", "errors"
    );
    for c in &cells {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>7}",
            c.scheme,
            c.read_p50_ns as f64 / 1e6,
            c.read_p99_ns as f64 / 1e6,
            c.mean_ns as f64 / 1e6,
            c.stored_bytes as f64 / 1e6,
            c.errors,
        );
    }
    let adaptive = cells.last().expect("lineup is non-empty");
    if let Some(m) = &adaptive.migrations {
        println!(
            "adaptive migrations: {} promoted, {} demoted, {} aborted, {} skipped (unhealthy), \
             {:.1} MB rewritten",
            m.promoted,
            m.demoted,
            m.aborted,
            m.skipped_unhealthy,
            m.bytes_rewritten as f64 / 1e6,
        );
    }

    let dominated: Vec<&str> = cells[..cells.len() - 1]
        .iter()
        .filter(|b| dominates(adaptive, b))
        .map(|b| b.scheme.as_str())
        .collect();
    println!(
        "adaptive Pareto-dominates: {}",
        if dominated.is_empty() { "(none)".to_string() } else { dominated.join(", ") }
    );

    for c in &cells {
        assert_eq!(c.verify_failures, 0, "{}: served wrong bytes", c.scheme);
        assert_eq!(c.errors, 0, "{}: access replay errored", c.scheme);
    }

    if let Some(path) = &trace_path {
        let mut all = Vec::new();
        for (_, trace) in &results {
            all.extend_from_slice(trace);
        }
        std::fs::write(path, &all).expect("write trace file");
        println!("trace: {:.1} MB -> {path}", all.len() as f64 / 1e6);
    }

    if check {
        assert!(
            !dominated.is_empty(),
            "adaptive policy dominates no static baseline — placement regression"
        );
        // Re-run the whole sweep at a different job count: cells, and
        // therefore traces, must be byte-identical (virtual-clock-only
        // stamping + per-cell isolation).
        let again = run_lineup(&workload, if jobs == 1 { 2 } else { 1 });
        for ((c1, t1), (c2, t2)) in results.iter().zip(&again) {
            assert_eq!(c1, &c2.clone(), "cell diverged across job counts");
            assert_eq!(t1, t2, "{} trace diverged across job counts", c1.scheme);
        }
        println!("check: Pareto domination + byte-identical sweep across job counts ✓");
    }

    write_json("policy_sweep", &cells);
}
