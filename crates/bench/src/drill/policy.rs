//! `policy`: the cost-against-latency Pareto sweep of the adaptive
//! redundancy policy.
//!
//! A Zipf-skewed popularity workload ([`hyrd_workloads::zipf`]: hot
//! erasure-coded large files, a cold tail of sizable replicated files)
//! runs through static placements and through HyRD with the adaptive
//! policy ([`hyrd::policy`]) migrating between access chunks. Every cell
//! reports the access-phase latency (p50/p99/mean) and the bytes left on
//! the fleet — the storage-cost axis. The claim: the adaptive cell
//! **Pareto-dominates at least one static baseline** (the expected
//! victim is static HyRD: demoting the cold tail sheds replica bytes,
//! promoting the hottest files takes the most frequent large reads off
//! the fragment fan-out), and no cell errs or serves wrong bytes.
//!
//! Every cell owns its rig and the adaptive cell's decisions depend only
//! on namespace order, heat counters and the virtual clock, so the cells
//! and their concatenated traces are byte-identical for any worker count.

use std::time::Duration;

use hyrd::driver::{replay_with_state, ReplayState};
use hyrd::observatory;
use hyrd::policy::MigrationReport;
use hyrd::prelude::*;
use hyrd::telemetry::{json, Collector};
use hyrd_baselines::{Racs, Replicated};
use hyrd_workloads::{FsOp, ZipfConfig, ZipfWorkload};

use super::{Claim, Options, Outcome, Point, Rig};

/// Access ops per chunk between adaptive migration passes.
const CHUNK: usize = 75;

/// The adaptive cell's tuning: demotion after one cold virtual minute
/// (the workload spans several), promotion at the default three reads.
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

/// Builds a scheme on a rig's fleet and collector.
type Make = fn(&Fleet, Collector) -> Box<dyn Scheme>;

/// One cell: the Zipf pool created untimed, then the access stream —
/// whole for a static scheme; for the adaptive one (`make` = `None`) in
/// chunks with a background migration pass between them, gated on the
/// observatory SLIs folded from the cell's own live trace, the way a
/// deployment would wire it.
fn run_cell(name: &str, make: Option<Make>, workload: &ZipfWorkload) -> (Cell, Vec<u8>) {
    let rig = Rig::traced();
    let opts = rig.replay_options();
    let mut state = ReplayState::default();
    let mut replay = |scheme: &mut dyn Scheme, ops: &[FsOp]| {
        replay_with_state(scheme, ops, &rig.clock, &opts, &mut state)
    };
    let access = workload.access_ops();
    let mut stats = ReplayStats::default();
    let mut migrations = None;
    // Alive until the cell has read the fleet and the trace.
    let _scheme: Box<dyn Scheme> = match make {
        Some(make) => {
            let mut scheme = make(&rig.fleet, rig.telemetry.clone());
            replay(scheme.as_mut(), &workload.setup_ops());
            stats = replay(scheme.as_mut(), &access);
            scheme
        }
        None => {
            let mut h = Hyrd::with_telemetry(&rig.fleet, adaptive_config(), rig.telemetry.clone())
                .expect("valid policy config");
            replay(&mut h, &workload.setup_ops());
            let mut total = MigrationReport::default();
            for chunk in access.chunks(CHUNK) {
                stats.absorb(&replay(&mut h, chunk));
                let trace = String::from_utf8(rig.trace()).expect("a trace is UTF-8");
                let obs = observatory::from_trace(&trace, 1).expect("parse own trace");
                let (r, _) =
                    h.migrate_pass_with(Some(&obs.provider_health())).expect("migrate pass");
                total.absorb(r);
            }
            migrations = Some(total);
            Box::new(h)
        }
    };
    let cell = Cell {
        scheme: name.to_string(),
        read_p50_ns: stats.overall.quantile(0.5).as_nanos() as u64,
        read_p99_ns: stats.overall.quantile(0.99).as_nanos() as u64,
        mean_ns: stats.overall.mean().as_nanos() as u64,
        stored_bytes: rig.fleet.total_stored_bytes(),
        errors: stats.errors,
        verify_failures: stats.verify_failures,
        provider_ops: stats.provider_ops,
        migrations,
    };
    (cell, rig.trace())
}

/// `a` Pareto-dominates `b`: no worse on both axes, strictly better on
/// at least one.
fn dominates(a: &Cell, b: &Cell) -> bool {
    let no_worse = a.stored_bytes <= b.stored_bytes && a.read_p99_ns <= b.read_p99_ns;
    let better = a.stored_bytes < b.stored_bytes || a.read_p99_ns < b.read_p99_ns;
    no_worse && better
}

pub(super) fn run(opts: &Options, p: Point) -> Outcome {
    let mut config = ZipfConfig::default();
    config.seed = opts.seed.unwrap_or(config.seed);
    let workload = ZipfWorkload::new(config);
    let lineup: [(&str, Option<Make>); 5] = [
        (
            "DuraCloud",
            Some(|f, _| Box::new(Replicated::duracloud_standard(f).expect("standard fleet"))),
        ),
        ("RACS", Some(|f, _| Box::new(Racs::new(f).expect("4-provider fleet")))),
        (
            "HyRD",
            Some(|f, t| {
                Box::new(Hyrd::with_telemetry(f, HyrdConfig::default(), t).expect("valid config"))
            }),
        ),
        (
            "HyRD+hot",
            Some(|f, t| {
                let cfg = HyrdConfig { hot_read_threshold: Some(2), ..HyrdConfig::default() };
                Box::new(Hyrd::with_telemetry(f, cfg, t).expect("valid config"))
            }),
        ),
        ("HyRD adaptive", None),
    ];
    let workload = &workload;
    let work = lineup.map(|(name, make)| move || run_cell(name, make, workload));
    let (cells, traces): (Vec<Cell>, Vec<Vec<u8>>) =
        replay_sweep(work.into(), p.jobs).into_iter().unzip();

    let mut summary = format!(
        "{:<14} {:>10} {:>10} {:>12} {:>7}\n",
        "scheme", "p50(ms)", "p99(ms)", "stored(MB)", "errors"
    );
    let mut claims = Vec::new();
    for c in &cells {
        let ms = |ns: u64| ns as f64 / 1e6;
        summary += &format!(
            "{:<14} {:>10.1} {:>10.1} {:>12.1} {:>7}\n",
            c.scheme,
            ms(c.read_p50_ns),
            ms(c.read_p99_ns),
            c.stored_bytes as f64 / 1e6,
            c.errors
        );
        let holds = c.errors == 0 && c.verify_failures == 0;
        let measured = format!("{} errors, {} verify failures", c.errors, c.verify_failures);
        claims.push(Claim::new(format!("no_errors[{}]", c.scheme), holds, measured));
    }
    let (adaptive, statics) = cells.split_last().expect("lineup is non-empty");
    let dominated: Vec<&str> =
        statics.iter().filter(|b| dominates(adaptive, b)).map(|b| b.scheme.as_str()).collect();
    claims.push(Claim::new("adaptive_dominates", !dominated.is_empty(), format!("{dominated:?}")));
    let report = json::to_string_pretty(&cells);
    let trace = traces.concat();
    Outcome {
        files: vec![
            ("policy_sweep.json".into(), report.clone().into()),
            ("policy_trace.jsonl".into(), trace.clone()),
        ],
        report,
        trace,
        claims,
        summary,
    }
}
