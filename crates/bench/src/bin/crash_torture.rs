//! Crash-restart torture sweep: the end-to-end durability audit.
//!
//! Two sweeps, both fully deterministic:
//!
//! 1. **Exhaustive** — a handcrafted mini-trace crossing every
//!    dispatcher path (replicated and erasure-coded creates, cached
//!    small updates, RAID5 read-modify-writes, hot-copy installs and
//!    drops, deletes of both tiers, directory lists). A clean run with
//!    the crash switch disarmed counts provider ops and crashpoint
//!    hits; the sweep then replays the trace once per **every** op
//!    budget and once per **every** (crashpoint, hit) pair, killing
//!    the client at exactly that boundary, restarting it from the
//!    crash journal ([`Hyrd::restart`]) and auditing the durability
//!    contract (acked content, crashed-op atomicity, orphans, cost
//!    accounting).
//! 2. **Seeded sampling over the IA trace** — the same protocol on a
//!    slice of the Internet Archive workload (sizes clamped so the
//!    cell count stays sane), with op budgets and crashpoint hits
//!    sampled by a SplitMix64 stream from `--seed`.
//!
//! The report is all scalars and sorted maps, so the same seed
//! produces byte-identical output; `--selfcheck` proves it in-process
//! by re-running the whole torture at a different worker count and
//! byte-comparing both the report JSON and the clean run's telemetry
//! trace. The binary exits non-zero on any durability violation.
//!
//! Usage: `crash_torture [--seed S] [--ops N] [--ia-ops N]
//! [--ia-samples K] [--jobs N] [--smoke] [--skip-ia] [--selfcheck]`

use std::collections::{BTreeMap, BTreeSet};

use hyrd::crashtest::CrashHarness;
use hyrd::prelude::*;
use hyrd::telemetry::{json, Collector, SharedBuf};
use hyrd_bench::{header, write_json};
use hyrd_cloudsim::CrashPlan;
use hyrd_workloads::{FsOp, IaTrace};

/// SplitMix64 finalizer: the sweep's deterministic sampling stream.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The torture config: a 4 KB large/small threshold keeps every cell
/// cheap while still exercising both tiers, and a hot-read threshold of
/// 2 pulls the hot-copy install/drop/delete paths into the sweep.
fn torture_config() -> HyrdConfig {
    HyrdConfig {
        threshold: 4 * 1024,
        probe_bytes: 4 * 1024,
        hot_read_threshold: Some(2),
        ..HyrdConfig::default()
    }
}

/// The handcrafted exhaustive trace (see module docs). `limit` trims it
/// for smoke runs; every prefix is a valid trace.
fn exhaustive_ops(limit: usize) -> Vec<FsOp> {
    let c = |path: &str, size: u64| FsOp::Create { path: path.into(), size };
    let r = |path: &str| FsOp::Read { path: path.into() };
    let u = |path: &str, offset: u64, len: u64| FsOp::Update { path: path.into(), offset, len };
    let d = |path: &str| FsOp::Delete { path: path.into() };
    let l = |path: &str| FsOp::ListDir { path: path.into() };
    let mut ops = vec![
        c("/a/small.txt", 700),  // replicated create
        c("/a/big.bin", 20_000), // erasure-coded create (4 KB threshold)
        r("/a/small.txt"),
        u("/a/small.txt", 10, 80), // replicated update through the cache
        r("/a/big.bin"),
        r("/a/big.bin"),             // second read installs the hot copy
        u("/a/big.bin", 5_000, 900), // RAID5 RMW; drops the hot copy
        c("/b/tiny.cfg", 64),
        l("/a"),
        c("/a/mid.dat", 9_000),
        r("/a/mid.dat"),
        r("/a/mid.dat"), // hot copy on /a/mid.dat
        u("/a/small.txt", 0, 240),
        d("/a/mid.dat"), // EC delete with a live hot copy
        u("/a/big.bin", 0, 300),
        d("/b/tiny.cfg"), // replicated delete
        c("/b/back.log", 5_000),
        r("/a/big.bin"),
        u("/b/back.log", 100, 400),
        d("/a/small.txt"),
        r("/b/back.log"),
        l("/b"),
        c("/a/late.txt", 300),
        r("/a/late.txt"),
    ];
    ops.truncate(limit.max(1));
    ops
}

/// Builds the IA-trace op stream: the archive's create/read interleave
/// with injected in-place updates and a tail of deletes. Sizes are
/// clamped to 512 B – 64 KB — the sweep exercises the archive's *op
/// mix*, not its byte volume (updates stay inside the first 512 bytes
/// so they are valid against every file).
fn ia_ops(seed: u64, want: usize) -> Vec<FsOp> {
    let trace = IaTrace::synthesize(seed);
    let mut ops: Vec<FsOp> = Vec::with_capacity(want + 16);
    let mut created: Vec<String> = Vec::new();
    let mut round = 0u64;
    while ops.len() < want {
        let month = (round % 12) as usize;
        let day = trace.sample_day_ops(month, 2e-5, mix(seed, round));
        for op in day {
            match op {
                FsOp::Create { path, size } => {
                    let path = format!("/r{round:02}{path}");
                    created.push(path.clone());
                    ops.push(FsOp::Create { path, size: size.clamp(512, 64 * 1024) });
                }
                FsOp::Read { path } => {
                    ops.push(FsOp::Read { path: format!("/r{round:02}{path}") });
                }
                other => ops.push(other),
            }
            let z = mix(seed ^ 0x55AA, ops.len() as u64);
            if z.is_multiple_of(17) && !created.is_empty() {
                let target = created[(z >> 32) as usize % created.len()].clone();
                ops.push(FsOp::Update {
                    path: target,
                    offset: (z >> 8) % 128,
                    len: 64 + (z >> 16) % 320,
                });
            }
            if ops.len() >= want {
                break;
            }
        }
        round += 1;
    }
    let del = (created.len() / 50).max(1);
    for path in created.iter().rev().take(del) {
        ops.push(FsOp::Delete { path: path.clone() });
    }
    ops
}

/// What the disarmed baseline run of a trace measured.
struct CleanRun {
    /// Provider ops consumed by harness construction (evaluator probes).
    setup_ops: u64,
    /// Provider op count after the last trace op.
    total_ops: u64,
    /// Crashpoint hit counts over the trace.
    point_hits: BTreeMap<String, u64>,
    /// The clean run's JSONL telemetry trace (selfcheck baseline).
    trace: Vec<u8>,
    /// Violations from the baseline's own final audit (must be none).
    violations: Vec<String>,
}

fn clean_run(ops: &[FsOp], config: &HyrdConfig) -> CleanRun {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let buf = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).build();
    let mut h = CrashHarness::new(&fleet, config.clone(), telemetry.clone()).expect("valid config");
    let setup_ops = fleet.crash_switch().op_count();
    for op in ops {
        h.execute(op);
    }
    let total_ops = fleet.crash_switch().op_count();
    let point_hits = fleet.crash_switch().point_hits();
    h.final_audit();
    telemetry.flush();
    CleanRun {
        setup_ops,
        total_ops,
        point_hits,
        trace: buf.contents(),
        violations: h.violations().to_vec(),
    }
}

/// One crash cell's outcome.
struct CellResult {
    crashed: bool,
    restarts: u64,
    rolled_forward: u64,
    rolled_back: u64,
    replicas_healed: u64,
    orphans_removed: u64,
    pending_pruned: u64,
    torn_blocks: u64,
    violations: Vec<String>,
}

/// Replays the whole trace with `plan` armed: the client dies at the
/// planned boundary, restarts from its journal, finishes the trace, and
/// takes the final strict audit. Violations are prefixed with `label`
/// so the report names the exact crash boundary that produced them.
fn run_cell(ops: &[FsOp], config: &HyrdConfig, plan: CrashPlan, label: &str) -> CellResult {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let mut h =
        CrashHarness::new(&fleet, config.clone(), Collector::disabled()).expect("valid config");
    fleet.crash_switch().arm(plan);
    for op in ops {
        if h.is_dead() {
            h.restart_and_audit();
        }
        h.execute(op);
    }
    h.final_audit();
    let (_, _, crashes) = h.tallies();
    let mut result = CellResult {
        crashed: crashes > 0,
        restarts: h.restart_reports().len() as u64,
        rolled_forward: 0,
        rolled_back: 0,
        replicas_healed: 0,
        orphans_removed: 0,
        pending_pruned: 0,
        torn_blocks: 0,
        violations: h.violations().iter().map(|v| format!("[{label}] {v}")).collect(),
    };
    for r in h.restart_reports() {
        result.rolled_forward += r.intents_rolled_forward;
        result.rolled_back += r.intents_rolled_back;
        result.replicas_healed += r.replicas_healed;
        result.orphans_removed += r.orphans_removed;
        result.pending_pruned += r.pending_pruned;
        result.torn_blocks += r.torn_blocks;
    }
    result
}

/// Sums over a sweep's cells.
#[derive(Default)]
struct Agg {
    cells: usize,
    crashed: usize,
    missed: usize,
    restarts: u64,
    rolled_forward: u64,
    rolled_back: u64,
    replicas_healed: u64,
    orphans_removed: u64,
    pending_pruned: u64,
    torn_blocks: u64,
    violations: Vec<String>,
}

impl Agg {
    fn absorb(&mut self, c: CellResult) {
        self.cells += 1;
        if c.crashed {
            self.crashed += 1;
        } else {
            self.missed += 1;
        }
        self.restarts += c.restarts;
        self.rolled_forward += c.rolled_forward;
        self.rolled_back += c.rolled_back;
        self.replicas_healed += c.replicas_healed;
        self.orphans_removed += c.orphans_removed;
        self.pending_pruned += c.pending_pruned;
        self.torn_blocks += c.torn_blocks;
        self.violations.extend(c.violations);
    }
}

/// Runs a list of (label, plan) cells through the parallel sweep engine
/// and aggregates. Cell order (and therefore the report) is independent
/// of `jobs`.
fn sweep(ops: &[FsOp], config: &HyrdConfig, plans: Vec<(String, CrashPlan)>, jobs: usize) -> Agg {
    let cells: Vec<_> = plans
        .into_iter()
        .map(|(label, plan)| move || run_cell(ops, config, plan, &label))
        .collect();
    let mut agg = Agg::default();
    for result in replay_sweep(cells, jobs) {
        agg.absorb(result);
    }
    agg
}

/// Every (budget, crashpoint-hit) cell the clean run admits.
fn exhaustive_plans(clean: &CleanRun) -> Vec<(String, CrashPlan)> {
    let mut plans = Vec::new();
    for b in clean.setup_ops + 1..=clean.total_ops {
        plans.push((format!("op {b}"), CrashPlan::at_op(b)));
    }
    for (name, hits) in &clean.point_hits {
        for hit in 1..=*hits {
            plans.push((format!("{name}#{hit}"), CrashPlan::at_point(name.clone(), hit)));
        }
    }
    plans
}

/// Seeded sample of op budgets plus one sampled hit per crashpoint.
fn sampled_plans(clean: &CleanRun, seed: u64, samples: usize) -> Vec<(String, CrashPlan)> {
    let span = clean.total_ops.saturating_sub(clean.setup_ops).max(1);
    let mut budgets = BTreeSet::new();
    let want = samples.min(span as usize);
    let mut salt = 0u64;
    while budgets.len() < want {
        budgets.insert(clean.setup_ops + 1 + mix(seed ^ 0x00C0_FFEE, salt) % span);
        salt += 1;
    }
    let mut plans: Vec<(String, CrashPlan)> =
        budgets.into_iter().map(|b| (format!("ia op {b}"), CrashPlan::at_op(b))).collect();
    for (idx, (name, hits)) in clean.point_hits.iter().enumerate() {
        let hit = 1 + mix(seed ^ 0xBEEF, idx as u64) % *hits;
        plans.push((format!("ia {name}#{hit}"), CrashPlan::at_point(name.clone(), hit)));
    }
    plans
}

hyrd::telemetry::json_struct! {
    /// The deterministic torture report: scalars and sorted maps only.
    #[derive(Debug, PartialEq)]
    struct TortureReport {
        seed: u64,
        // Exhaustive sweep over the handcrafted trace.
        trace_ops: usize,
        setup_ops: u64,
        trace_provider_ops: u64,
        clean_point_hits: BTreeMap<String, u64>,
        clean_trace_records: u64,
        budget_cells: usize,
        point_cells: usize,
        cells_crashed: usize,
        cells_missed: usize,
        restarts: u64,
        intents_rolled_forward: u64,
        intents_rolled_back: u64,
        replicas_healed: u64,
        orphans_removed: u64,
        pending_pruned: u64,
        torn_blocks_seen: u64,
        // Seeded sampling over the IA trace.
        ia_ran: bool,
        ia_trace_ops: usize,
        ia_provider_ops: u64,
        ia_cells: usize,
        ia_cells_crashed: usize,
        ia_restarts: u64,
        ia_intents_rolled_forward: u64,
        ia_intents_rolled_back: u64,
        ia_orphans_removed: u64,
        // Verdict.
        total_violations: u64,
        violations: Vec<String>,
    }
}

#[derive(Clone, Copy)]
struct TortureOptions {
    seed: u64,
    trace_ops: usize,
    ia_ops: usize,
    ia_samples: usize,
    skip_ia: bool,
    jobs: usize,
}

/// Runs the whole torture. Returns the report and the clean exhaustive
/// run's telemetry trace (the selfcheck baselines).
fn run_torture(opts: &TortureOptions) -> (TortureReport, Vec<u8>) {
    let config = torture_config();

    // Exhaustive sweep.
    let ops = exhaustive_ops(opts.trace_ops);
    let clean = clean_run(&ops, &config);
    let plans = exhaustive_plans(&clean);
    let budget_cells = (clean.total_ops - clean.setup_ops) as usize;
    let point_cells = plans.len() - budget_cells;
    let mut agg = sweep(&ops, &config, plans, opts.jobs);
    let mut violations: Vec<String> =
        clean.violations.iter().map(|v| format!("[clean] {v}")).collect();
    violations.append(&mut agg.violations);

    // IA sampling.
    let mut ia = Agg::default();
    let (mut ia_trace_ops, mut ia_provider_ops) = (0usize, 0u64);
    if !opts.skip_ia {
        let ops = ia_ops(opts.seed, opts.ia_ops);
        let clean = clean_run(&ops, &config);
        ia_trace_ops = ops.len();
        ia_provider_ops = clean.total_ops - clean.setup_ops;
        let plans = sampled_plans(&clean, opts.seed, opts.ia_samples);
        ia = sweep(&ops, &config, plans, opts.jobs);
        violations.extend(clean.violations.iter().map(|v| format!("[ia clean] {v}")));
        violations.append(&mut ia.violations);
    }

    let total_violations = violations.len() as u64;
    violations.truncate(40); // keep the report readable; the count is full
    let report = TortureReport {
        seed: opts.seed,
        trace_ops: ops.len(),
        setup_ops: clean.setup_ops,
        trace_provider_ops: clean.total_ops - clean.setup_ops,
        clean_point_hits: clean.point_hits.clone(),
        clean_trace_records: clean.trace.iter().filter(|b| **b == b'\n').count() as u64,
        budget_cells,
        point_cells,
        cells_crashed: agg.crashed,
        cells_missed: agg.missed,
        restarts: agg.restarts,
        intents_rolled_forward: agg.rolled_forward,
        intents_rolled_back: agg.rolled_back,
        replicas_healed: agg.replicas_healed,
        orphans_removed: agg.orphans_removed,
        pending_pruned: agg.pending_pruned,
        torn_blocks_seen: agg.torn_blocks,
        ia_ran: !opts.skip_ia,
        ia_trace_ops,
        ia_provider_ops,
        ia_cells: ia.cells,
        ia_cells_crashed: ia.crashed,
        ia_restarts: ia.restarts,
        ia_intents_rolled_forward: ia.rolled_forward,
        ia_intents_rolled_back: ia.rolled_back,
        ia_orphans_removed: ia.orphans_removed,
        total_violations,
        violations,
    };
    (report, clean.trace)
}

fn main() {
    let mut opts = TortureOptions {
        seed: 42,
        trace_ops: 24,
        ia_ops: 400,
        ia_samples: 16,
        skip_ia: false,
        jobs: 0,
    };
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => opts.seed = args.next().expect("--seed S").parse().expect("numeric"),
            "--ops" => opts.trace_ops = args.next().expect("--ops N").parse().expect("numeric"),
            "--ia-ops" => {
                opts.ia_ops = args.next().expect("--ia-ops N").parse().expect("numeric");
            }
            "--ia-samples" => {
                opts.ia_samples = args.next().expect("--ia-samples K").parse().expect("numeric");
            }
            "--jobs" => opts.jobs = args.next().expect("--jobs N").parse().expect("numeric"),
            "--smoke" => {
                opts.trace_ops = 14;
                opts.skip_ia = true;
            }
            "--skip-ia" => opts.skip_ia = true,
            "--selfcheck" => selfcheck = true,
            other => panic!("unknown argument: {other}"),
        }
    }

    header(&format!("crash torture: {} trace ops exhaustive, seed {}", opts.trace_ops, opts.seed));
    let (report, clean_trace) = run_torture(&opts);
    let body = json::to_string_pretty(&report);

    if selfcheck {
        // The whole torture again at a different worker count: report
        // and clean trace must be byte-identical — same-seed
        // repeatability and sweep-engine neutrality in one check.
        let alt = TortureOptions { jobs: if opts.jobs == 1 { 0 } else { 1 }, ..opts };
        let (report_j, trace_j) = run_torture(&alt);
        let body_j = json::to_string_pretty(&report_j);
        assert_eq!(body, body_j, "torture report diverged across worker counts");
        assert_eq!(clean_trace, trace_j, "clean-run trace diverged across worker counts");
        println!(
            "selfcheck: report + trace byte-identical across jobs {}/{} ✓",
            opts.jobs, alt.jobs
        );
    }

    println!("{body}");
    write_json("crash_torture", &report);

    assert_eq!(
        report.cells_missed, 0,
        "a sweep cell never crashed — the clean-run budgets are stale"
    );
    assert_eq!(
        report.total_violations,
        0,
        "durability violations found:\n{}",
        report.violations.join("\n")
    );
    println!(
        "survived: {} crash cells ({} exhaustive + {} IA-sampled), {} restarts, \
         {} intents rolled forward, {} rolled back, {} orphans GC'd — 0 durability violations",
        report.cells_crashed + report.ia_cells_crashed,
        report.budget_cells + report.point_cells,
        report.ia_cells,
        report.restarts + report.ia_restarts,
        report.intents_rolled_forward + report.ia_intents_rolled_forward,
        report.intents_rolled_back + report.ia_intents_rolled_back,
        report.orphans_removed + report.ia_orphans_removed,
    );
}
