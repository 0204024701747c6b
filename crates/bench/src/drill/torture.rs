//! `crash_torture`: the end-to-end durability audit, two deterministic
//! sweeps.
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
//! 2. **Seeded sampling over the IA trace** (full runs only) — the same
//!    protocol on a slice of the Internet Archive workload (sizes
//!    clamped to 512 B – 64 KB so the cell count stays sane), with op
//!    budgets and crashpoint hits sampled by [`mix`] from the seed.
//!
//! The cells run on the grid's worker count; the report and the clean
//! run's trace are byte-identical for every count. Claims: zero
//! durability violations, and every exhaustive cell crashed (a cell that
//! never crashes means the clean run's budgets are stale).

use std::collections::{BTreeMap, BTreeSet};

use hyrd::crashtest::CrashHarness;
use hyrd::driver::replay_sweep;
use hyrd::prelude::*;
use hyrd::telemetry::json;
use hyrd_cloudsim::CrashPlan;
use hyrd_workloads::FsOp;

use super::{ia_ops, mix, records, Claim, Options, Outcome, Point, Rig};

const SEED: u64 = 42;

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

/// The handcrafted exhaustive trace, cut to `limit` ops (every prefix
/// is a valid trace).
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

/// What the disarmed baseline run of a trace measured.
struct CleanRun {
    /// Provider ops consumed by harness construction (evaluator probes).
    setup_ops: u64,
    /// Provider op count after the last trace op.
    total_ops: u64,
    /// Crashpoint hit counts over the trace.
    point_hits: BTreeMap<String, u64>,
    trace: Vec<u8>,
    /// Violations from the baseline's own final audit (must be none).
    violations: Vec<String>,
}

fn clean_run(ops: &[FsOp], config: &HyrdConfig) -> CleanRun {
    let rig = Rig::traced();
    let switch = rig.fleet.crash_switch();
    let mut h =
        CrashHarness::new(&rig.fleet, config.clone(), rig.telemetry.clone()).expect("valid config");
    let setup_ops = switch.op_count();
    for op in ops {
        h.execute(op);
    }
    let (total_ops, point_hits) = (switch.op_count(), switch.point_hits());
    h.final_audit();
    let violations = h.violations().to_vec();
    CleanRun { setup_ops, total_ops, point_hits, trace: rig.trace(), violations }
}

/// Sums over a sweep's cells.
#[derive(Default)]
struct Agg {
    cells: usize,
    crashed: usize,
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
fn run_cell(ops: &[FsOp], config: &HyrdConfig, plan: CrashPlan, label: &str) -> Agg {
    let rig = Rig::untraced();
    let mut h =
        CrashHarness::new(&rig.fleet, config.clone(), rig.telemetry.clone()).expect("valid config");
    rig.fleet.crash_switch().arm(plan);
    for op in ops {
        if h.is_dead() {
            h.restart_and_audit();
        }
        h.execute(op);
    }
    h.final_audit();
    let (_, _, crashes) = h.tallies();
    let mut cell = Agg {
        cells: 1,
        crashed: usize::from(crashes > 0),
        restarts: h.restart_reports().len() as u64,
        violations: h.violations().iter().map(|v| format!("[{label}] {v}")).collect(),
        ..Agg::default()
    };
    for r in h.restart_reports() {
        cell.rolled_forward += r.intents_rolled_forward;
        cell.rolled_back += r.intents_rolled_back;
        cell.replicas_healed += r.replicas_healed;
        cell.orphans_removed += r.orphans_removed;
        cell.pending_pruned += r.pending_pruned;
        cell.torn_blocks += r.torn_blocks;
    }
    cell
}

/// Runs (label, plan) cells on `jobs` workers and sums them; the sum is
/// independent of `jobs`.
fn sweep(ops: &[FsOp], config: &HyrdConfig, plans: Vec<(String, CrashPlan)>, jobs: usize) -> Agg {
    let cells: Vec<_> = plans
        .into_iter()
        .map(|(label, plan)| move || run_cell(ops, config, plan, &label))
        .collect();
    let mut agg = Agg::default();
    for c in replay_sweep(cells, jobs) {
        agg.cells += c.cells;
        agg.crashed += c.crashed;
        agg.restarts += c.restarts;
        agg.rolled_forward += c.rolled_forward;
        agg.rolled_back += c.rolled_back;
        agg.replicas_healed += c.replicas_healed;
        agg.orphans_removed += c.orphans_removed;
        agg.pending_pruned += c.pending_pruned;
        agg.torn_blocks += c.torn_blocks;
        agg.violations.extend(c.violations);
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
    #[derive(Debug)]
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

pub(super) fn run(opts: &Options, p: Point) -> Outcome {
    let seed = opts.seed_or(SEED);
    let config = torture_config();
    let ops = exhaustive_ops(if opts.smoke { 14 } else { 24 });
    let clean = clean_run(&ops, &config);
    let plans = exhaustive_plans(&clean);
    let budget_cells = (clean.total_ops - clean.setup_ops) as usize;
    let point_cells = plans.len() - budget_cells;
    let mut agg = sweep(&ops, &config, plans, p.jobs);
    let mut violations: Vec<String> =
        clean.violations.iter().map(|v| format!("[clean] {v}")).collect();
    violations.append(&mut agg.violations);

    let mut ia = Agg::default();
    let (mut ia_trace_ops, mut ia_provider_ops) = (0, 0);
    if !opts.smoke {
        let ops = ia_ops(seed, 400, |s| s.clamp(512, 64 * 1024), 17);
        let clean = clean_run(&ops, &config);
        ia_trace_ops = ops.len();
        ia_provider_ops = clean.total_ops - clean.setup_ops;
        ia = sweep(&ops, &config, sampled_plans(&clean, seed, 16), p.jobs);
        violations.extend(clean.violations.iter().map(|v| format!("[ia clean] {v}")));
        violations.append(&mut ia.violations);
    }

    let total_violations = violations.len() as u64;
    violations.truncate(40); // keep the report readable; the count is full
    let r = TortureReport {
        seed,
        trace_ops: ops.len(),
        setup_ops: clean.setup_ops,
        trace_provider_ops: clean.total_ops - clean.setup_ops,
        clean_point_hits: clean.point_hits,
        clean_trace_records: records(&clean.trace, |_| {}),
        budget_cells,
        point_cells,
        cells_crashed: agg.crashed,
        cells_missed: agg.cells - agg.crashed,
        restarts: agg.restarts,
        intents_rolled_forward: agg.rolled_forward,
        intents_rolled_back: agg.rolled_back,
        replicas_healed: agg.replicas_healed,
        orphans_removed: agg.orphans_removed,
        pending_pruned: agg.pending_pruned,
        torn_blocks_seen: agg.torn_blocks,
        ia_ran: !opts.smoke,
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
    let summary = format!(
        "{} crash cells ({} exhaustive + {} IA-sampled), {} restarts, {} intents rolled forward, \
         {} rolled back, {} orphans GC'd, {} durability violations\n{}",
        r.cells_crashed + r.ia_cells_crashed,
        r.budget_cells + r.point_cells,
        r.ia_cells,
        r.restarts + r.ia_restarts,
        r.intents_rolled_forward + r.ia_intents_rolled_forward,
        r.intents_rolled_back + r.ia_intents_rolled_back,
        r.orphans_removed + r.ia_orphans_removed,
        r.total_violations,
        r.violations.iter().map(|v| format!("  {v}\n")).collect::<String>(),
    );
    let claims = vec![
        Claim::zero("durability_violations", r.total_violations),
        Claim::zero("cells_missed", r.cells_missed as u64),
    ];
    let report = json::to_string_pretty(&r);
    Outcome {
        files: vec![
            ("crash_torture.json".into(), report.clone().into()),
            ("crash_torture_trace.jsonl".into(), clean.trace.clone()),
        ],
        report,
        trace: clean.trace,
        claims,
        summary,
    }
}
