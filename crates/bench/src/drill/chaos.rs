//! The chaos drills: a long, seeded fault schedule over the IA trace.
//!
//! Every provider gets a [`FaultPlan::chaos`](hyrd_cloudsim::FaultPlan::chaos)
//! schedule (throttling bursts, latency spikes, 3‰ wire corruption, 3‰
//! torn puts, quarterly bit rot), Azure additionally suffers a full
//! outage from 2/5 to 3/5 of the drill, and the replay interleaves
//! periodic consistency updates and scrub passes — the whole hardening
//! stack under fire at once. The claim is the one the hardening exists
//! for: **zero unrecoverable reads**. Transient read errors during bursts
//! are allowed (and reported); serving wrong bytes, or failing to produce
//! a file's bytes after the faults have cleared and recovery has run, is
//! not.
//!
//! - `chaos` replays the drill as closed-loop sessions through the
//!   deterministic multi-client engine; its trace also goes through the
//!   observatory and the trace analysis (`obs_report.txt`,
//!   `trace_report.txt`).
//! - `chaos_migrate` turns the adaptive redundancy policy on and runs a
//!   background migration pass at the scrub cadence, while the faults,
//!   the outage and the sessions are live; the pass gates itself off
//!   while a provider is down. Migrations must fire.
//! - `chaos_crash` composes the schedule with deterministic client
//!   deaths: the ops run through the crash harness, a seeded op-budget
//!   kill point is armed every 90 ops, every death restarts from the
//!   crash journal, and the run ends with the strict durability audit —
//!   zero violations required.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::time::Duration;

use hyrd::crashtest::CrashHarness;
use hyrd::policy::MigrationReport;
use hyrd::prelude::*;
use hyrd::scrub::ScrubReport;
use hyrd::telemetry::{json, RecordRef};
use hyrd_cloudsim::CrashPlan;
use hyrd_workloads::FsOp;

use super::{analyse, ia_ops, mix, records, Claim, Options, Outcome, Point, Rig};

const SEED: u64 = 42;
/// Ops per engine call between maintenance steps.
const CHUNK: usize = 250;

fn ops_target(opts: &Options) -> usize {
    if opts.smoke {
        1_200
    } else {
        10_000
    }
}

/// Clamps the archive's file sizes so both tiers stay exercised: large
/// files land in 1–2 MB (still erasure-coded), small files keep their
/// archive size (512 B – 1 MB).
fn drill_size(s: u64) -> u64 {
    const MB: u64 = 1 << 20;
    if s >= MB {
        MB + s % MB
    } else {
        s
    }
}

/// Deterministic migration bait for `chaos_migrate`: four hot
/// erasure-coded files re-read throughout the stream (promotion
/// candidates at `promote_reads = 3`) and four cold replicated files
/// above the demotion floor that are never touched again.
fn weave_policy_pool(ops: Vec<FsOp>) -> Vec<FsOp> {
    const HOT: usize = 4;
    const COLD: usize = 4;
    let mut out = Vec::with_capacity(ops.len() + HOT + COLD + ops.len() / 25);
    for i in 0..HOT {
        out.push(FsOp::Create { path: format!("/pol/hot{i}"), size: 1536 * 1024 });
    }
    for i in 0..COLD {
        out.push(FsOp::Create { path: format!("/pol/cold{i}"), size: 256 * 1024 });
    }
    for (n, op) in ops.into_iter().enumerate() {
        out.push(op);
        if n % 25 == 24 {
            out.push(FsOp::Read { path: format!("/pol/hot{}", (n / 25) % HOT) });
        }
    }
    out
}

hyrd::telemetry::json_struct! {
    /// Everything one drill run measured. Field order is the JSON order; all
    /// collections are scalar, so same-seed runs serialize byte-identically.
    #[derive(Debug, Clone, PartialEq)]
    struct ChaosReport {
        seed: u64,
        clients: usize,
        ops_requested: usize,
        ops_replayed: usize,
        files_live: usize,
        virtual_hours: f64,
        // Replay-visible fault handling.
        replay_errors: u64,
        retries: u64,
        breaker_trips: u64,
        breaker_rejections: u64,
        corrupt_gets: u64,
        // Consistency updates (outage + periodic sweeps).
        recovery_puts_replayed: u64,
        recovery_removes_replayed: u64,
        recovery_bytes_restored: u64,
        // Scrub passes during the drill, then the final clean-state pass.
        drill_scrub: ScrubReport,
        final_scrub: ScrubReport,
        // Background migration activity (`chaos_migrate`; `None` when the
        // policy is off, so plain-drill reports keep their exact shape).
        migrations: Option<MigrationReport>,
        // The availability verdict.
        verify_failures_mid_drill: u64,
        final_sweep_files: usize,
        final_sweep_mismatches: u64,
        final_sweep_errors: u64,
        unrecoverable_reads: u64,
        // Per-session op counts (these legitimately vary with the client
        // count; everything above, and the trace, does not).
        session_ops: BTreeMap<String, u64>,
        // What the trace collector saw (virtual-clock data only, so this
        // section is as deterministic as the rest of the report).
        telemetry: TelemetrySection,
    }
}

hyrd::telemetry::json_struct! {
    /// Report section distilled from the telemetry collector. Only
    /// virtual-clock-derived values belong here: wall-clock histograms (e.g.
    /// `ec.encode_wall_ns`) stay out so same-seed reports stay byte-identical.
    #[derive(Debug, Clone, PartialEq)]
    struct TelemetrySection {
        /// Lines in the JSONL trace (spans, events, meta).
        trace_records: u64,
        /// The five slowest spans by virtual duration, path included.
        spans_top5: Vec<SlowSpan>,
        /// Provider operations issued, per provider.
        provider_ops: BTreeMap<String, u64>,
        /// Faults injected by the simulator, per provider.
        provider_faults: BTreeMap<String, u64>,
        /// Retry backoffs taken by the dispatcher, per provider.
        retry_backoffs: BTreeMap<String, u64>,
    }
}

hyrd::telemetry::json_struct! {
    /// One completed span of the trace, for the slowest-spans section.
    #[derive(Debug, Clone, PartialEq)]
    struct SlowSpan {
        /// The names of the span's ancestors and its own, root first,
        /// e.g. `read_file → fetch_fragment[aliyun]`.
        path: String,
        dur_ns: u64,
        /// Trace-clock timestamp of the span start, to locate it in the JSONL.
        start_ns: u64,
    }
}

/// Between the names of a [`SlowSpan::path`].
const PATH_SEP: &str = " → ";

/// The `k` slowest completed spans of a trace, folded record by record:
/// longest first, then earliest start, then path. A span's path is read
/// off its parent's while both are open, as the collector links them.
struct SlowestSpans {
    k: usize,
    /// Path and start of each open span.
    open: BTreeMap<u64, (String, u64)>,
    /// The slowest so far, in rank order; at most `k`.
    top: Vec<SlowSpan>,
}

impl SlowestSpans {
    fn new(k: usize) -> Self {
        SlowestSpans { k, open: BTreeMap::new(), top: Vec::with_capacity(k) }
    }

    fn fold(&mut self, rec: &RecordRef<'_>) {
        match *rec {
            RecordRef::SpanStart { id, parent, name, t, .. } => {
                let path = match parent.and_then(|p| self.open.get(&p)) {
                    Some((up, _)) => format!("{up}{PATH_SEP}{name}"),
                    None => name.to_string(),
                };
                self.open.insert(id, (path, t));
            }
            RecordRef::SpanEnd { id, dur_ns, .. } => {
                let Some((path, start_ns)) = self.open.remove(&id) else { return };
                let span = SlowSpan { path, dur_ns, start_ns };
                let at = self.top.partition_point(|s| slower(s, &span).is_le());
                if at < self.k {
                    self.top.truncate(self.k - 1);
                    self.top.insert(at, span);
                }
            }
            RecordRef::Meta { .. } | RecordRef::Event { .. } => {}
        }
    }
}

/// The slowest-spans order: `Less` when `a` ranks before `b`.
fn slower(a: &SlowSpan, b: &SlowSpan) -> Ordering {
    b.dur_ns.cmp(&a.dur_ns).then(a.start_ns.cmp(&b.start_ns)).then_with(|| a.path.cmp(&b.path))
}

/// The `chaos_migrate` config: adaptive policy on, tuned so both
/// directions fire on the drill's file mix (the IA archive's small files
/// start at 512 B, so the demotion floor drops to 64 KiB).
fn migrate_config() -> HyrdConfig {
    let mut cfg = HyrdConfig::default();
    cfg.policy.enabled = true;
    cfg.policy.demote_idle = Duration::from_secs(60);
    cfg.policy.demote_min_bytes = 64 * 1024;
    cfg.policy.max_per_pass = 4;
    cfg
}

fn run_drill(seed: u64, ops_target: usize, p: Point, migrate: bool) -> (ChaosReport, Vec<u8>) {
    let rig = Rig::traced();
    let config = if migrate { migrate_config() } else { HyrdConfig::default() };
    let h = Hyrd::with_telemetry(&rig.fleet, config, rig.telemetry.clone())
        .expect("valid default config");
    let mut ops = ia_ops(seed, ops_target, drill_size, 19);
    if migrate {
        ops = weave_policy_pool(ops);
    }
    rig.chaos(seed, ops.len());

    let engine = MultiClient::new(
        &h,
        &rig.clock,
        MultiClientOptions { clients: p.clients, jobs: p.jobs, replay: rig.replay_options() },
    );
    let mut replay_errors = 0u64;
    let mut verify_failures = 0u64;
    let mut ops_replayed = 0usize;
    let mut recovery = hyrd::RecoveryReport::default();
    let mut drill_scrub = ScrubReport::default();
    let mut drill_migrations = migrate.then(MigrationReport::default);

    let chunks: Vec<&[FsOp]> = ops.chunks(CHUNK).collect();
    let n_chunks = chunks.len();
    let down_at = n_chunks * 2 / 5;
    let up_at = n_chunks * 3 / 5;
    let scrub_every = (n_chunks / 4).max(1);
    let victim = rig.fleet.by_name("Windows Azure").expect("standard fleet");

    let recover_available = |recovery: &mut hyrd::RecoveryReport| {
        for p in rig.fleet.providers() {
            if p.is_available() {
                if let Ok((r, _)) = h.recover_provider(p.id()) {
                    recovery.puts_replayed += r.puts_replayed;
                    recovery.removes_replayed += r.removes_replayed;
                    recovery.bytes_restored += r.bytes_restored;
                }
            }
        }
    };

    for (i, chunk) in chunks.iter().enumerate() {
        if i == down_at {
            victim.force_down();
        }
        if i == up_at {
            victim.restore();
            recover_available(&mut recovery);
        }
        let stats = engine.run_ops(chunk);
        replay_errors += stats.errors;
        verify_failures += stats.verify_failures;
        ops_replayed += chunk.len();

        // Periodic maintenance: drain logs/dirty fragments of whoever is
        // reachable, and scrub each quarter of the drill.
        if i % 8 == 7 {
            recover_available(&mut recovery);
        }
        if i % scrub_every == scrub_every - 1 {
            let (s, _) = h.scrub().expect("scrub runs");
            drill_scrub.absorb(s);
            // Background migration rides the scrub cadence; the pass
            // skips itself (and says so in the report) while the victim
            // is down, so the schedule stays deterministic.
            if let Some(total) = drill_migrations.as_mut() {
                let (m, _) = h.migrate_pass().expect("migrate pass runs");
                total.absorb(m);
            }
        }
    }

    // Faults end; the system gets its recovery pass, then must be whole.
    rig.calm();
    recover_available(&mut recovery);
    let (final_scrub, _) = h.scrub().expect("clean-state scrub");
    recover_available(&mut recovery);

    let mut mismatches = 0u64;
    let mut sweep_errors = 0u64;
    let paths: Vec<String> = engine.expected_paths();
    for path in &paths {
        let want = engine.expected_content(path).expect("expected table has the path");
        match h.read_file(path) {
            Ok((got, _)) => mismatches += u64::from(got[..] != want[..]),
            Err(_) => sweep_errors += 1,
        }
    }

    let trace = rig.trace();
    let snapshot = rig.telemetry.metrics();
    let mut slowest = SlowestSpans::new(5);
    let telemetry = TelemetrySection {
        trace_records: records(&trace, |r| slowest.fold(r)),
        spans_top5: slowest.top,
        provider_ops: snapshot.counters_labeled("provider.ops").into_iter().collect(),
        provider_faults: snapshot.counters_labeled("provider.faults").into_iter().collect(),
        retry_backoffs: snapshot.counters_labeled("retry.backoffs").into_iter().collect(),
    };

    let counters = h.fault_counters();
    let unrecoverable = verify_failures + mismatches + sweep_errors + final_scrub.unrecoverable;
    let report = ChaosReport {
        seed,
        clients: engine.options().clients.max(1),
        ops_requested: ops_target,
        ops_replayed,
        files_live: engine.live_files(),
        virtual_hours: rig.clock.now().as_secs_f64() / 3600.0,
        replay_errors,
        retries: counters.retries,
        breaker_trips: h.health().trips(),
        breaker_rejections: counters.breaker_rejections,
        corrupt_gets: counters.corrupt_gets,
        recovery_puts_replayed: recovery.puts_replayed,
        recovery_removes_replayed: recovery.removes_replayed,
        recovery_bytes_restored: recovery.bytes_restored,
        drill_scrub,
        final_scrub,
        migrations: drill_migrations,
        verify_failures_mid_drill: verify_failures,
        final_sweep_files: paths.len(),
        final_sweep_mismatches: mismatches,
        final_sweep_errors: sweep_errors,
        unrecoverable_reads: unrecoverable,
        session_ops: engine.sessions().iter().map(|s| (s.label.clone(), s.ops)).collect(),
        telemetry,
    };
    (report, trace)
}

/// `chaos` and `chaos_migrate`: the drill, its claims and its files.
fn outcome(opts: &Options, p: Point, migrate: bool) -> Outcome {
    let (report, trace) = run_drill(opts.seed_or(SEED), ops_target(opts), p, migrate);
    // The client count may show only in these two fields.
    let invariant = ChaosReport { clients: 0, session_ops: BTreeMap::new(), ..report.clone() };
    let mut claims = vec![Claim::zero("unrecoverable_reads", report.unrecoverable_reads)];
    let mut summary = format!(
        "survived: {} ops, {} transient errors masked, {} retries, {} breaker trips, \
         {} corruptions caught, {} scrub repairs, {} unrecoverable reads\n",
        report.ops_replayed,
        report.replay_errors,
        report.retries,
        report.breaker_trips,
        report.corrupt_gets,
        report.drill_scrub.repaired + report.final_scrub.repaired,
        report.unrecoverable_reads,
    );
    let name = if migrate { "chaos_migrate" } else { "chaos" };
    let mut files = vec![(format!("{name}_drill.json"), json::to_string_pretty(&report).into())];
    if let Some(m) = &report.migrations {
        summary += &format!(
            "migrations under fire: {} promoted, {} demoted, {} aborted, {} pass(es) skipped \
             while unhealthy, {:.1} MB rewritten\n",
            m.promoted,
            m.demoted,
            m.aborted,
            m.skipped_unhealthy,
            m.bytes_rewritten as f64 / 1e6,
        );
        claims.push(Claim::new(
            "migrations_fired",
            m.promoted + m.demoted > 0,
            m.promoted + m.demoted,
        ));
    } else {
        let analysis = analyse(&trace, &mut claims);
        files.push(("obs_report.txt".into(), analysis.observatory.into()));
        files.push(("trace_report.txt".into(), analysis.text.into()));
    }
    files.push((format!("{name}_trace.jsonl"), trace.clone()));
    Outcome { report: json::to_string_pretty(&invariant), trace, files, claims, summary }
}

pub(super) fn chaos(opts: &Options, p: Point) -> Outcome {
    outcome(opts, p, false)
}

pub(super) fn migrate(opts: &Options, p: Point) -> Outcome {
    outcome(opts, p, true)
}

hyrd::telemetry::json_struct! {
    /// Everything one crash-mode drill measured. All scalars, so the same
    /// seed serializes byte-identically.
    #[derive(Debug, Default)]
    struct CrashDrillReport {
        seed: u64,
        ops_replayed: usize,
        acked: u64,
        refused: u64,
        crashes: u64,
        restarts: u64,
        restarts_gc_skipped: u64,
        intents_rolled_forward: u64,
        intents_rolled_back: u64,
        replicas_healed: u64,
        orphans_removed: u64,
        pending_pruned: u64,
        torn_blocks_seen: u64,
        total_violations: u64,
        violations: Vec<String>,
    }
}

/// `chaos_crash`: the ops run through the crash harness, a fresh
/// op-budget kill point is armed every 90 ops, every death restarts from
/// the crash journal (mid-outage restarts skip GC by design), and the
/// drill ends with the strict final durability audit.
pub(super) fn crash(opts: &Options, _: Point) -> Outcome {
    let seed = opts.seed_or(SEED);
    let rig = Rig::untraced();
    let mut h = CrashHarness::new(&rig.fleet, HyrdConfig::default(), rig.telemetry.clone())
        .expect("valid default config");
    // Faults are live: unreadable files retry at the next audit instead
    // of flagging immediately (the final audit is strict regardless).
    h.set_strict_reads(false);
    let ops = ia_ops(seed, ops_target(opts), drill_size, 19);
    rig.chaos(seed, ops.len());

    let down_at = ops.len() * 2 / 5;
    let up_at = ops.len() * 3 / 5;
    let victim = rig.fleet.by_name("Windows Azure").expect("standard fleet");
    let switch = rig.fleet.crash_switch();
    for (i, op) in ops.iter().enumerate() {
        if i == down_at {
            victim.force_down();
        }
        if i == up_at {
            victim.restore();
            h.recover_all();
        }
        if h.is_dead() {
            h.restart_and_audit();
        }
        // Arm after any restart (restarting disarms the switch): the
        // next death lands somewhere in the following ~200 provider ops.
        if i % 90 == 0 {
            let delta = 1 + mix(seed ^ 0xDEAD_BEEF, i as u64) % 200;
            switch.arm(CrashPlan::at_op(switch.op_count() + delta));
        }
        h.execute(op);
    }
    rig.calm();
    h.final_audit();

    let (acked, refused, crashes) = h.tallies();
    let mut r = CrashDrillReport {
        seed,
        ops_replayed: ops.len(),
        acked,
        refused,
        crashes,
        restarts: h.restart_reports().len() as u64,
        total_violations: h.violations().len() as u64,
        violations: h.violations().to_vec(),
        ..CrashDrillReport::default()
    };
    for restart in h.restart_reports() {
        r.restarts_gc_skipped += u64::from(restart.gc_skipped);
        r.intents_rolled_forward += restart.intents_rolled_forward;
        r.intents_rolled_back += restart.intents_rolled_back;
        r.replicas_healed += restart.replicas_healed;
        r.orphans_removed += restart.orphans_removed;
        r.pending_pruned += restart.pending_pruned;
        r.torn_blocks_seen += restart.torn_blocks;
    }
    r.violations.truncate(40); // the count stays full
    let summary = format!(
        "{} ops, {} client crashes, {} restarts ({} mid-outage, GC deferred), {} intents rolled \
         forward, {} rolled back, {} orphans GC'd, {} durability violations\n{}",
        r.ops_replayed,
        r.crashes,
        r.restarts,
        r.restarts_gc_skipped,
        r.intents_rolled_forward,
        r.intents_rolled_back,
        r.orphans_removed,
        r.total_violations,
        r.violations.iter().map(|v| format!("  {v}\n")).collect::<String>(),
    );
    let report = json::to_string_pretty(&r);
    Outcome {
        files: vec![("chaos_crash_drill.json".into(), report.clone().into())],
        report,
        claims: vec![Claim::zero("durability_violations", r.total_violations)],
        summary,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd::telemetry::{Collector, ManualClock, SharedBuf, SpanGuard};
    use hyrd_testkit::{check, Gen};
    use std::sync::Arc;

    /// What a script does to a collector.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Open a span with this name inside the innermost open one.
        Open(&'static str),
        /// Move the clock; 0 ties the next start or end with the last.
        Advance(u64),
        /// Drop the guard of the open span at this index modulo their
        /// count: out of order unless it is the innermost.
        Close(usize),
    }

    fn script(g: &mut Gen) -> (usize, Vec<Step>) {
        let names = ["read_file", "fetch_fragment[aliyun]", "ec.decode", "a → b"];
        let steps = g.vec(0..80, |g| match g.weighted(&[3, 2, 3]) {
            0 => Step::Open(g.pick(&names)),
            1 => Step::Advance(g.range(0..4u64)),
            _ => Step::Close(g.range(0..8usize)),
        });
        (g.range(0..8usize), steps)
    }

    #[test]
    fn slow_span_ordering_is_total() {
        let span = |path: &str, dur_ns, start_ns| SlowSpan { path: path.into(), dur_ns, start_ns };
        let (a, b, c, d) = (span("a", 10, 5), span("b", 10, 3), span("c", 99, 9), span("a", 10, 3));
        let mut v = vec![a.clone(), b.clone(), c.clone(), d.clone()];
        v.sort_by(slower);
        assert_eq!(v, [c, d, b, a]);
    }

    #[test]
    fn top_k_fold_matches_a_sort_of_every_closed_span() {
        check(256, script, |(k, steps)| {
            let clock = Arc::new(ManualClock::new());
            let buf = SharedBuf::new();
            let c = Collector::builder(clock.clone()).jsonl(buf.clone()).build();
            // The model: open spans with their guard, path and start, in
            // the order they opened (the collector's parent is the last).
            let mut open: Vec<(SpanGuard, String, u64)> = Vec::new();
            let mut closed: Vec<SlowSpan> = Vec::new();
            for step in steps {
                let now = c.now_nanos().unwrap();
                match step {
                    Step::Open(name) => {
                        let path = match open.last() {
                            Some((_, up, _)) => format!("{up}{PATH_SEP}{name}"),
                            None => name.to_string(),
                        };
                        open.push((c.span(name), path, now));
                    }
                    Step::Advance(ns) => clock.advance(ns),
                    Step::Close(_) if open.is_empty() => {}
                    Step::Close(i) => {
                        let (guard, path, start_ns) = open.remove(i % open.len());
                        drop(guard);
                        closed.push(SlowSpan { path, dur_ns: now - start_ns, start_ns });
                    }
                }
            }
            // What is still open stays out of the trace's ranking.
            c.flush();
            let trace = buf.contents();
            drop(open);

            let mut fold = SlowestSpans::new(k);
            let n = records(&trace, |r| fold.fold(r));
            assert!(n as usize > closed.len());
            closed.sort_by(slower);
            closed.truncate(k);
            assert_eq!(fold.top, closed);
        });
    }
}
