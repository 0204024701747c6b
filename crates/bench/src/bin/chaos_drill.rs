//! Chaos soak drill: a long, seeded fault schedule over the IA trace.
//!
//! Every provider gets a [`FaultPlan::chaos`] schedule (throttling
//! bursts, latency spikes, 3‰ wire corruption, 3‰ torn puts, quarterly
//! bit rot), one provider additionally suffers a full outage mid-drill,
//! and the replay interleaves periodic consistency updates and scrub
//! passes — the whole hardening stack under fire at once.
//!
//! The drill asserts the availability claim the hardening exists for:
//! **zero unrecoverable reads**. Transient read errors during bursts are
//! allowed (and reported); serving *wrong bytes*, or failing to produce a
//! file's bytes after the faults have cleared and recovery has run, is
//! not. Everything is derived from `--seed`, so the same seed produces a
//! byte-identical report AND a byte-identical telemetry trace — records
//! are stamped with the virtual clock only. `--selfcheck` proves both
//! in-process, re-runs the drill through the parallel sweep engine
//! (`--jobs N` worker threads) to show the results are byte-identical
//! no matter how many threads carry them, and runs one drill at a
//! *different* `--clients` count to show the trace is client-count
//! invariant (DESIGN.md §11).
//!
//! `--clients N` replays the drill as N closed-loop sessions sharing the
//! namespace through the deterministic multi-client engine — the fault
//! schedule now lands on concurrent sessions instead of one.
//!
//! `--crash` composes the chaos schedule with deterministic **client
//! crashes**: the drill runs through the crash harness, a seeded
//! [`CrashPlan`] kills the client at recurring op budgets (while
//! throttling bursts, corruption and the mid-drill outage stay live),
//! each death restarts from the crash journal, and the run ends with
//! the strict durability audit — zero violations required.
//!
//! `--migrate` enables the adaptive redundancy policy
//! ([`hyrd::policy`]) and runs a background migration pass at the scrub
//! cadence — files re-encode between replication and erasure coding
//! *while* the fault schedule, the mid-drill outage and the concurrent
//! sessions are live. The pass gates itself off while any provider is
//! down, so the drill also exercises the deterministic skip path. The
//! availability verdict is unchanged: zero unrecoverable reads, and the
//! report and trace stay byte-identical per seed.
//!
//! Usage: `chaos_drill [--ops N] [--seed S] [--smoke] [--selfcheck]
//! [--clients N] [--jobs N] [--trace PATH] [--obs PATH] [--crash]
//! [--migrate]`
//!
//! `--obs PATH` folds the drill's telemetry trace through the
//! availability observatory ([`hyrd::observatory`]) and writes the
//! rendered report (provider SLIs, redundancy exposure, read ledger).

use std::collections::BTreeMap;
use std::time::Duration;

use hyrd::crashtest::CrashHarness;
use hyrd::driver::ReplayOptions;
use hyrd::policy::MigrationReport;
use hyrd::prelude::*;
use hyrd::scrub::ScrubReport;
use hyrd::telemetry::{json, Collector, SharedBuf, SlowSpan};
use hyrd_bench::{header, write_json};
use hyrd_cloudsim::{CrashPlan, FaultPlan};
use hyrd_workloads::{FsOp, IaTrace};

const CHUNK: usize = 250;

/// SplitMix64 finalizer: the drill's own deterministic coin flips.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Clamps the archive's file-size mix to drill-friendly sizes while
/// keeping both tiers exercised: large files land in 1–2 MB (still
/// erasure-coded), small files keep their archive size (512 B – 1 MB).
fn drill_size(s: u64) -> u64 {
    const MB: u64 = 1 << 20;
    if s >= MB {
        MB + s % MB
    } else {
        s
    }
}

/// Builds the drill's op stream from the IA trace: the archive's
/// create/read interleave (month by month, looped), plus injected
/// in-place updates and a tail of deletes. Updates stay inside the first
/// 512 bytes so they are valid against even the smallest file.
fn build_ops(trace: &IaTrace, seed: u64, want: usize) -> Vec<FsOp> {
    let mut ops: Vec<FsOp> = Vec::with_capacity(want + 64);
    let mut created: Vec<String> = Vec::new();
    let mut round = 0u64;
    while ops.len() < want {
        let month = (round % 12) as usize;
        let day = trace.sample_day_ops(month, 2e-5, mix(seed, round));
        for op in day {
            match op {
                FsOp::Create { path, size } => {
                    // Rounds revisit months; prefix so paths stay unique.
                    let path = format!("/r{round:02}{path}");
                    created.push(path.clone());
                    ops.push(FsOp::Create { path, size: drill_size(size) });
                }
                FsOp::Read { path } => {
                    ops.push(FsOp::Read { path: format!("/r{round:02}{path}") });
                }
                other => ops.push(other),
            }
            let z = mix(seed ^ 0x55AA, ops.len() as u64);
            if z.is_multiple_of(19) && !created.is_empty() {
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
    // Tail deletes (~2% of the pool, most recent first): exercises the
    // Remove replay path without orphaning any later read.
    let del = (created.len() / 50).max(1);
    for path in created.iter().rev().take(del) {
        ops.push(FsOp::Delete { path: path.clone() });
    }
    ops
}

/// Deterministic migration bait woven into the `--migrate` drill: four
/// hot erasure-coded files re-read throughout the stream (promotion
/// candidates at `promote_reads = 3`) and four cold replicated files
/// above the demotion floor that are never touched again. The policy
/// must move both kinds while the fault schedule runs, and the replay's
/// read verification holds migrated files to the same
/// zero-wrong-bytes bar as everything else.
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
    #[derive(Debug, PartialEq)]
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
        // Background migration activity (`--migrate`; `None` when the
        // policy is off, so plain-drill reports keep their exact shape).
        migrations: Option<MigrationReport>,
        // The availability verdict.
        verify_failures_mid_drill: u64,
        final_sweep_files: usize,
        final_sweep_mismatches: u64,
        final_sweep_errors: u64,
        unrecoverable_reads: u64,
        // Per-session op counts (these legitimately vary with `--clients`;
        // everything above, and the trace, does not).
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
    #[derive(Debug, PartialEq)]
    struct TelemetrySection {
        /// Lines in the JSONL trace (spans, events, meta).
        trace_records: u64,
        /// The five slowest spans by virtual duration, flame path included.
        spans_top5: Vec<SlowSpan>,
        /// Provider operations issued, per provider.
        provider_ops: BTreeMap<String, u64>,
        /// Faults injected by the simulator, per provider.
        provider_faults: BTreeMap<String, u64>,
        /// Retry backoffs taken by the dispatcher, per provider.
        retry_backoffs: BTreeMap<String, u64>,
    }
}

/// The `--migrate` drill config: adaptive policy on, tuned so both
/// directions actually fire on the drill's file mix (the IA archive's
/// small files start at 512 B, so the demotion floor drops to 64 KiB).
fn migrate_config() -> HyrdConfig {
    let mut cfg = HyrdConfig::default();
    cfg.policy.enabled = true;
    cfg.policy.demote_idle = Duration::from_secs(60);
    cfg.policy.demote_min_bytes = 64 * 1024;
    cfg.policy.max_per_pass = 4;
    cfg
}

fn run_drill(
    seed: u64,
    ops_target: usize,
    clients: usize,
    migrate: bool,
) -> (ChaosReport, Vec<u8>) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let trace_buf = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(trace_buf.clone()).build();
    let config = if migrate { migrate_config() } else { HyrdConfig::default() };
    let h = Hyrd::with_telemetry(&fleet, config, telemetry.clone()).expect("valid default config");

    let trace = IaTrace::synthesize(seed);
    let mut ops = build_ops(&trace, seed, ops_target);
    if migrate {
        ops = weave_policy_pool(ops);
    }

    // Chaos schedules sized to the drill's rough virtual duration
    // (~1.5 s/op); per-provider seeds decorrelate the fault streams.
    let horizon = Duration::from_millis(ops.len() as u64 * 1500);
    for (idx, p) in fleet.providers().iter().enumerate() {
        p.set_fault_plan(FaultPlan::chaos(mix(seed, idx as u64 + 1), horizon));
    }

    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: telemetry.clone(),
        ..ReplayOptions::default()
    };
    let engine =
        MultiClient::new(&h, &clock, MultiClientOptions { clients, jobs: 1, replay: opts });
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
    let victim = fleet.by_name("Windows Azure").expect("standard fleet");

    let recover_available = |h: &Hyrd, recovery: &mut hyrd::RecoveryReport| {
        for p in fleet.providers() {
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
            recover_available(&h, &mut recovery);
        }
        let stats = engine.run_ops(chunk);
        replay_errors += stats.errors;
        verify_failures += stats.verify_failures;
        ops_replayed += chunk.len();

        // Periodic maintenance: drain logs/dirty fragments of whoever is
        // reachable, and scrub each quarter of the drill.
        if i % 8 == 7 {
            recover_available(&h, &mut recovery);
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
    for p in fleet.providers() {
        p.set_fault_plan(FaultPlan::quiet());
        p.restore();
    }
    recover_available(&h, &mut recovery);
    let (final_scrub, _) = h.scrub().expect("clean-state scrub");
    recover_available(&h, &mut recovery);

    let mut mismatches = 0u64;
    let mut sweep_errors = 0u64;
    let paths: Vec<String> = engine.expected_paths();
    for path in &paths {
        let want = engine.expected_content(path).expect("expected table has the path");
        match h.read_file(path) {
            Ok((got, _)) => {
                if got[..] != want[..] {
                    mismatches += 1;
                }
            }
            Err(_) => sweep_errors += 1,
        }
    }

    telemetry.flush();
    let trace = trace_buf.contents();
    let snapshot = telemetry.metrics();
    let telemetry_section = TelemetrySection {
        trace_records: trace.iter().filter(|b| **b == b'\n').count() as u64,
        spans_top5: telemetry.slowest_spans(5),
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
        virtual_hours: clock.now().as_secs_f64() / 3600.0,
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
        telemetry: telemetry_section,
    };
    (report, trace)
}

hyrd::telemetry::json_struct! {
    /// Everything one crash-mode drill measured. All scalars, so the same
    /// seed serializes byte-identically.
    #[derive(Debug, PartialEq)]
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

/// The chaos schedule with deterministic client deaths on top: the op
/// stream runs through the crash harness, a fresh op-budget kill point
/// is armed every ~90 ops, every death restarts from the crash journal
/// (mid-outage restarts skip GC by design), and the drill ends with the
/// strict final durability audit.
fn run_crash_drill(seed: u64, ops_target: usize) -> CrashDrillReport {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let mut h = CrashHarness::new(&fleet, HyrdConfig::default(), Collector::disabled())
        .expect("valid default config");
    // Faults are live: unreadable files retry at the next audit instead
    // of flagging immediately (the final audit is strict regardless).
    h.set_strict_reads(false);

    let trace = IaTrace::synthesize(seed);
    let ops = build_ops(&trace, seed, ops_target);
    let horizon = Duration::from_millis(ops.len() as u64 * 1500);
    for (idx, p) in fleet.providers().iter().enumerate() {
        p.set_fault_plan(FaultPlan::chaos(mix(seed, idx as u64 + 1), horizon));
    }

    let down_at = ops.len() * 2 / 5;
    let up_at = ops.len() * 3 / 5;
    let victim = fleet.by_name("Windows Azure").expect("standard fleet");
    let switch = fleet.crash_switch();

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

    // Faults end; the drill must come back to a clean, whole state.
    for p in fleet.providers() {
        p.set_fault_plan(FaultPlan::quiet());
        p.restore();
    }
    h.final_audit();

    let (acked, refused, crashes) = h.tallies();
    let mut report = CrashDrillReport {
        seed,
        ops_replayed: ops.len(),
        acked,
        refused,
        crashes,
        restarts: h.restart_reports().len() as u64,
        restarts_gc_skipped: 0,
        intents_rolled_forward: 0,
        intents_rolled_back: 0,
        replicas_healed: 0,
        orphans_removed: 0,
        pending_pruned: 0,
        torn_blocks_seen: 0,
        total_violations: h.violations().len() as u64,
        violations: h.violations().to_vec(),
    };
    for r in h.restart_reports() {
        report.restarts_gc_skipped += u64::from(r.gc_skipped);
        report.intents_rolled_forward += r.intents_rolled_forward;
        report.intents_rolled_back += r.intents_rolled_back;
        report.replicas_healed += r.replicas_healed;
        report.orphans_removed += r.orphans_removed;
        report.pending_pruned += r.pending_pruned;
        report.torn_blocks_seen += r.torn_blocks;
    }
    report.violations.truncate(40); // count stays full
    report
}

fn main() {
    let mut ops: usize = 10_000;
    let mut seed: u64 = 42;
    let mut selfcheck = false;
    let mut clients: usize = 1;
    let mut jobs: usize = 2;
    let mut trace_path: Option<String> = None;
    let mut obs_path: Option<String> = None;
    let mut crash = false;
    let mut migrate = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ops" => ops = args.next().expect("--ops N").parse().expect("numeric --ops"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("numeric --seed"),
            "--smoke" => ops = 1_200,
            "--selfcheck" => selfcheck = true,
            "--clients" => {
                clients = args.next().expect("--clients N").parse().expect("numeric --clients");
            }
            "--jobs" => jobs = args.next().expect("--jobs N").parse().expect("numeric --jobs"),
            "--trace" => trace_path = Some(args.next().expect("--trace PATH")),
            "--obs" => obs_path = Some(args.next().expect("--obs PATH")),
            "--crash" => crash = true,
            "--migrate" => migrate = true,
            other => panic!("unknown argument: {other}"),
        }
    }

    if crash {
        header(&format!("chaos crash drill: {ops} ops, seed {seed}"));
        let report = run_crash_drill(seed, ops);
        let body = json::to_string_pretty(&report);
        if selfcheck {
            let again = run_crash_drill(seed, ops);
            assert_eq!(report, again, "crash drill diverged between same-seed runs");
            println!("selfcheck: crash-mode report byte-identical across two runs ✓");
        }
        println!("{body}");
        write_json("chaos_crash_drill", &report);
        assert_eq!(
            report.total_violations,
            0,
            "durability violations under chaos + client crashes:\n{}",
            report.violations.join("\n")
        );
        println!(
            "survived: {} ops, {} client crashes, {} restarts ({} mid-outage, GC deferred), \
             {} intents rolled forward, {} rolled back, {} orphans GC'd — 0 durability violations",
            report.ops_replayed,
            report.crashes,
            report.restarts,
            report.restarts_gc_skipped,
            report.intents_rolled_forward,
            report.intents_rolled_back,
            report.orphans_removed,
        );
        return;
    }

    let policy = if migrate { ", adaptive policy on" } else { "" };
    header(&format!("chaos drill: {ops} ops, seed {seed}, {clients} client(s){policy}"));
    let (report, trace) = run_drill(seed, ops, clients, migrate);
    let body = json::to_string_pretty(&report);

    if selfcheck {
        // Two more drills through the parallel sweep engine at the
        // requested worker count: every swept report and trace must be
        // byte-identical to the inline run above — same-seed
        // repeatability and sweep-engine neutrality in one check.
        let cells: Vec<_> = (0..2)
            .map(|_| {
                move || {
                    let (r, t) = run_drill(seed, ops, clients, migrate);
                    (json::to_string_pretty(&r), t)
                }
            })
            .collect();
        for (i, (body_j, trace_j)) in replay_sweep(cells, jobs).into_iter().enumerate() {
            assert_eq!(body, body_j, "swept run {i} (jobs={jobs}) diverged from inline report");
            assert_eq!(trace, trace_j, "swept run {i} (jobs={jobs}) diverged from inline trace");
        }
        // One drill at a different session count: per-session tallies
        // differ, but the telemetry trace must not (DESIGN.md §11).
        let alt_clients = if clients == 1 { 4 } else { 1 };
        let (_, trace_alt) = run_drill(seed, ops, alt_clients, migrate);
        assert_eq!(
            trace, trace_alt,
            "trace diverged between --clients {clients} and {alt_clients}"
        );
        println!(
            "selfcheck: inline + 2 swept runs (jobs={jobs}) byte-identical, \
             trace invariant across --clients {clients}/{alt_clients} ✓"
        );
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, &trace).expect("write trace file");
        println!(
            "trace: {} records ({:.1} MB) -> {path}",
            report.telemetry.trace_records,
            trace.len() as f64 / 1e6
        );
    }

    if let Some(path) = &obs_path {
        let text = std::str::from_utf8(&trace).expect("trace is utf-8");
        let obs = hyrd::observatory::from_trace(text, jobs).expect("parse drill trace");
        let obs_report = obs.report();
        std::fs::write(path, obs_report.render()).expect("write observatory report");
        println!(
            "observatory: {} provider(s), {} exposed file(s), {:.3}s exposure -> {path}",
            obs_report.providers.len(),
            obs_report.files.len(),
            obs_report.total_exposure_ns() as f64 / 1e9
        );
    }

    println!("{body}");
    write_json("chaos_drill", &report);

    if let Some(m) = &report.migrations {
        println!(
            "migrations under fire: {} promoted, {} demoted, {} aborted, {} pass(es) skipped \
             while unhealthy, {:.1} MB rewritten",
            m.promoted,
            m.demoted,
            m.aborted,
            m.skipped_unhealthy,
            m.bytes_rewritten as f64 / 1e6,
        );
        assert!(
            m.promoted + m.demoted > 0,
            "--migrate drill performed no migrations — policy never fired"
        );
    }

    assert_eq!(
        report.unrecoverable_reads, 0,
        "the drill served wrong bytes or lost data — hardening regression"
    );
    println!(
        "survived: {} ops, {} transient errors masked, {} retries, {} breaker trips, \
         {} corruptions caught, {} scrub repairs — 0 unrecoverable reads",
        report.ops_replayed,
        report.replay_errors,
        report.retries,
        report.breaker_trips,
        report.corrupt_gets,
        report.drill_scrub.repaired + report.final_scrub.repaired,
    );
}
