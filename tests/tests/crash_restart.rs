//! Crash-restart durability: deterministic crash injection, journal
//! replay, write-ahead ordering, torn-metadata fallback and recovery-log
//! idempotence (DESIGN.md §12).

use bytes::Bytes;
use hyrd_testkit::check;

use hyrd::crashtest::{CrashHarness, OpOutcome};
use hyrd::driver::synth_content;
use hyrd::journal::Journal;
use hyrd::prelude::*;
use hyrd::recovery::UpdateLog;
use hyrd::telemetry::Collector;
use hyrd_cloudsim::CrashPlan;
use hyrd_gcsapi::ObjectKey;
use hyrd_metastore::{MetadataBlock, NormPath};
use hyrd_workloads::FsOp;

use integration_tests::fresh_fleet;

/// Small threshold so modest files exercise the erasure-coded path.
fn small_config() -> HyrdConfig {
    HyrdConfig {
        threshold: 4 * 1024,
        probe_bytes: 4 * 1024,
        hot_read_threshold: Some(2),
        ..HyrdConfig::default()
    }
}

fn harness(config: HyrdConfig) -> (Fleet, CrashHarness) {
    let (_clock, fleet) = fresh_fleet();
    let h = CrashHarness::new(&fleet, config, Collector::disabled()).expect("harness builds");
    (fleet, h)
}

fn create(path: &str, size: u64) -> FsOp {
    FsOp::Create { path: path.to_string(), size }
}

fn update(path: &str, offset: u64, len: u64) -> FsOp {
    FsOp::Update { path: path.to_string(), offset, len }
}

/// A small trace covering both redundancy classes and every mutation
/// kind: replicated create/update/delete, EC create and RMW update,
/// reads past the hot-copy threshold, and a directory listing.
fn mixed_trace() -> Vec<FsOp> {
    vec![
        create("/t/small.txt", 2 * 1024),
        create("/t/big.bin", 16 * 1024),
        update("/t/small.txt", 100, 200),
        update("/t/big.bin", 1000, 3000),
        FsOp::Read { path: "/t/big.bin".to_string() },
        FsOp::Read { path: "/t/big.bin".to_string() },
        FsOp::Delete { path: "/t/small.txt".to_string() },
        FsOp::ListDir { path: "/t".to_string() },
    ]
}

fn run_trace(h: &mut CrashHarness, ops: &[FsOp]) {
    for op in ops {
        if h.is_dead() {
            h.restart_and_audit();
        }
        h.execute(op);
    }
}

/// Write-ahead ordering (regression): a crash *after* the intent is
/// journaled but *before* the first provider put must roll the create
/// back to a clean absence — no half-written objects, no metadata entry.
#[test]
fn crash_between_intent_append_and_first_put_rolls_back() {
    let (fleet, mut h) = harness(small_config());
    fleet.crash_switch().arm(CrashPlan::at_point("wal.append.post", 1));

    let outcome = h.execute(&create("/w/first.dat", 2 * 1024));
    assert_eq!(outcome, OpOutcome::Crashed, "crashpoint must fire on the first create");

    let report = h.restart_and_audit();
    assert_eq!(report.intents_rolled_back, 1, "the create intent rolls back");
    assert_eq!(report.intents_rolled_forward, 0);
    assert_eq!(h.oracle_len(), 0, "the unacked file must not exist");

    h.final_audit();
    assert_eq!(h.violations(), &[] as &[String]);
}

/// A crash *before* the intent append leaves no trace at all: restart
/// finds nothing to resolve.
#[test]
fn crash_before_intent_append_leaves_no_trace() {
    let (fleet, mut h) = harness(small_config());
    fleet.crash_switch().arm(CrashPlan::at_point("wal.append.pre", 1));

    let outcome = h.execute(&create("/w/never.dat", 2 * 1024));
    assert_eq!(outcome, OpOutcome::Crashed);

    let report = h.restart_and_audit();
    assert_eq!(report.intents_rolled_back, 0);
    assert_eq!(report.intents_rolled_forward, 0);

    h.final_audit();
    assert_eq!(h.violations(), &[] as &[String]);
}

/// A crash inside the metadata flush of a later op must not disturb
/// files acked before it.
#[test]
fn crash_during_metadata_flush_preserves_acked_files() {
    let (fleet, mut h) = harness(small_config());

    let first = create("/m/kept.txt", 2 * 1024);
    assert_eq!(h.execute(&first), OpOutcome::Acked);

    // Arm after the first op: its flush already consumed hit #1, and
    // the plan fires on `hits >= 1`, so the very next `meta.flush.pre`
    // — inside the second create — kills the client.
    fleet.crash_switch().arm(CrashPlan::at_point("meta.flush.pre", 1));
    let outcome = h.execute(&create("/m/inflight.txt", 2 * 1024));
    assert_eq!(outcome, OpOutcome::Crashed);

    h.final_audit();
    assert_eq!(h.violations(), &[] as &[String]);
    assert!(h.oracle_len() >= 1, "the acked file survives the crash");
}

/// The exhaustive sweep in miniature: crash at *every* provider-op
/// budget across a mixed trace; every cell must restart to a state with
/// zero durability violations.
#[test]
fn exhaustive_op_budget_sweep_is_violation_free() {
    let ops = mixed_trace();

    // Clean run: measure the trace's provider-op span [start+1, end].
    let (fleet, mut clean) = harness(small_config());
    let start = fleet.crash_switch().op_count();
    run_trace(&mut clean, &ops);
    let end = fleet.crash_switch().op_count();
    clean.final_audit();
    assert_eq!(clean.violations(), &[] as &[String], "clean run must be violation-free");
    assert!(end > start, "the trace must issue provider ops");

    for budget in (start + 1)..=end {
        let (fleet, mut h) = harness(small_config());
        fleet.crash_switch().arm(CrashPlan::at_op(budget));
        run_trace(&mut h, &ops);
        h.final_audit();
        assert_eq!(
            h.violations(),
            &[] as &[String],
            "durability violation with a crash at provider op {budget}"
        );
    }
}

/// One step of the outage trace: a file op, or the fleet's outage and
/// its recovery.
enum Step {
    Op(FsOp),
    Down,
    Up,
    Recover,
}

/// Two files, then provider `down` out while both are updated, a file
/// is created and deleted again; the provider returns, recovery runs and
/// the big file is read. The outage leaves whole-object and window
/// records in the log, so crashes land on a live recovery state — with
/// windows pending, and in the middle of their replay.
fn outage_trace() -> Vec<Step> {
    vec![
        Step::Op(create("/o/small.txt", 2 * 1024)),
        Step::Op(create("/o/big.bin", 16 * 1024)),
        Step::Down,
        Step::Op(update("/o/big.bin", 1000, 3000)),
        Step::Op(update("/o/big.bin", 9000, 500)),
        Step::Op(update("/o/small.txt", 100, 200)),
        Step::Op(create("/o/late.dat", 6 * 1024)),
        Step::Op(FsOp::Delete { path: "/o/late.dat".to_string() }),
        Step::Up,
        Step::Recover,
        Step::Op(FsOp::Read { path: "/o/big.bin".to_string() }),
    ]
}

/// Runs the outage trace with provider `down` out, restarting (with
/// relaxed audit reads) whenever the client is dead.
fn run_outage(fleet: &Fleet, h: &mut CrashHarness, down: usize) {
    h.set_strict_reads(false);
    for step in outage_trace() {
        if h.is_dead() {
            h.restart_and_audit();
        }
        match step {
            Step::Op(op) => {
                h.execute(&op);
            }
            Step::Down => fleet.providers()[down].force_down(),
            Step::Up => fleet.providers()[down].restore(),
            Step::Recover => h.recover_all(),
        }
    }
}

/// The crash sweep over an outage: with each provider in turn taken
/// down, crash at every provider-op budget and at every (crashpoint,
/// hit) the clean run counts — while the recovery log holds records —
/// and every cell must restart to zero violations.
#[test]
fn outage_crash_sweep_is_violation_free() {
    let mut cells = 0;
    let mut failures = Vec::new();
    for down in 0..4 {
        let (fleet, mut clean) = harness(small_config());
        let switch = fleet.crash_switch();
        let start = switch.op_count();
        run_outage(&fleet, &mut clean, down);
        let (end, hits) = (switch.op_count(), switch.point_hits());
        clean.final_audit();
        assert_eq!(clean.violations(), &[] as &[String], "clean run, provider {down} down");
        let mut plans: Vec<(String, CrashPlan)> =
            ((start + 1)..=end).map(|b| (format!("op {b}"), CrashPlan::at_op(b))).collect();
        for (name, n) in hits {
            plans.extend((1..=n).map(|k| (format!("{name}#{k}"), CrashPlan::at_point(&name, k))));
        }
        for (label, plan) in plans {
            let (fleet, mut h) = harness(small_config());
            fleet.crash_switch().arm(plan);
            run_outage(&fleet, &mut h, down);
            h.final_audit();
            cells += 1;
            let mut found = h.violations().to_vec();
            if h.tallies().2 == 0 {
                found.push("never crashed".to_string());
            }
            if !found.is_empty() {
                failures.push(format!("provider {down} down, {label}: {}", found.join("; ")));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cells} cells fail:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Restart is idempotent: a second restart directly after the first has
/// nothing left to resolve — no intents, no orphans, no pruned records.
#[test]
fn second_restart_resolves_nothing() {
    let (fleet, mut h) = harness(small_config());
    assert_eq!(h.execute(&create("/i/a.txt", 2 * 1024)), OpOutcome::Acked);
    assert_eq!(h.execute(&create("/i/b.bin", 16 * 1024)), OpOutcome::Acked);

    // Die two provider ops into the next update.
    fleet.crash_switch().arm(CrashPlan::at_op(fleet.crash_switch().op_count() + 2));
    assert_eq!(h.execute(&update("/i/a.txt", 0, 512)), OpOutcome::Crashed);

    h.restart_and_audit();
    let second = h.restart_and_audit();
    assert_eq!(second.intents_rolled_forward, 0, "no intent survives the first restart");
    assert_eq!(second.intents_rolled_back, 0);
    assert_eq!(second.orphans_removed, 0, "the first restart's GC left no orphans");
    assert_eq!(second.pending_pruned, 0);
    assert_eq!(second.blocks_lost, 0);

    h.final_audit();
    assert_eq!(h.violations(), &[] as &[String]);
}

/// Corrupts one stored replica of a directory's metadata block and
/// returns how many replicas were rewritten (expected: exactly one).
fn corrupt_one_meta_replica(fleet: &Fleet, dir: &str, mutate: impl Fn(&mut Vec<u8>)) -> usize {
    let name = MetadataBlock::object_name(&NormPath::parse(dir).expect("valid dir"));
    let key = ObjectKey::new("hyrd", &name);
    for p in fleet.providers() {
        if let Ok(out) = p.get(&key) {
            let mut bytes = out.value.to_vec();
            mutate(&mut bytes);
            p.put(&key, Bytes::from(bytes)).expect("rewrite replica");
            return 1;
        }
    }
    0
}

fn torn_replica_round_trip(mutate: impl Fn(&mut Vec<u8>)) {
    let (_clock, fleet) = fresh_fleet();
    let config = small_config();
    let journal = Journal::new();
    let client = Hyrd::with_journal(&fleet, config.clone(), Collector::disabled(), journal.clone())
        .expect("client builds");

    let a = synth_content("/docs/a.txt", 0, 2048);
    let b = synth_content("/docs/b.txt", 0, 1024);
    client.create_file("/docs/a.txt", &a).unwrap();
    client.create_file("/docs/b.txt", &b).unwrap();
    drop(client);

    assert_eq!(corrupt_one_meta_replica(&fleet, "/docs", mutate), 1, "no replica found");

    let (restored, report) =
        Hyrd::restart(&fleet, config, Collector::disabled(), journal).expect("restart succeeds");
    assert!(report.torn_blocks >= 1, "the corrupted replica must be detected as torn");
    assert_eq!(report.blocks_lost, 0, "the intact replica carries the block");
    assert!(report.replicas_healed >= 1, "the torn replica is rewritten from the winner");

    let (got_a, _) = restored.read_file("/docs/a.txt").expect("a readable");
    let (got_b, _) = restored.read_file("/docs/b.txt").expect("b readable");
    assert_eq!(&got_a[..], a.as_slice());
    assert_eq!(&got_b[..], b.as_slice());
}

/// A bit-flipped metadata replica fails its checksum; restart falls back
/// to the intact replica and heals the torn one.
#[test]
fn bit_flipped_metadata_replica_falls_back_to_intact_copy() {
    torn_replica_round_trip(|bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
    });
}

/// A truncated metadata replica fails its length check; same fallback.
#[test]
fn truncated_metadata_replica_falls_back_to_intact_copy() {
    torn_replica_round_trip(|bytes| {
        bytes.truncate(bytes.len() / 2);
    });
}

/// Replaying the same (compacted) recovery log twice produces the
/// same provider inventory as replaying it once: replay is
/// idempotent, so a crash mid-replay, which leaves the journal's log
/// whole (records leave only once every one has landed), is always safe
/// to redo from that log.
#[test]
fn recovery_log_replay_is_idempotent() {
    check(
        24,
        |g| g.vec(1..24, |g| (g.bool(), g.range(0u8..6), g.range(1u16..512))),
        |ops| {
            let (_clock, fleet) = fresh_fleet();
            let provider = &fleet.providers()[0];
            let id = provider.id();

            let mut log = UpdateLog::new();
            for (is_put, name_idx, len) in &ops {
                let key = ObjectKey::new("hyrd", format!("obj-{name_idx}"));
                if *is_put {
                    log.log_put(id, key, Bytes::from(vec![*name_idx; *len as usize]));
                } else {
                    log.log_remove(id, key);
                }
            }

            let mut first = log.clone();
            first.replay(provider.as_ref(), &Collector::disabled()).expect("first replay");
            assert!(first.pending_for(id).is_empty(), "replay drains the provider's records");
            let snap1 = provider.object_inventory(Fleet::CONTAINER);

            let mut second = log.clone();
            second.replay(provider.as_ref(), &Collector::disabled()).expect("second replay");
            let snap2 = provider.object_inventory(Fleet::CONTAINER);

            assert_eq!(snap1, snap2, "a second replay of the same log changes nothing");
        },
    );
}

/// The lost window through `Hyrd`: the client dies after planning an
/// erasure-coded update and before its first range write; the restart
/// rolls the update forward while both providers it writes (data
/// fragment 0 and the parity fragment) are down, so no survivor holds
/// the new window. The roll-forward logs both windows; once the
/// providers return and are recovered, the file holds the update's
/// bytes.
#[test]
fn a_rolled_forward_window_missed_by_a_fragment_and_its_parity_is_not_lost() {
    let (_clock, fleet) = fresh_fleet();
    // Metadata on every provider, so the namespace loads with two down.
    let config = HyrdConfig { replication_level: 4, ..HyrdConfig::default() };
    let journal = Journal::new();
    let client =
        Hyrd::with_journal(&fleet, config.clone(), Collector::disabled(), journal.clone()).unwrap();
    let content = synth_content("/big", 0, 3 << 20);
    client.create_file("/big", &content).unwrap();
    let holder = |i: usize| {
        let name = format!("{}.f{i}", hyrd::scheme::object_name("/big"));
        let found = fleet.providers().iter().find(|p| {
            p.object_inventory(Fleet::CONTAINER).iter().any(|(object, _)| *object == name)
        });
        found.expect("every fragment is stored").clone()
    };
    let patch = synth_content("/big", 1, 4096);
    fleet.crash_switch().arm(CrashPlan::at_point("wal.amend.post", 1));
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        client.update_file("/big", 100, &patch)
    }));
    assert!(died.is_err(), "the client dies between planning and writing");
    drop(client);
    fleet.crash_switch().reset();

    let (data0, parity) = (holder(0), holder(3));
    data0.force_down();
    parity.force_down();
    let (restarted, report) =
        Hyrd::restart(&fleet, config, Collector::disabled(), journal).unwrap();
    assert_eq!(report.intents_rolled_forward, 1, "{report:?}");
    assert_eq!(restarted.pending_dirty_fragments(), 2, "both windows are logged");
    data0.restore();
    parity.restore();
    restarted.recover_provider(data0.id()).unwrap();
    restarted.recover_provider(parity.id()).unwrap();

    let mut want = content.clone();
    want[100..100 + patch.len()].copy_from_slice(&patch);
    assert_eq!(restarted.pending_log_len(), 0);
    let (got, _) = restarted.read_file("/big").unwrap();
    assert!(got[..] == want[..], "the file holds the update's bytes");
}
