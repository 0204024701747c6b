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
    let journal = Journal::recording();
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
/// idempotent, so a crash after a partially-applied replay is
/// always safe to redo from the journal's mirror.
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
            first.replay(provider.as_ref()).expect("first replay");
            assert!(first.pending_for(id).is_empty(), "replay drains the provider's records");
            let snap1 = provider.object_inventory(Fleet::CONTAINER);

            let mut second = log.clone();
            second.replay(provider.as_ref()).expect("second replay");
            let snap2 = provider.object_inventory(Fleet::CONTAINER);

            assert_eq!(snap1, snap2, "a second replay of the same log changes nothing");
        },
    );
}
