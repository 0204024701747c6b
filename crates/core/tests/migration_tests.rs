//! Crash-consistency and concurrency tests for the background migrator
//! ([`hyrd::policy`], DESIGN.md §16).
//!
//! The migration commit protocol (journal intent → publish new objects
//! → OCC metadata flip → durable flush → GC old objects) claims that a
//! client death at *any* point leaves the file either fully on its old
//! placement or fully on its new one — never torn, never orphaned.
//! These tests kill the client at each named crashpoint via the
//! deterministic [`CrashPlan`] switch and hold the restarted client to
//! the strict durability audit, then drive the migrator concurrently
//! with readers to show migration is invisible to the read path.

use std::time::Duration;

use hyrd_testkit::check;

use hyrd::config::HyrdConfig;
use hyrd::crashtest::CrashHarness;
use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd::telemetry::Collector;
use hyrd_cloudsim::CrashPlan;
use hyrd_workloads::FsOp;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// Every crashpoint inside the migration commit protocol, in protocol
/// order.
const MIGRATE_POINTS: [&str; 5] = [
    "migrate.publish.pre",
    "migrate.flip.pre",
    "migrate.flip.post",
    "migrate.gc.pre",
    "migrate.gc.post",
];

/// Policy tuning the tests run with: promotion at three reads, demotion
/// after one cold virtual minute for files of 64 KiB and up.
fn policy_config() -> HyrdConfig {
    let mut cfg = HyrdConfig::default();
    cfg.policy.enabled = true;
    cfg.policy.promote_reads = 3;
    cfg.policy.demote_idle = Duration::from_secs(60);
    cfg.policy.demote_min_bytes = 64 * 1024;
    cfg
}

fn create(h: &mut CrashHarness, path: &str, size: usize) {
    let op = FsOp::Create { path: path.into(), size: size as u64 };
    assert_eq!(h.execute(&op), hyrd::crashtest::OpOutcome::Acked, "setup create {path}");
}

fn read(h: &mut CrashHarness, path: &str) {
    let op = FsOp::Read { path: path.into() };
    assert_eq!(h.execute(&op), hyrd::crashtest::OpOutcome::Acked, "heat read {path}");
}

/// Kills the client at `point` during a *promotion* (hot EC file →
/// replicated) and requires the strict final audit to come back clean:
/// content intact, no orphans, journal drained.
fn promote_killed_at(point: &str) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let mut h = CrashHarness::new(&fleet, policy_config(), Collector::disabled())
        .expect("valid policy config");

    create(&mut h, "/mig/hot", 2 * MB);
    for _ in 0..3 {
        read(&mut h, "/mig/hot");
    }

    fleet.crash_switch().arm(CrashPlan::at_point(point, 1));
    let outcome = h.migrate_pass();
    assert!(outcome.is_none(), "{point}: the pass must die at the armed point");
    assert!(h.is_dead(), "{point}: client must be dead after the kill");
    let (_, _, crashes) = h.tallies();
    assert_eq!(crashes, 1, "{point}: exactly one injected crash");

    h.final_audit();
    assert_eq!(
        h.violations(),
        &[] as &[String],
        "{point}: migration crash left durability violations"
    );
}

/// Same, for a *demotion* (cold replicated file → erasure coded).
fn demote_killed_at(point: &str) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let mut h = CrashHarness::new(&fleet, policy_config(), Collector::disabled())
        .expect("valid policy config");

    create(&mut h, "/mig/cold", 300 * KB);
    clock.advance(Duration::from_secs(120));

    fleet.crash_switch().arm(CrashPlan::at_point(point, 1));
    let outcome = h.migrate_pass();
    assert!(outcome.is_none(), "{point}: the pass must die at the armed point");
    let (_, _, crashes) = h.tallies();
    assert_eq!(crashes, 1, "{point}: exactly one injected crash");

    h.final_audit();
    assert_eq!(
        h.violations(),
        &[] as &[String],
        "{point}: migration crash left durability violations"
    );
}

#[test]
fn promotion_survives_a_kill_at_every_crashpoint() {
    hyrd::silence_crash_panics();
    for point in MIGRATE_POINTS {
        promote_killed_at(point);
    }
}

#[test]
fn demotion_survives_a_kill_at_every_crashpoint() {
    hyrd::silence_crash_panics();
    for point in MIGRATE_POINTS {
        demote_killed_at(point);
    }
}

/// After a mid-migration death and restart, the next pass finishes the
/// job: the file ends up on its target placement with the journal
/// empty, whichever way the interrupted attempt resolved.
#[test]
fn interrupted_migration_is_finished_by_the_next_pass() {
    hyrd::silence_crash_panics();
    for point in MIGRATE_POINTS {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let mut h = CrashHarness::new(&fleet, policy_config(), Collector::disabled())
            .expect("valid policy config");

        create(&mut h, "/mig/hot", 2 * MB);
        for _ in 0..3 {
            read(&mut h, "/mig/hot");
        }

        fleet.crash_switch().arm(CrashPlan::at_point(point, 1));
        assert!(h.migrate_pass().is_none(), "{point}: armed pass must die");
        h.restart_and_audit();

        // Heat survives only if the flip never landed; re-heat and run
        // a clean pass either way. At most one more pass must converge.
        for _ in 0..3 {
            read(&mut h, "/mig/hot");
        }
        let report = h.migrate_pass().expect("clean pass after restart");
        assert_eq!(report.aborted, 0, "{point}: clean pass must not abort");

        h.final_audit();
        assert_eq!(h.violations(), &[] as &[String], "{point}: audit after converging");
    }
}

/// Migration must be invisible to concurrent readers: while the
/// migrator re-encodes a hot file, parallel readers hammering the same
/// path must always get the full, correct bytes — served from the old
/// placement before the flip and the new one after, with the OCC
/// version-retry loop hiding the switch.
#[test]
fn concurrent_readers_see_correct_bytes_throughout_migration() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = Hyrd::new(&fleet, policy_config()).expect("valid policy config");

    let want = synth_content("/mig/live", 0, 2 * MB);
    h.create_file("/mig/live", &want).unwrap();
    for _ in 0..3 {
        h.read_file("/mig/live").unwrap();
    }

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let h = &h;
            let want = &want;
            scope.spawn(move || {
                for _ in 0..25 {
                    let (bytes, _) = h.read_file("/mig/live").expect("read during migration");
                    assert_eq!(&bytes[..], &want[..], "reader saw torn migration state");
                }
            });
        }
        let (report, _) = h.migrate_pass().expect("migration under readers");
        assert_eq!(report.promoted, 1, "the hot file must promote");
    });

    // The flip landed: the whole object now lives on the replica tier,
    // every fragment is gone, and the path still serves the same bytes.
    let object = hyrd::scheme::object_name("/mig/live");
    let mut replicas = 0;
    for p in fleet.providers() {
        let names: Vec<String> =
            p.object_inventory(Fleet::CONTAINER).into_iter().map(|(n, _)| n).collect();
        assert!(
            !names.iter().any(|n| n.starts_with(&format!("{object}.f"))),
            "fragments must be GC'd after promotion"
        );
        replicas += usize::from(names.iter().any(|n| **n == *object));
    }
    assert!(replicas >= 2, "promotion must land whole-object replicas");
    let (bytes, _) = h.read_file("/mig/live").unwrap();
    assert_eq!(&bytes[..], &want[..]);
}

/// Randomised migration-under-fire: several candidate files of
/// jittered sizes, all promoting or all demoting, with the client
/// killed at an arbitrary crashpoint during an arbitrary (k-th)
/// migration of the pass — so earlier migrations in the same pass
/// have already committed when the kill lands. The restarted client
/// must audit clean, and one more clean pass must converge without
/// aborts.
#[test]
fn randomized_kills_mid_pass_audit_clean() {
    check(
        12,
        |g| {
            (
                g.bool(),
                g.range(1usize..4),
                g.range(0usize..256),
                g.range(0usize..MIGRATE_POINTS.len()),
                g.range(1u64..4),
            )
        },
        |(promote, files, jitter_kb, point_idx, kill_on)| {
            hyrd::silence_crash_panics();
            let point = MIGRATE_POINTS[point_idx];
            let clock = SimClock::new();
            let fleet = Fleet::standard_four(clock.clone());
            let mut h = CrashHarness::new(&fleet, policy_config(), Collector::disabled())
                .expect("valid policy config");

            // Promotion candidates are hot erasure-coded files (above the
            // 1 MiB replication threshold, three reads); demotion candidates
            // are replicated files left cold past `demote_idle`.
            for i in 0..files {
                let size = if promote { (1536 + jitter_kb) * KB } else { (128 + jitter_kb) * KB };
                let path = format!("/mig/p{i}");
                create(&mut h, &path, size);
                if promote {
                    for _ in 0..3 {
                        read(&mut h, &path);
                    }
                }
            }
            if !promote {
                clock.advance(Duration::from_secs(120));
            }

            // Each migration crosses each crashpoint once, so clamping the
            // hit count to the candidate count guarantees the switch fires.
            let kill_on = kill_on.min(files as u64);
            fleet.crash_switch().arm(CrashPlan::at_point(point, kill_on));
            assert!(h.migrate_pass().is_none(), "{point} hit {kill_on}: the armed pass must die");
            h.restart_and_audit();
            assert_eq!(
                h.violations(),
                &[] as &[String],
                "{point} hit {kill_on}: restart after mid-pass kill"
            );

            let report = h.migrate_pass().expect("clean pass after restart");
            assert_eq!(report.aborted, 0, "{point} hit {kill_on}: clean pass must not abort");
            h.final_audit();
            assert_eq!(
                h.violations(),
                &[] as &[String],
                "{point} hit {kill_on}: audit after converging"
            );
        },
    );
}
