//! Fault-injection torture: transient faults, flapping providers and
//! interleaved outages. The availability machinery must degrade
//! gracefully and converge — never corrupt.

use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd_gcsapi::{CloudStorage, RetryPolicy};
use integration_tests::fresh_fleet;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

#[test]
fn transient_faults_are_retryable_at_the_middleware() {
    let (_, fleet) = fresh_fleet();
    let p = fleet.by_name("Aliyun").expect("standard fleet");
    p.set_flakiness(0.4);

    let key = hyrd_gcsapi::ObjectKey::new(Fleet::CONTAINER, "flaky");
    let policy = RetryPolicy { max_attempts: 8, ..RetryPolicy::default() };
    let mut failures = 0;
    for i in 0..50 {
        let data = bytes::Bytes::from(vec![i as u8; 256]);
        if policy.run(|| p.put(&key, data.clone())).is_err() {
            failures += 1;
        }
    }
    // 0.4^8 per op — 50 ops should essentially always succeed.
    assert_eq!(failures, 0, "8 retries must absorb 40% flakiness");
    p.set_flakiness(0.0);
}

#[test]
fn provider_flapping_between_every_operation() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let victims = ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"];
    let mut audit: Vec<(String, Vec<u8>)> = Vec::new();

    for round in 0..12u32 {
        // A different provider is down each round.
        let victim = fleet.by_name(victims[round as usize % 4]).expect("standard fleet");
        victim.force_down();

        let path = format!("/flap/f{round}");
        let size = if round % 3 == 0 { 2 * MB } else { 8 * KB };
        let data = synth_content(&path, round, size);
        h.create_file(&path, &data).expect("three survivors suffice");
        audit.push((path, data));

        // Every earlier file still reads correctly under this outage.
        for (p, want) in &audit {
            let (got, _) = h.read_file(p).expect("single outage");
            assert_eq!(&got[..], &want[..], "{p} in round {round}");
        }

        // Victim returns and gets its consistency update immediately.
        victim.restore();
        h.recover_provider(victim.id()).expect("provider back");
    }
    assert_eq!(h.pending_log_len(), 0);
    assert_eq!(h.pending_dirty_fragments(), 0);
}

#[test]
fn recovery_with_a_second_provider_down_defers_what_it_cannot_rebuild() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");

    let a = fleet.by_name("Windows Azure").expect("standard fleet");
    a.force_down();
    let data = synth_content("/f", 0, 8 * KB);
    h.create_file("/f", &data).expect("survivors");
    let pending = h.pending_log_len();
    assert!(pending > 0);

    // Azure comes back but Aliyun is now down: the log replay still
    // completes (it only needs Azure itself).
    a.restore();
    fleet.by_name("Aliyun").expect("standard fleet").force_down();
    h.recover_provider(a.id()).expect("replay targets only Azure");
    assert_eq!(h.pending_log_len(), 0);

    // And the file reads from the freshly recovered replica.
    let (bytes, report) = h.read_file("/f").expect("replica up");
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(report.ops[0].provider, a.id());
}

#[test]
fn writes_fail_cleanly_when_too_many_providers_are_down() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");

    // RAID5(3+1) needs at least m=3 fragment targets for a large write.
    fleet.by_name("Amazon S3").expect("standard fleet").force_down();
    fleet.by_name("Rackspace").expect("standard fleet").force_down();
    let big = synth_content("/big", 0, 2 * MB);
    let err = h.create_file("/big", &big).expect_err("2 of 4 is below m=3");
    assert!(matches!(err, SchemeError::DataUnavailable { .. }));

    // The failed create must not leave a ghost entry behind.
    assert!(h.read_file("/big").is_err());
    assert_eq!(h.file_size("/big"), None);

    // Small writes (replication level 2) still succeed on the two
    // surviving performance providers.
    h.create_file("/small", &synth_content("/small", 0, 4 * KB)).expect("Aliyun + Azure are up");
}

#[test]
fn evaluator_reassessment_after_topology_change() {
    // If HyRD is rebuilt while a provider is down, the evaluator must
    // derive tiers from the survivors and still function.
    let (_, fleet) = fresh_fleet();
    fleet.by_name("Aliyun").expect("standard fleet").force_down();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let perf = h.evaluator().performance_tier();
    assert!(!perf.is_empty());
    assert!(perf.iter().all(|&id| fleet.get(id).expect("fleet member").name() != "Aliyun"));

    let data = synth_content("/f", 0, 8 * KB);
    h.create_file("/f", &data).expect("three providers suffice");
    let (bytes, _) = h.read_file("/f").expect("replica up");
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn ghost_mode_and_real_mode_agree_on_every_report_metric() {
    // Ghost mode must change *only* the payload retention, never the
    // latency/cost accounting.
    let run = |ghost: bool| {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        if ghost {
            for p in fleet.providers() {
                p.set_ghost_mode(true);
            }
        }
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let r1 = h.create_file("/a", &vec![7u8; 3 * MB]).expect("up");
        let r2 = h.read_file("/a").expect("up").1;
        (
            r1.latency,
            r1.op_count(),
            r1.bytes_in(),
            r2.latency,
            r2.op_count(),
            r2.bytes_out(),
            fleet.total_stored_bytes(),
        )
    };
    assert_eq!(run(false), run(true));
}
