//! Hardened-dispatcher integration: corruption detection feeding
//! degraded reads and scrub repair, circuit breakers tripping and
//! recovering on the virtual clock, retry absorption, and torn-write
//! quarantine via the update log. No wall-clock sleeps anywhere — every
//! time-dependent assertion advances the shared [`SimClock`].

use hyrd::driver::synth_content;
use hyrd::health::BreakerSettings;
use hyrd::prelude::*;
use hyrd_cloudsim::FaultPlan;
use hyrd_gcsapi::ObjectKey;
use integration_tests::fresh_fleet;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// A fragment's physical key, as the dispatcher names it.
fn fragment_key(path: &str, index: usize) -> ObjectKey {
    let base = hyrd::scheme::object_name(path);
    ObjectKey::new(Fleet::CONTAINER, format!("{base}.f{index}"))
}

#[test]
fn corrupted_fragment_is_masked_by_degraded_read_then_scrub_repairs_it() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let data = synth_content("/media/f", 0, 3 * MB);
    h.create_file("/media/f", &data).expect("up");

    // Flip one stored bit of fragment 0, wherever it lives.
    let key0 = fragment_key("/media/f", 0);
    fleet
        .providers()
        .iter()
        .find(|p| p.corrupt_object(&key0, 4242))
        .expect("some provider stores fragment 0");

    // The read detects the mismatch, drops the fragment as an erasure
    // and decodes from the three intact ones — bytes come back right.
    let (bytes, _) = h.read_file("/media/f").expect("degraded read masks corruption");
    assert_eq!(&bytes[..], &data[..]);
    assert!(h.fault_counters().corrupt_gets >= 1, "the corruption was observed, not lucked past");

    // Scrub finds the rotten fragment at rest and rewrites it.
    let (scrub, _) = h.scrub().expect("scrub runs");
    assert!(scrub.corrupt_detected >= 1, "{scrub:?}");
    assert!(scrub.repaired >= 1, "{scrub:?}");
    assert_eq!(scrub.unrecoverable, 0, "{scrub:?}");

    // After repair: clean re-read, and a second pass finds nothing.
    let (bytes, _) = h.read_file("/media/f").expect("clean");
    assert_eq!(&bytes[..], &data[..]);
    let (again, _) = h.scrub().expect("scrub runs");
    assert_eq!(again.corrupt_detected, 0, "{again:?}");
    assert_eq!(again.repaired, 0, "{again:?}");
}

#[test]
fn breaker_trips_on_persistent_faults_and_recovers_on_the_virtual_clock() {
    let (clock, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let aliyun = fleet.by_name("Aliyun").expect("standard fleet");

    // Seed one healthy file, then make Aliyun fail every op.
    h.create_file("/pre", &synth_content("/pre", 0, 4 * KB)).expect("up");
    aliyun.set_flakiness(1.0);

    for i in 0..10u32 {
        let path = format!("/storm/f{i}");
        // Azure still takes the replica; Aliyun's copy goes to the log.
        h.create_file(&path, &synth_content(&path, 0, 4 * KB)).expect("one replica suffices");
    }
    let counters = h.fault_counters();
    assert!(counters.retries > 0, "the retry layer fought the storm first");
    assert!(h.health().trips() >= 1, "persistent failures must trip the breaker");
    assert!(
        counters.breaker_rejections > 0,
        "once open, the breaker sheds calls instead of burning retries"
    );
    assert!(h.pending_log_len() > 0, "rejected writes are logged for replay");

    // Reads never depend on the sick provider.
    for i in 0..10u32 {
        let path = format!("/storm/f{i}");
        let (got, _) = h.read_file(&path).expect("healthy replica serves");
        assert_eq!(&got[..], &synth_content(&path, 0, 4 * KB)[..]);
    }

    // The provider heals; after the cooldown the half-open probe closes
    // the breaker — purely by advancing the virtual clock.
    aliyun.set_flakiness(0.0);
    clock.advance(BreakerSettings::default().cooldown + std::time::Duration::from_secs(1));
    h.create_file("/after", &synth_content("/after", 0, 4 * KB)).expect("up");
    assert!(
        !h.health().is_open(aliyun.id(), clock.now()),
        "a successful half-open probe must close the breaker"
    );

    // Consistency update drains everything the storm deferred.
    h.recover_provider(aliyun.id()).expect("provider is healthy again");
    assert_eq!(h.pending_log_len(), 0);
    let (got, _) = h.read_file("/storm/f3").expect("up");
    assert_eq!(&got[..], &synth_content("/storm/f3", 0, 4 * KB)[..]);
}

#[test]
fn moderate_flakiness_is_absorbed_by_backoff() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    fleet.by_name("Windows Azure").expect("standard fleet").set_flakiness(0.25);

    let mut audit = Vec::new();
    for i in 0..20u32 {
        let path = format!("/flaky/f{i}");
        let data = synth_content(&path, 0, 8 * KB);
        h.create_file(&path, &data).expect("at worst one replica is deferred");
        audit.push((path, data));
    }
    assert!(h.fault_counters().retries > 0, "25% flakiness must force some retries");
    for (path, want) in &audit {
        let (got, _) = h.read_file(path).expect("up");
        assert_eq!(&got[..], &want[..], "{path}");
    }
}

#[test]
fn torn_puts_are_quarantined_by_the_log_until_replay() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");
    azure.set_fault_plan(FaultPlan::quiet().with_seed(7).with_torn_puts(1000));

    let data = synth_content("/torn/x", 0, 8 * KB);
    h.create_file("/torn/x", &data).expect("the other replica lands");
    assert!(h.pending_log_len() > 0, "the torn target is marked stale");

    // Azure holds a torn prefix, but reads skip pending replicas.
    let (got, _) = h.read_file("/torn/x").expect("up");
    assert_eq!(&got[..], &data[..]);

    // Faults end; the consistency update rewrites the full object.
    azure.set_fault_plan(FaultPlan::quiet());
    h.recover_provider(azure.id()).expect("replay lands");
    assert_eq!(h.pending_log_len(), 0);
    let object = hyrd::scheme::object_name("/torn/x");
    let direct = azure.get(&ObjectKey::new(Fleet::CONTAINER, object)).expect("stored");
    assert_eq!(&direct.value[..], &data[..], "the replica is whole again after replay");
}
