//! The paper's §III-C recovery protocol, end to end: writes during an
//! outage, degraded service, consistency update on return, and
//! convergence (every provider ends bytewise-consistent).

use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd_baselines::{Racs, Replicated};
use hyrd_gcsapi::CloudStorage;
use integration_tests::fresh_fleet;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

#[test]
fn hyrd_full_incident_with_mixed_writes_and_updates() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let mut audit: Vec<(String, Vec<u8>)> = Vec::new();

    // Pre-outage state.
    for i in 0..6 {
        let path = format!("/pre/f{i}");
        let data = synth_content(&path, 0, if i % 2 == 0 { 8 * KB } else { 2 * MB });
        h.create_file(&path, &data).expect("fleet up");
        audit.push((path, data));
    }

    // Outage: Aliyun (a replica target AND a fragment target).
    let victim = fleet.by_name("Aliyun").expect("standard fleet");
    victim.force_down();

    // Mixed traffic during the outage.
    for i in 0..4 {
        let path = format!("/during/f{i}");
        let data = synth_content(&path, 0, if i % 2 == 0 { 16 * KB } else { 3 * MB });
        h.create_file(&path, &data).expect("survivors take writes");
        audit.push((path, data));
    }
    // Update a pre-outage large file (degraded update).
    let patch = synth_content("/pre/f1", 9, 64 * KB);
    h.update_file("/pre/f1", 1000, &patch).expect("degraded update");
    audit.iter_mut().find(|(p, _)| p == "/pre/f1").expect("tracked").1[1000..1000 + patch.len()]
        .copy_from_slice(&patch);
    // Delete a pre-outage small file.
    h.delete_file("/pre/f0").expect("exists");
    audit.retain(|(p, _)| p != "/pre/f0");

    // Everything reads correctly while degraded.
    for (path, want) in &audit {
        let (got, _) = h.read_file(path).expect("degraded read");
        assert_eq!(&got[..], &want[..], "degraded {path}");
    }

    // Recovery.
    victim.restore();
    let (report, _) = h.recover_provider(victim.id()).expect("provider back");
    assert!(report.puts_replayed > 0, "missed writes were replayed");
    assert_eq!(h.pending_log_len(), 0);
    assert_eq!(h.pending_dirty_fragments(), 0);

    // Convergence check: with ANY other single provider down, all content
    // still reads bytewise-correct — so Aliyun's recovered state is
    // genuinely consistent, not just present.
    for other in ["Amazon S3", "Windows Azure", "Rackspace"] {
        fleet.by_name(other).expect("standard fleet").force_down();
        for (path, want) in &audit {
            let (got, _) = h.read_file(path).expect("single outage");
            assert_eq!(&got[..], &want[..], "{path} with {other} down post-recovery");
        }
        fleet.by_name(other).expect("standard fleet").restore();
    }
}

#[test]
fn racs_recovers_strip_and_fragment_writes() {
    let (_, fleet) = fresh_fleet();
    let mut r = Racs::new(&fleet).expect("4-provider fleet");

    let victim = fleet.by_name("Windows Azure").expect("standard fleet");
    victim.force_down();
    let small = synth_content("/s", 0, 4 * KB);
    let large = synth_content("/l", 0, 2 * MB);
    r.create_file("/s", &small).expect("survivors");
    r.create_file("/l", &large).expect("survivors");

    victim.restore();
    r.recover_provider(victim.id()).expect("provider back");
    assert_eq!(r.pending_log_len(), 0);

    // The recovered provider now carries its weight under a different
    // outage.
    fleet.by_name("Aliyun").expect("standard fleet").force_down();
    let (s, _) = r.read_file("/s").expect("degraded");
    let (l, _) = r.read_file("/l").expect("degraded");
    assert_eq!(&s[..], &small[..]);
    assert_eq!(&l[..], &large[..]);
}

#[test]
fn duracloud_secondary_catches_up_after_its_outage() {
    let (_, fleet) = fresh_fleet();
    let mut d = Replicated::duracloud_standard(&fleet).expect("standard fleet");
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");

    azure.force_down();
    let data = synth_content("/f", 0, 256 * KB);
    d.create_file("/f", &data).expect("primary up");
    assert!(d.pending_log_len() > 0);

    azure.restore();
    let (report, _) = d.recover_provider(azure.id()).expect("provider back");
    assert!(report.puts_replayed > 0);

    // Primary dies: the caught-up secondary serves.
    fleet.by_name("Amazon S3").expect("standard fleet").force_down();
    let (bytes, report) = d.read_file("/f").expect("secondary");
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(report.ops[0].provider, azure.id());
}

#[test]
fn scheduled_outage_windows_drive_degraded_service_automatically() {
    use hyrd_cloudsim::clock::units::hours;
    let (clock, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");

    fleet.by_name("Rackspace").expect("standard fleet").schedule_outage(hours(1), hours(5));
    let data = synth_content("/f", 0, 2 * MB);
    h.create_file("/f", &data).expect("all up at t=0");

    clock.advance(hours(2)); // inside the window
    let (bytes, report) = h.read_file("/f").expect("degraded");
    assert_eq!(&bytes[..], &data[..]);
    assert!(report
        .ops
        .iter()
        .all(|o| fleet.get(o.provider).expect("fleet member").name() != "Rackspace"));

    clock.advance(hours(4)); // window over
    assert!(fleet.by_name("Rackspace").expect("standard fleet").is_available());
    let (bytes, _) = h.read_file("/f").expect("normal");
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn double_outage_of_raid6_hyrd_stays_available_and_recovers() {
    let (_, fleet) = fresh_fleet();
    let cfg = HyrdConfig { code: hyrd::CodeChoice::Raid6 { m: 2 }, ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).expect("valid config");

    let data = synth_content("/f", 0, 4 * MB);
    h.create_file("/f", &data).expect("fleet up");

    let v1 = fleet.by_name("Amazon S3").expect("standard fleet");
    let v2 = fleet.by_name("Rackspace").expect("standard fleet");
    v1.force_down();
    v2.force_down();
    let (bytes, _) = h.read_file("/f").expect("RAID6 tolerates 2 outages");
    assert_eq!(&bytes[..], &data[..]);

    // Writes during the double outage land on the 2 survivors and are
    // logged for both victims.
    let extra = synth_content("/g", 0, 3 * MB);
    h.create_file("/g", &extra).expect("2 of 4 suffices for m=2");
    assert!(h.pending_log_len() >= 2);

    v1.restore();
    v2.restore();
    h.recover_provider(v1.id()).expect("back");
    h.recover_provider(v2.id()).expect("back");
    assert_eq!(h.pending_log_len(), 0);

    // Full strength again: any two may now fail.
    fleet.by_name("Windows Azure").expect("standard fleet").force_down();
    fleet.by_name("Aliyun").expect("standard fleet").force_down();
    let (bytes, _) = h.read_file("/g").expect("recovered fragments serve");
    assert_eq!(&bytes[..], &extra[..]);
}
