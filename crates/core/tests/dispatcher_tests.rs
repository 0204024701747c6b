//! End-to-end tests of the HyRD dispatcher over the simulated fleet.

use std::time::Duration;

use hyrd::config::{CodeChoice, FragmentSelection, HyrdConfig};
use hyrd::driver::synth_content;
use hyrd::scheme::SchemeError;
use hyrd::telemetry::Collector;
use hyrd::Hyrd;
use hyrd_cloudsim::{FaultPlan, Fleet, SimClock};
use hyrd_gcsapi::{CloudStorage, ObjectKey, OpKind};
use hyrd_metastore::MetaError;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

fn fleet() -> Fleet {
    Fleet::standard_four(SimClock::new())
}

fn hyrd(fleet: &Fleet) -> Hyrd {
    Hyrd::new(fleet, HyrdConfig::default()).expect("valid default config")
}

#[test]
fn small_file_is_replicated_on_performance_tier() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let data = synth_content("/a.txt", 0, 4 * KB);
    h.create_file("/a.txt", &data).unwrap();

    // Replicas land on Aliyun and Azure (the performance tier), not on
    // S3/Rackspace.
    let aliyun = fleet.by_name("Aliyun").unwrap();
    let azure = fleet.by_name("Windows Azure").unwrap();
    let s3 = fleet.by_name("Amazon S3").unwrap();
    assert!(aliyun.stats().put >= 1);
    assert!(azure.stats().put >= 1);
    // S3 saw only the evaluator probe put, no data put.
    assert_eq!(s3.stats().put, 1, "S3 must hold no small-file replica");

    let (bytes, report) = h.read_file("/a.txt").unwrap();
    assert_eq!(&bytes[..], &data[..]);
    // Small read is a single Get from the fastest replica (Aliyun).
    assert_eq!(report.op_count(), 1);
    assert_eq!(report.ops[0].provider, aliyun.id());
}

#[test]
fn large_file_is_erasure_coded_across_four_providers() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let data = synth_content("/big.bin", 0, 3 * MB);
    h.create_file("/big.bin", &data).unwrap();

    // One fragment object everywhere (4 fragments over 4 providers).
    for p in fleet.providers() {
        let frag_puts = p.stats().put - 1; // minus the probe
        assert!(frag_puts >= 1, "{} holds no fragment (puts={})", p.name(), p.stats().put);
    }
    // Physical bytes ≈ 4/3 of logical for RAID5(3+1) — plus replicated
    // metadata, which is small.
    let logical = h.logical_bytes() as f64;
    let physical = h.physical_bytes() as f64;
    assert!(physical / logical > 1.30 && physical / logical < 1.40, "{}", physical / logical);

    let (bytes, report) = h.read_file("/big.bin").unwrap();
    assert_eq!(&bytes[..], &data[..]);
    // Large read fetches exactly m = 3 fragments in parallel.
    assert_eq!(report.op_count(), 3);
}

#[test]
fn cheapest_egress_policy_avoids_s3_reads() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/big.bin", &synth_content("/big.bin", 0, 3 * MB)).unwrap();
    let s3 = fleet.by_name("Amazon S3").unwrap();
    let gets_before = s3.stats().get;
    for _ in 0..5 {
        h.read_file("/big.bin").unwrap();
    }
    assert_eq!(s3.stats().get, gets_before, "S3 egress is the dearest; reads must avoid it");
}

#[test]
fn fastest_policy_reads_differently_from_cheapest() {
    let fleet_a = fleet();
    let cfg =
        HyrdConfig { fragment_selection: FragmentSelection::Fastest, ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet_a, cfg).unwrap();
    h.create_file("/big.bin", &synth_content("/big.bin", 0, 3 * MB)).unwrap();
    let (_, fast_report) = h.read_file("/big.bin").unwrap();

    let fleet_b = fleet();
    let h2 = Hyrd::new(&fleet_b, HyrdConfig::default()).unwrap();
    h2.create_file("/big.bin", &synth_content("/big.bin", 0, 3 * MB)).unwrap();
    let (_, cheap_report) = h2.read_file("/big.bin").unwrap();

    // Fastest pulls from Aliyun+Azure+one more; cheapest from
    // Azure+Rackspace+Aliyun. Latency of fastest <= cheapest.
    assert!(fast_report.latency <= cheap_report.latency);
    let cheap_providers: Vec<String> = cheap_report
        .ops
        .iter()
        .map(|o| fleet_b.get(o.provider).unwrap().name().to_string())
        .collect();
    assert!(cheap_providers.contains(&"Rackspace".to_string()));
}

#[test]
fn single_outage_degraded_read_still_serves_everything() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let small = synth_content("/s", 0, 2 * KB);
    let large = synth_content("/l", 0, 4 * MB);
    h.create_file("/s", &small).unwrap();
    h.create_file("/l", &large).unwrap();

    for victim in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        fleet.by_name(victim).unwrap().force_down();
        let (s, _) = h.read_file("/s").unwrap();
        let (l, _) = h.read_file("/l").unwrap();
        assert_eq!(&s[..], &small[..], "small read with {victim} down");
        assert_eq!(&l[..], &large[..], "large read with {victim} down");
        fleet.by_name(victim).unwrap().restore();
    }
}

#[test]
fn writes_during_outage_are_logged_and_replayed() {
    let fleet = fleet();
    let h = hyrd(&fleet);

    let azure = fleet.by_name("Windows Azure").unwrap();
    azure.force_down();

    // Small file: Azure is a replica target but down → logged.
    let data = synth_content("/during-outage", 0, KB);
    h.create_file("/during-outage", &data).unwrap();
    assert!(h.pending_log_len() > 0, "missed writes must be logged");

    // Reads work from the surviving replica meanwhile.
    let (bytes, _) = h.read_file("/during-outage").unwrap();
    assert_eq!(&bytes[..], &data[..]);

    // Outage ends → consistency update.
    azure.restore();
    let azure_objects_before = azure.object_count();
    let (report, _) = h.recover_provider(azure.id()).unwrap();
    assert!(report.puts_replayed > 0);
    assert_eq!(h.pending_log_len(), 0);
    assert!(azure.object_count() > azure_objects_before);

    // After recovery the replica serves reads: kill the *other* replica.
    fleet.by_name("Aliyun").unwrap().force_down();
    let (bytes, report) = h.read_file("/during-outage").unwrap();
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(report.ops[0].provider, azure.id());
}

#[test]
fn large_write_during_outage_recovers_consistently() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let rackspace = fleet.by_name("Rackspace").unwrap();
    rackspace.force_down();

    let data = synth_content("/big", 0, 2 * MB);
    h.create_file("/big", &data).unwrap();
    assert!(h.pending_log_len() > 0);

    rackspace.restore();
    h.recover_provider(rackspace.id()).unwrap();

    // Now kill a different provider: the recovered fragment must carry
    // its weight in the decode.
    fleet.by_name("Windows Azure").unwrap().force_down();
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn update_small_file_is_one_write_round() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/f", &synth_content("/f", 0, 8 * KB)).unwrap();

    let patch = synth_content("/f", 1, KB);
    let report = h.update_file("/f", 1000, &patch).unwrap();
    // Cache hit → no read round; 2 replica puts + metadata puts, all Put
    // class.
    assert!(report.ops.iter().all(|o| o.kind == OpKind::Put));

    let (bytes, _) = h.read_file("/f").unwrap();
    assert_eq!(&bytes[1000..1000 + KB], &patch[..]);
    assert_eq!(bytes.len(), 8 * KB);
}

#[test]
fn update_large_file_is_raid5_rmw_with_four_data_accesses() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/big", &synth_content("/big", 0, 6 * MB)).unwrap();

    let patch = synth_content("/big", 1, 4 * KB);
    let report = h.update_file("/big", 12345, &patch).unwrap();
    // The paper's write amplification: 2 reads + 2 writes for the data,
    // plus the metadata flush (puts). Transfers are range-granular: each
    // op moves only the touched 4 KB, not whole fragments.
    let gets: Vec<_> = report.ops.iter().filter(|o| o.kind == OpKind::Get).collect();
    let data_puts: Vec<_> = report
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Put && o.bytes_in == 4 * KB as u64)
        .collect();
    assert_eq!(gets.len(), 2, "RMW reads old data range + old parity window");
    assert!(gets.iter().all(|o| o.bytes_out == 4 * KB as u64), "ranged reads");
    assert_eq!(data_puts.len(), 2, "RMW writes new data range + new parity window");

    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[12345..12345 + 4 * KB], &patch[..]);
}

#[test]
fn chained_large_updates_survive_any_single_outage() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let mut content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();

    for (i, offset) in [(1u32, 0usize), (2, MB), (3, 2 * MB - 512), (4, 3 * MB - KB)].iter() {
        let patch = synth_content("/big", *i, KB.min(3 * MB - offset));
        h.update_file("/big", *offset as u64, &patch).unwrap();
        content[*offset..*offset + patch.len()].copy_from_slice(&patch);
    }

    for victim in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        fleet.by_name(victim).unwrap().force_down();
        let (bytes, _) = h.read_file("/big").unwrap();
        assert_eq!(&bytes[..], &content[..], "with {victim} down");
        fleet.by_name(victim).unwrap().restore();
    }
}

#[test]
fn update_during_outage_takes_degraded_path_and_recovers() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let mut content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();

    // Down a provider that holds a fragment, then update.
    let victim = fleet.by_name("Rackspace").unwrap();
    victim.force_down();
    let patch = synth_content("/big", 7, 64 * KB);
    h.update_file("/big", 500_000, &patch).unwrap();
    content[500_000..500_000 + patch.len()].copy_from_slice(&patch);

    // Degraded read agrees.
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);

    // Recover, then kill a different provider: content must still match
    // (the replayed fragment is consistent with the update).
    victim.restore();
    h.recover_provider(victim.id()).unwrap();
    fleet.by_name("Aliyun").unwrap().force_down();
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);
}

/// The consistency update replays the window a fragment missed; it reads
/// no survivor, so it cannot rebuild a fragment from a corrupt one. Here
/// a survivor rots after a scrub has re-recorded the digests a degraded
/// update dropped: the replay neither reads nor counts it, fragment 0
/// receives exactly the missed window, and a read returns the update's
/// bytes.
#[test]
fn recovery_does_not_rebuild_a_fragment_from_a_corrupt_survivor() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();
    let name = |i: usize| format!("{}.f{i}", hyrd::scheme::object_name("/big"));
    let holder = |i: usize| {
        let name = name(i);
        let found = fleet.providers().iter().find(|p| {
            p.object_inventory(Fleet::CONTAINER).iter().any(|(object, _)| *object == name)
        });
        found.expect("every fragment is stored").clone()
    };

    // Fragment 0 misses a 64 KiB update over its own window.
    let returning = holder(0);
    returning.force_down();
    let patch = synth_content("/big", 1, 64 * KB);
    h.update_file("/big", 1_000, &patch).unwrap();
    assert_eq!(h.pending_dirty_fragments(), 1);
    let (scrubbed, _) = h.scrub().unwrap();
    assert_eq!(scrubbed.digests_refreshed, 3, "the survivors' digests are on record again");

    // The provider returns; survivor 1 has rotted meanwhile.
    returning.restore();
    let key = ObjectKey::new(Fleet::CONTAINER, name(1));
    assert!(holder(1).corrupt_object(&key, 12_345));
    let corrupt_before = h.fault_counters().corrupt_gets;
    let (recovered, batch) = h.recover_provider(returning.id()).unwrap();
    assert_eq!(h.pending_dirty_fragments(), 0, "the window was replayed");
    assert!(batch.ops.iter().all(|op| op.bytes_out == 0), "the replay reads nothing");
    let moved = recovered.bytes_restored;
    assert!(moved < (patch.len() + 4 * KB) as u64, "the window and a metadata block: {moved} B");
    assert_eq!(h.fault_counters().corrupt_gets, corrupt_before, "no survivor was read");

    let mut want = content.clone();
    want[1_000..1_000 + patch.len()].copy_from_slice(&patch);
    let (read, _) = h.read_file("/big").unwrap();
    assert!(read[..] == want[..], "the update's bytes");
}

/// Rot that lands on a fragment before a ranged update, outside the
/// update's window, stays findable: the update suspends the fragments'
/// digests instead of dropping them, so the scrub still checks every
/// block outside the window, finds the flipped bit, and repairs the
/// fragment from its siblings. With the digests dropped the stripe is
/// merely inconsistent, and the scrub cannot tell which fragment to
/// trust.
#[test]
fn rot_before_a_ranged_update_is_found_and_repaired_by_the_scrub() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();
    let name = format!("{}.f0", hyrd::scheme::object_name("/big"));
    let holder = fleet
        .providers()
        .iter()
        .find(|p| p.object_inventory(Fleet::CONTAINER).iter().any(|(object, _)| *object == name))
        .expect("fragment 0 is stored")
        .clone();
    // One bit of fragment 0, 512 KiB in: far outside the update below.
    assert!(holder.corrupt_object(&ObjectKey::new(Fleet::CONTAINER, name), 8 * 512 * KB as u64));
    let patch = synth_content("/big", 1, 4 * KB);
    h.update_file("/big", 1_000, &patch).unwrap();

    let (scrubbed, _) = h.scrub().unwrap();
    assert_eq!((scrubbed.corrupt_detected, scrubbed.repaired), (1, 1), "{scrubbed:?}");
    assert_eq!(scrubbed.unrecoverable, 0, "{scrubbed:?}");
    let mut want = content.clone();
    want[1_000..1_000 + patch.len()].copy_from_slice(&patch);
    let (read, _) = h.read_file("/big").unwrap();
    assert!(read[..] == want[..], "the update's bytes, and no rot");
}

#[test]
fn empty_update_of_a_large_file_is_harmless_through_any_outage() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();

    // Whichever fragment (data or parity) the victim holds, a zero-length
    // update takes the degraded path with a zero-width window.
    for victim in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        let victim = fleet.by_name(victim).unwrap();
        victim.force_down();
        h.update_file("/big", 500_000, &[]).unwrap();
        let (bytes, _) = h.read_file("/big").unwrap();
        assert_eq!(&bytes[..], &content[..], "with {} down", victim.name());
        victim.restore();
        h.recover_provider(victim.id()).unwrap();
    }
    h.update_file("/big", 500_000, &[]).unwrap();
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);
}

#[test]
fn delete_removes_objects_and_listing() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/dir/a", &synth_content("/dir/a", 0, KB)).unwrap();
    h.create_file("/dir/b", &synth_content("/dir/b", 0, 2 * MB)).unwrap();

    let (names, _) = h.list_dir("/dir").unwrap();
    assert_eq!(names, vec!["a", "b"]);

    let stored_before = fleet.total_stored_bytes();
    h.delete_file("/dir/b").unwrap();
    assert!(fleet.total_stored_bytes() < stored_before);

    let (names, _) = h.list_dir("/dir").unwrap();
    assert_eq!(names, vec!["a"]);
    assert!(matches!(h.read_file("/dir/b"), Err(SchemeError::Meta(_))));
}

#[test]
fn list_dir_is_a_single_fast_metadata_get() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/docs/x", &synth_content("/docs/x", 0, KB)).unwrap();
    let (_, report) = h.list_dir("/docs").unwrap();
    assert_eq!(report.op_count(), 1);
    assert_eq!(report.ops[0].kind, OpKind::Get);
    // Served by the fastest metadata replica: Aliyun.
    let aliyun = fleet.by_name("Aliyun").unwrap();
    assert_eq!(report.ops[0].provider, aliyun.id());
}

#[test]
fn hot_large_files_gain_a_performance_tier_copy() {
    let fleet = fleet();
    let cfg = HyrdConfig { hot_read_threshold: Some(3), ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    let data = synth_content("/hot", 0, 2 * MB);
    h.create_file("/hot", &data).unwrap();

    // First two reads: striped (3 gets each).
    let (_, r1) = h.read_file("/hot").unwrap();
    assert_eq!(r1.ops.iter().filter(|o| o.kind == OpKind::Get).count(), 3);
    let (_, _r2) = h.read_file("/hot").unwrap();
    // Third read crosses the threshold: still striped, but installs the
    // hot copy in the background.
    let (_, r3) = h.read_file("/hot").unwrap();
    assert!(r3.ops.iter().any(|o| o.kind == OpKind::Put), "hot copy fill");

    // Fourth read: one whole-object Get from the performance tier.
    let (bytes, r4) = h.read_file("/hot").unwrap();
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(r4.op_count(), 1);
    let p = fleet.get(r4.ops[0].provider).unwrap();
    assert_eq!(p.name(), "Aliyun");
    // And it should be faster than the striped read.
    assert!(r4.latency < r1.latency);
}

#[test]
fn hot_copy_is_invalidated_by_updates() {
    let fleet = fleet();
    let cfg = HyrdConfig { hot_read_threshold: Some(1), ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    let mut content = synth_content("/hot", 0, 2 * MB);
    h.create_file("/hot", &content).unwrap();
    h.read_file("/hot").unwrap(); // installs hot copy

    let patch = synth_content("/hot", 1, KB);
    h.update_file("/hot", 42, &patch).unwrap();
    content[42..42 + KB].copy_from_slice(&patch);

    // Next read must not serve the stale hot copy.
    let (bytes, _) = h.read_file("/hot").unwrap();
    assert_eq!(&bytes[..], &content[..]);
}

#[test]
fn total_blackout_reports_data_unavailable() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/f", &synth_content("/f", 0, KB)).unwrap();
    h.create_file("/big", &synth_content("/big", 0, 2 * MB)).unwrap();
    for p in fleet.providers() {
        p.force_down();
    }
    assert!(matches!(h.read_file("/f"), Err(SchemeError::DataUnavailable { .. })));
    assert!(matches!(h.read_file("/big"), Err(SchemeError::DataUnavailable { .. })));
    assert!(matches!(h.create_file("/new", &[0u8; 10]), Err(SchemeError::DataUnavailable { .. })));
}

#[test]
fn two_outages_break_raid5_but_not_raid6() {
    // RAID5 (tolerates 1) vs RAID6 (tolerates 2) — the code-choice
    // ablation's core claim.
    let data: Vec<u8> = synth_content("/big", 0, 2 * MB);

    let fleet5 = fleet();
    let h5 = hyrd(&fleet5);
    h5.create_file("/big", &data).unwrap();
    fleet5.by_name("Amazon S3").unwrap().force_down();
    fleet5.by_name("Rackspace").unwrap().force_down();
    assert!(matches!(h5.read_file("/big"), Err(SchemeError::DataUnavailable { .. })));

    let fleet6 = fleet();
    // n = 4 providers
    let cfg = HyrdConfig { code: CodeChoice::Raid6 { m: 2 }, ..HyrdConfig::default() };
    let h6 = Hyrd::new(&fleet6, cfg).unwrap();
    h6.create_file("/big", &data).unwrap();
    fleet6.by_name("Amazon S3").unwrap().force_down();
    fleet6.by_name("Rackspace").unwrap().force_down();
    let (bytes, _) = h6.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn reed_solomon_code_choice_works_end_to_end() {
    let fleet = fleet();
    let cfg = HyrdConfig { code: CodeChoice::ReedSolomon { m: 2, n: 4 }, ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    let data = synth_content("/rs", 0, 3 * MB);
    h.create_file("/rs", &data).unwrap();

    fleet.by_name("Aliyun").unwrap().force_down();
    fleet.by_name("Windows Azure").unwrap().force_down();
    let (bytes, _) = h.read_file("/rs").unwrap();
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn replication_level_is_configurable() {
    let fleet = fleet();
    let cfg = HyrdConfig { replication_level: 3, ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    h.create_file("/f", &synth_content("/f", 0, KB)).unwrap();

    // Three replicas → two providers down still serves.
    fleet.by_name("Aliyun").unwrap().force_down();
    fleet.by_name("Windows Azure").unwrap().force_down();
    let (bytes, _) = h.read_file("/f").unwrap();
    assert_eq!(bytes.len(), KB);
}

#[test]
fn monitor_observes_the_classification() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    for i in 0..8 {
        h.create_file(&format!("/s{i}"), &synth_content("x", 0, 4 * KB)).unwrap();
    }
    h.create_file("/l0", &synth_content("y", 0, 5 * MB)).unwrap();
    h.create_file("/l1", &synth_content("y", 0, 2 * MB)).unwrap();
    assert_eq!(h.monitor().files_seen(), 10);
    assert!((h.monitor().small_count_frac() - 0.8).abs() < 1e-9);
    assert!(h.monitor().small_bytes_frac() < 0.01);
}

#[test]
fn threshold_boundary_routes_exactly() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    // Exactly 1 MB → replicated; 1 MB + 1 → erasure-coded.
    h.create_file("/at", &vec![1u8; MB]).unwrap();
    h.create_file("/above", &vec![2u8; MB + 1]).unwrap();

    let s3 = fleet.by_name("Amazon S3").unwrap();
    // /at must not touch S3 (replication on perf tier only): S3 puts =
    // probe + fragments of /above only.
    let (b1, r1) = h.read_file("/at").unwrap();
    assert_eq!(b1.len(), MB);
    assert_eq!(r1.op_count(), 1, "replicated read");
    let (b2, r2) = h.read_file("/above").unwrap();
    assert_eq!(b2.len(), MB + 1);
    assert_eq!(r2.op_count(), 3, "striped read");
    let _ = s3;
}

#[test]
fn setup_cost_covers_probing_all_providers() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    assert_eq!(h.setup_cost().op_count(), 12); // put+get+remove x 4
}

#[test]
fn file_size_and_missing_paths() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/f", &[0u8; 123]).unwrap();
    assert_eq!(h.file_size("/f"), Some(123));
    assert_eq!(h.file_size("/nope"), None);
    assert!(matches!(h.read_file("/nope"), Err(SchemeError::Meta(_))));
    assert!(matches!(h.delete_file("/nope"), Err(SchemeError::Meta(_))));
    assert!(matches!(h.update_file("/f", 100, &[0u8; 100]), Err(SchemeError::BadRange { .. })));
}

#[test]
fn reassess_adopts_the_current_topology() {
    let fleet = fleet();
    let mut h = hyrd(&fleet);
    let aliyun = fleet.by_name("Aliyun").unwrap();
    assert!(h.evaluator().performance_tier().contains(&aliyun.id()));

    // Aliyun goes into a long outage; a re-assessment drops it from the
    // tiers so future small files land elsewhere.
    aliyun.force_down();
    let cost = h.reassess();
    assert!(cost.op_count() > 0, "probing costs ops");
    assert!(!h.evaluator().performance_tier().contains(&aliyun.id()));

    h.create_file("/after", &synth_content("/after", 0, 4 * KB)).unwrap();
    let (_, report) = h.read_file("/after").unwrap();
    assert_ne!(report.ops[0].provider, aliyun.id());
}

#[test]
fn duplicate_create_is_rejected() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/f", &[1u8; 10]).unwrap();
    assert!(matches!(h.create_file("/f", &[2u8; 10]), Err(SchemeError::Meta(_))));
}

#[test]
fn rolled_back_create_ships_no_metadata_on_the_next_flush() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/a/f1", &synth_content("/a/f1", 0, 4 * KB)).unwrap();

    // Full outage: the large create inserts the inode, fails to store a
    // single fragment, and rolls the inode back — leaving "/a" marked
    // dirty but byte-identical to its last flushed block.
    for p in fleet.providers() {
        p.force_down();
    }
    assert!(h.create_file("/a/huge", &synth_content("/a/huge", 0, 3 * MB)).is_err());
    for p in fleet.providers() {
        p.restore();
    }

    // The next successful op drains the dirty set. Only "/b" actually
    // changed; the netted-out "/a" must be neither re-serialized nor
    // re-replicated, so the flush ships exactly one block to the same
    // replica set the 4 KB data puts went to.
    let report = h.create_file("/b/f2", &synth_content("/b/f2", 0, 4 * KB)).unwrap();
    let data_puts = report
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Put && o.bytes_in as usize == 4 * KB)
        .count();
    let meta_puts = report
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Put && (o.bytes_in as usize) < 4 * KB)
        .count();
    assert!(data_puts >= 1, "small create replicates the data");
    assert_eq!(
        meta_puts, data_puts,
        "one metadata block (\"/b\") per replica; more means the rolled-back \"/a\" was re-shipped"
    );
}

/// Trips a provider's circuit breaker: five consecutive failures.
fn trip_breaker(h: &Hyrd, fleet: &Fleet, clock: &SimClock, provider: &str) {
    let id = fleet.by_name(provider).unwrap().id();
    for _ in 0..5 {
        h.health().record_failure(id, clock.now());
    }
}

#[test]
fn forced_small_create_discharges_its_pessimistic_log_entries() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = hyrd(&fleet);
    // Both performance-tier breakers open: every replica target is
    // rejected up front (and pessimistically logged), so the create can
    // only land through the desperation pass's forced puts.
    trip_breaker(&h, &fleet, &clock, "Aliyun");
    trip_breaker(&h, &fleet, &clock, "Windows Azure");

    let data = synth_content("/forced", 0, 4 * KB);
    h.create_file("/forced", &data).unwrap();
    assert_eq!(
        h.pending_log_len(),
        0,
        "the forced puts landed the bytes; stale log entries would re-ship them on recovery"
    );
    let (bytes, _) = h.read_file("/forced").unwrap();
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn forced_large_create_discharges_its_pessimistic_log_entries() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = hyrd(&fleet);
    for p in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        trip_breaker(&h, &fleet, &clock, p);
    }

    // All four fragment targets breaker-rejected → below the durability
    // floor → every fragment ships through the desperation pass.
    let data = synth_content("/forced-big", 0, 2 * MB);
    h.create_file("/forced-big", &data).unwrap();
    assert_eq!(h.pending_log_len(), 0, "every forced fragment put must discharge its log entry");
    let (bytes, _) = h.read_file("/forced-big").unwrap();
    assert_eq!(&bytes[..], &data[..]);
}

#[test]
fn forced_small_update_ships_the_full_object_and_discharges() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = hyrd(&fleet);
    let mut content = synth_content("/f", 0, 8 * KB);
    h.create_file("/f", &content).unwrap();
    assert_eq!(h.pending_log_len(), 0);

    trip_breaker(&h, &fleet, &clock, "Aliyun");
    trip_breaker(&h, &fleet, &clock, "Windows Azure");
    let patch = synth_content("/f", 1, KB);
    h.update_file("/f", 1000, &patch).unwrap();
    content[1000..1000 + KB].copy_from_slice(&patch);
    assert_eq!(h.pending_log_len(), 0, "the forced update discharged its log entries");

    // The desperation pass ships the whole post-update object (a forced
    // *ranged* write could land on a stale base), so either replica
    // alone serves the patched content.
    for victim in ["Aliyun", "Windows Azure"] {
        fleet.by_name(victim).unwrap().force_down();
        let (bytes, _) = h.read_file("/f").unwrap();
        assert_eq!(&bytes[..], &content[..], "with {victim} down");
        fleet.by_name(victim).unwrap().restore();
    }
}

#[test]
fn failed_delete_logs_pending_removes_and_recovery_reclaims_them() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = hyrd(&fleet);
    let data = synth_content("/leak", 0, 32 * KB);
    h.create_file("/leak", &data).unwrap();
    assert_eq!(h.pending_log_len(), 0);

    // Every provider call now fails transiently — timeouts and
    // throttling, NOT "object gone". A delete in this window must queue
    // its removes for replay; treating the errors as already-gone would
    // leak the billed replicas forever.
    let until = clock.now() + Duration::from_secs(24 * 3600);
    for p in fleet.providers() {
        p.set_fault_plan(FaultPlan::quiet().with_burst(clock.now(), until, 1000));
    }
    h.delete_file("/leak").unwrap();
    assert!(h.pending_log_len() > 0, "failed removes must be queued, not dropped");

    // Faults clear; the consistency update reclaims the orphans.
    for p in fleet.providers() {
        p.set_fault_plan(FaultPlan::quiet());
    }
    let mut removes = 0;
    for p in fleet.providers() {
        let (r, _) = h.recover_provider(p.id()).unwrap();
        removes += r.removes_replayed;
    }
    assert!(removes >= 2, "both leaked replicas reclaimed, got {removes}");
    assert_eq!(h.pending_log_len(), 0);
    assert!(
        fleet.total_stored_bytes() < data.len() as u64,
        "a 32 KB replica was left behind: {} bytes still stored",
        fleet.total_stored_bytes()
    );
}

#[test]
fn update_resets_heat_so_hot_copy_needs_fresh_reads() {
    // Regression: `update_erasure` used to reset the hot-read counter
    // only when a hot copy already existed. A file one read short of
    // the threshold would then get a hot copy filled from its *first*
    // post-update read — staging a copy whose heat belongs to content
    // that no longer exists.
    let fleet = fleet();
    let cfg = HyrdConfig { hot_read_threshold: Some(3), ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    let mut content = synth_content("/big", 0, 2 * MB);
    h.create_file("/big", &content).unwrap();

    // Two reads: one short of the threshold, no hot copy yet.
    h.read_file("/big").unwrap();
    h.read_file("/big").unwrap();

    let patch = synth_content("/big", 1, KB);
    h.update_file("/big", 777, &patch).unwrap();
    content[777..777 + KB].copy_from_slice(&patch);

    // The update changed the content, so heat must restart from zero:
    // the next read is striped with no hot-copy fill.
    let (bytes, r1) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);
    assert_eq!(r1.ops.iter().filter(|o| o.kind == OpKind::Get).count(), 3);
    assert!(
        !r1.ops.iter().any(|o| o.kind == OpKind::Put),
        "stale pre-update heat must not trigger a hot-copy fill"
    );

    // Three *fresh* reads cross the threshold again.
    h.read_file("/big").unwrap();
    let (_, r3) = h.read_file("/big").unwrap();
    assert!(r3.ops.iter().any(|o| o.kind == OpKind::Put), "hot copy fill on fresh heat");
    let (bytes, r4) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..], "the hot copy holds the post-update bytes");
    assert_eq!(r4.op_count(), 1, "served from the hot copy");
}

#[test]
fn monitor_tracks_live_data_through_delete_and_failed_create() {
    // Regression: the monitor's tallies only ever grew, so its
    // fractions — policy inputs — drifted on churny workloads: deleted
    // files and rolled-back creates kept distorting the distribution
    // forever.
    let fleet = fleet();
    let h = hyrd(&fleet);
    h.create_file("/s", &synth_content("/s", 0, 4 * KB)).unwrap();
    h.create_file("/l", &synth_content("/l", 0, 2 * MB)).unwrap();
    assert_eq!(h.monitor().files_seen(), 2);
    assert!(h.monitor().small_bytes_frac() < 0.01);

    // Deleting the large file must un-record it.
    h.delete_file("/l").unwrap();
    assert_eq!(h.monitor().files_seen(), 1);
    assert!((h.monitor().small_bytes_frac() - 1.0).abs() < 1e-9);
    assert!((h.monitor().small_count_frac() - 1.0).abs() < 1e-9);

    // A create that rolls back (total blackout) never produced a live
    // file, so it must not leave a phantom entry either.
    for p in fleet.providers() {
        p.force_down();
    }
    assert!(h.create_file("/phantom", &synth_content("/phantom", 0, 3 * MB)).is_err());
    for p in fleet.providers() {
        p.restore();
    }
    assert_eq!(h.monitor().files_seen(), 1, "rolled-back create left a phantom tally");
    assert!((h.monitor().small_bytes_frac() - 1.0).abs() < 1e-9);

    // In-place updates keep the size, so the tallies are untouched.
    h.update_file("/s", 0, &synth_content("/s", 1, KB)).unwrap();
    assert_eq!(h.monitor().files_seen(), 1);
}

#[test]
fn create_under_a_file_is_refused_and_leaves_the_namespace_intact() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let data = synth_content("/a", 0, 4 * KB);
    h.create_file("/a", &data).unwrap();

    // `/a` is a file: it cannot also become the directory of `/a/b`,
    // whatever tier the new file would land on.
    for size in [KB, 2 * MB] {
        let err = h.create_file("/a/b", &synth_content("/a/b", 0, size)).unwrap_err();
        assert!(
            matches!(&err, SchemeError::Meta(MetaError::NotADirectory(p)) if p == "/a"),
            "{size} B create under a file: {err:?}"
        );
    }
    assert_eq!(h.list_dir("/").unwrap().0, vec!["a"], "one entry, and it is the file");
    assert!(h.list_dir("/a").is_err());
    assert_eq!(&h.read_file("/a").unwrap().0[..], &data[..]);
}

#[test]
fn delete_via_alias_path_clears_heat_and_cache_for_the_successor() {
    // Regression: delete evicted the cache and heat under the caller's
    // raw spelling, so `/d//f` left the normalized entries alive — a
    // recreated file under the same name inherited the old heat (the
    // `count == threshold` edge then never fires again) and a stale
    // cached body.
    let fleet = fleet();
    let cfg = HyrdConfig { hot_read_threshold: Some(2), ..HyrdConfig::default() };
    let h = Hyrd::new(&fleet, cfg).unwrap();
    h.create_file("/d/f", &synth_content("/d/f", 0, 2 * MB)).unwrap();
    h.read_file("/d/f").unwrap();
    h.read_file("/d/f").unwrap(); // crosses the threshold: hot copy installed

    // Delete through a non-canonical alias of the same path.
    h.delete_file("/d//f").unwrap();
    assert!(matches!(h.read_file("/d/f"), Err(SchemeError::Meta(_))));

    // Recreate under the canonical spelling with different content.
    let mut content = synth_content("/d/f", 1, 2 * MB);
    h.create_file("/d/f", &content).unwrap();

    // Fresh heat epoch: the first read must not fill a hot copy, the
    // second must — a leaked counter would skip the `== threshold` edge
    // and never install one.
    let (bytes, r1) = h.read_file("/d/f").unwrap();
    assert_eq!(&bytes[..], &content[..], "successor must not serve the deleted bytes");
    assert!(!r1.ops.iter().any(|o| o.kind == OpKind::Put), "heat leaked across delete");
    let (_, r2) = h.read_file("/d/f").unwrap();
    assert!(r2.ops.iter().any(|o| o.kind == OpKind::Put), "second fresh read installs the copy");

    // An update digesting a stale cached body would corrupt the file;
    // the striped read-back proves the cache entry died with the delete.
    let patch = synth_content("/d/f", 2, 4 * KB);
    h.update_file("/d/f", 123_456, &patch).unwrap();
    content[123_456..123_456 + 4 * KB].copy_from_slice(&patch);
    let (bytes, _) = h.read_file("/d/f").unwrap();
    assert_eq!(&bytes[..], &content[..]);
}

#[test]
fn concurrent_sessions_share_one_client_across_threads() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    // Free-running concurrency (no determinism claimed): four OS threads
    // drive the same `&Hyrd` through the full CRUD surface on disjoint
    // directories. This is the `Sync` guarantee the lock-striped
    // dispatcher makes; the deterministic interleaving lives in
    // `driver::multi_client`.
    std::thread::scope(|s| {
        for t in 0..4 {
            let h = &h;
            s.spawn(move || {
                let dir = format!("/t{t}");
                for i in 0..6 {
                    let path = format!("{dir}/f{i}");
                    let size = if i % 3 == 2 { 2 * MB } else { 8 * KB };
                    let data = synth_content(&path, 0, size);
                    h.create_file(&path, &data).unwrap();
                    let (bytes, _) = h.read_file(&path).unwrap();
                    assert_eq!(&bytes[..], &data[..], "{path}");
                }
                let patch = synth_content(&dir, 1, KB);
                h.update_file(&format!("{dir}/f0"), 0, &patch).unwrap();
                h.delete_file(&format!("{dir}/f1")).unwrap();
            });
        }
    });
    // Every thread's namespace survived everyone else's traffic.
    for t in 0..4 {
        let (names, _) = h.list_dir(&format!("/t{t}")).unwrap();
        assert_eq!(names.len(), 5, "/t{t} lists {names:?}");
        let (bytes, _) = h.read_file(&format!("/t{t}/f2")).unwrap();
        assert_eq!(bytes.len(), 2 * MB);
    }
    assert_eq!(h.pending_log_len(), 0, "no outages, so no pending writes");
}

fn replica_key(path: &str) -> ObjectKey {
    ObjectKey::new(Fleet::CONTAINER, hyrd::scheme::object_name(path))
}

/// Cuts the stored replica of `path` on `provider` down to its first
/// `keep` bytes, behind the client's back.
fn truncate_replica(provider: &hyrd_cloudsim::SimProvider, path: &str, keep: usize) {
    let whole = provider.get(&replica_key(path)).unwrap().value;
    provider.put(&replica_key(path), whole.slice(..keep)).unwrap();
}

/// A replica shorter than the inode says the file is must never be
/// indexed into or handed out as the file. A freshly attached client has
/// no digests on record (verdict `Unknown`), so the length is the only
/// thing that can tell: release builds used to panic in the update
/// ("range start index 8000 out of range for slice of length 5000") and
/// the read returned the 5,000 bytes as if they were the file.
#[test]
fn short_replicas_are_erasures_not_panics() {
    let fleet = fleet();
    let data = synth_content("/short", 0, 10_000);
    hyrd(&fleet).create_file("/short", &data).unwrap();
    let replicas = [fleet.by_name("Aliyun").unwrap(), fleet.by_name("Windows Azure").unwrap()];

    // One short replica: the fastest (Aliyun) fails over to the intact one.
    truncate_replica(replicas[0], "/short", 5_000);
    let (h, _) = Hyrd::attach(&fleet, HyrdConfig::default()).unwrap();
    let (bytes, _) = h.read_file("/short").unwrap();
    assert!(bytes[..] == data[..], "read {} of {} bytes", bytes.len(), data.len());

    // Both short: typed errors, and nothing was written on top.
    truncate_replica(replicas[1], "/short", 5_000);
    let (h, _) = Hyrd::attach(&fleet, HyrdConfig::default()).unwrap();
    assert!(matches!(
        h.update_file("/short", 8_000, &[1; 100]),
        Err(SchemeError::DataUnavailable { .. })
    ));
    assert!(matches!(h.read_file("/short"), Err(SchemeError::DataUnavailable { .. })));
    for replica in replicas {
        let stored = replica.get(&replica_key("/short")).unwrap().value;
        assert!(stored[..] == data[..5_000], "{}", replica.name());
    }
}

/// The log rule (dispatcher module docs), replica side: a write that
/// lands on a returned-but-not-yet-recovered replica supersedes what the
/// log held for it. The ranged update used to patch the replica's stale
/// base and leave the older logged bytes pending, so `recover_provider`
/// replayed update 1 over update 2 and the replica ended `new|old`.
#[test]
fn an_update_after_a_replica_returns_is_not_undone_by_recovery() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let replicas = [fleet.by_name("Aliyun").unwrap(), fleet.by_name("Windows Azure").unwrap()];
    h.create_file("/f", &synth_content("/f", 0, 8 * KB)).unwrap();

    replicas[0].force_down();
    let first = synth_content("/f", 1, 4 * KB);
    h.update_file("/f", 0, &first).unwrap();
    replicas[0].restore();
    let second = synth_content("/f", 2, 4 * KB);
    h.update_file("/f", 4 * KB as u64, &second).unwrap();
    h.recover_provider(replicas[0].id()).unwrap();
    assert_eq!(h.pending_log_len(), 0);

    let acked = [first, second].concat();
    for replica in replicas {
        let stored = replica.get(&replica_key("/f")).unwrap().value;
        assert!(stored[..] == acked[..], "{} holds stale bytes", replica.name());
    }
    // A fresh client that can only reach the returned replica reads them.
    replicas[1].force_down();
    let (fresh, _) = Hyrd::attach(&fleet, HyrdConfig::default()).unwrap();
    let (bytes, _) = fresh.read_file("/f").unwrap();
    assert!(bytes[..] == acked[..]);
}

/// One replicated and one erasure-coded file, each with a provider that
/// holds a copy of it (the victim of the outage).
const TIERS: [(&str, usize, &str); 2] =
    [("/small", 8 * KB, "Aliyun"), ("/large", 2 * MB, "Amazon S3")];

/// How many objects of `path` (replicas, fragments) the fleet stores.
fn stored_objects_of(fleet: &Fleet, path: &str) -> usize {
    let prefix = hyrd::scheme::object_name(path);
    fleet
        .providers()
        .iter()
        .flat_map(|p| p.object_inventory(Fleet::CONTAINER))
        .filter(|(name, _)| name.starts_with(&*prefix))
        .count()
}

/// The log rule, stale Remove: a re-created object landing on the
/// returned provider discharges the Remove logged for its predecessor.
/// Recovery used to replay it and delete the live copy (2 replicas → 1,
/// 4 fragments → 3).
#[test]
fn a_delete_missed_in_an_outage_does_not_remove_the_recreated_file() {
    for (path, len, victim) in TIERS {
        let fleet = fleet();
        let h = hyrd(&fleet);
        let victim = fleet.by_name(victim).unwrap();
        h.create_file(path, &synth_content(path, 0, len)).unwrap();
        let copies = stored_objects_of(&fleet, path);

        victim.force_down();
        h.delete_file(path).unwrap();
        victim.restore();
        let reborn = synth_content(path, 1, len);
        h.create_file(path, &reborn).unwrap();
        h.recover_provider(victim.id()).unwrap();

        assert_eq!(h.pending_log_len(), 0);
        assert_eq!(stored_objects_of(&fleet, path), copies, "{path}: a live copy was removed");
        let (bytes, _) = h.read_file(path).unwrap();
        assert!(bytes[..] == reborn[..], "{path}");
    }
}

/// The log rule, stale Put: a delete that finds the object verifiably
/// absent on the returned provider discharges the Put logged for it.
/// Recovery used to replay it and resurrect a copy nothing references.
#[test]
fn a_create_missed_in_an_outage_is_not_resurrected_after_the_delete() {
    for (path, len, victim) in TIERS {
        let fleet = fleet();
        let h = hyrd(&fleet);
        let victim = fleet.by_name(victim).unwrap();

        victim.force_down();
        h.create_file(path, &synth_content(path, 0, len)).unwrap();
        victim.restore();
        h.delete_file(path).unwrap();
        h.recover_provider(victim.id()).unwrap();

        assert_eq!(h.pending_log_len(), 0);
        let refs = h.audit_references();
        for p in fleet.providers() {
            for (name, _) in p.object_inventory(Fleet::CONTAINER) {
                assert!(refs.contains(&name), "{path}: orphan {name} on {}", p.name());
            }
        }
    }
}

/// A returned provider can hold a *predecessor's* fragment under the
/// name the log has a pending Put for. The ranged update engine reads
/// its base from every provider that is up, so it used to fold those
/// bytes into the parity and acknowledge a stripe that no longer
/// decodes; now the update waits for the consistency update.
#[test]
fn an_erasure_update_never_builds_on_a_stale_fragment_of_a_returned_provider() {
    let fleet = fleet();
    let h = hyrd(&fleet);
    let victim = fleet.by_name("Amazon S3").unwrap();
    h.create_file("/large", &synth_content("/large", 0, 2 * MB)).unwrap();
    victim.force_down();
    h.delete_file("/large").unwrap();
    let mut acked = synth_content("/large", 1, 2 * MB);
    h.create_file("/large", &acked).unwrap();
    victim.restore();

    let patch = synth_content("/large", 2, 2 * MB);
    assert!(matches!(h.update_file("/large", 0, &patch), Err(SchemeError::DataUnavailable { .. })));
    h.recover_provider(victim.id()).unwrap();
    h.update_file("/large", 0, &patch[..MB]).unwrap();
    acked[..MB].copy_from_slice(&patch[..MB]);

    for down in fleet.providers() {
        down.force_down();
        let (bytes, _) = h.read_file("/large").unwrap();
        assert!(bytes[..] == acked[..], "without {}", down.name());
        down.restore();
    }
}

#[test]
fn an_attached_client_rejects_a_truncated_hot_copy() {
    // The attached client's integrity index is empty, so only the length
    // can tell the truncated copy from the file.
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let cfg = HyrdConfig { hot_read_threshold: Some(1), ..HyrdConfig::default() };
    let writer = Hyrd::new(&fleet, cfg.clone()).unwrap();
    let content = synth_content("/hot", 0, 2 * MB);
    writer.create_file("/hot", &content).unwrap();
    writer.read_file("/hot").unwrap(); // installs hot copy

    let hot = fleet
        .providers()
        .iter()
        .find_map(|p| {
            let inventory = p.object_inventory(Fleet::CONTAINER);
            let name = inventory.into_iter().find(|(name, _)| name.ends_with(".hot"))?.0;
            Some((p.clone(), ObjectKey::new(Fleet::CONTAINER, &name)))
        })
        .expect("the read installed a hot copy");
    let (provider, key) = hot;
    let stored = provider.get(&key).unwrap().value;
    assert_eq!(stored.len(), content.len());
    provider.put(&key, stored.slice(..stored.len() - 1)).unwrap();

    let telemetry = Collector::builder(clock).build();
    let (reader, _) = Hyrd::attach_with(&fleet, cfg, telemetry.clone()).unwrap();
    let (bytes, _) = reader.read_file("/hot").unwrap();
    assert!(bytes[..] == content[..], "served {} B, not the file from the fragments", bytes.len());
    assert_eq!(telemetry.metrics().counter("read.fallbacks"), 1);
}
