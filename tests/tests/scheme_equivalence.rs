//! Every scheme must be *functionally* identical — same bytes in, same
//! bytes out, through creates, updates, deletes and single outages. The
//! schemes differ in cost and latency, never in correctness.

use hyrd::driver::{replay, synth_content, ReplayOptions};
use hyrd::scheme::SchemeError;
use hyrd_workloads::{PostMark, PostMarkConfig};
use integration_tests::{all_schemes, fresh_fleet};

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

#[test]
fn identical_content_roundtrips_through_every_scheme() {
    let files: Vec<(String, Vec<u8>)> = vec![
        ("/tiny".to_string(), synth_content("/tiny", 0, 100)),
        ("/small".to_string(), synth_content("/small", 0, 4 * KB)),
        ("/medium".to_string(), synth_content("/medium", 0, 700 * KB)),
        ("/large".to_string(), synth_content("/large", 0, 3 * MB)),
        ("/dir/nested".to_string(), synth_content("/dir/nested", 0, 64 * KB)),
    ];
    let (_, fleet) = fresh_fleet();
    for mut scheme in all_schemes(&fleet) {
        for (path, data) in &files {
            scheme
                .create_file(path, data)
                .unwrap_or_else(|e| panic!("{} create {path}: {e}", scheme.name()));
            let (bytes, _) = scheme.read_file(path).expect("just wrote it");
            assert_eq!(&bytes[..], &data[..], "{} roundtrip {path}", scheme.name());
        }
        for (path, _) in &files {
            scheme.delete_file(path).expect("exists");
            assert!(scheme.read_file(path).is_err(), "{} must forget {path}", scheme.name());
        }
    }
}

#[test]
fn updates_are_consistent_across_schemes() {
    let (_, fleet) = fresh_fleet();
    for mut scheme in all_schemes(&fleet) {
        let name = scheme.name().to_string();
        let mut content = synth_content("/f", 0, 2 * MB + 333);
        scheme.create_file("/f", &content).unwrap_or_else(|e| panic!("{name}: {e}"));

        for (i, (offset, len)) in
            [(0usize, 50usize), (MB - 7, 20), (2 * MB, 333), (500_000, 4 * KB)].iter().enumerate()
        {
            let patch = synth_content("/f", i as u32 + 1, *len);
            scheme
                .update_file("/f", *offset as u64, &patch)
                .unwrap_or_else(|e| panic!("{name} update ({offset},{len}): {e}"));
            content[*offset..offset + len].copy_from_slice(&patch);
            let (bytes, _) = scheme.read_file("/f").expect("exists");
            assert_eq!(&bytes[..], &content[..], "{name} after update {i}");
        }
        // An 8-byte patch whose end lies past the file, including ends
        // that overflow a u64: refused, and the file is left as it was.
        let size = content.len() as u64;
        for offset in [u64::MAX, u64::MAX - 3, size - 3] {
            match scheme.update_file("/f", offset, &[0xA5; 8]) {
                Err(SchemeError::BadRange { .. }) => {}
                other => panic!("{name} update at {offset}: {other:?}"),
            }
            let (bytes, _) = scheme.read_file("/f").expect("exists");
            assert_eq!(&bytes[..], &content[..], "{name} after refused update at {offset}");
        }
        scheme.delete_file("/f").expect("exists");
    }
}

#[test]
fn single_outage_never_loses_committed_data_in_any_coc_scheme() {
    // All schemes except SingleCloud must mask one outage.
    let (_, fleet) = fresh_fleet();
    let victims = ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"];
    for mut scheme in all_schemes(&fleet).into_iter().skip(1) {
        let name = scheme.name().to_string();
        let small = synth_content("/s", 0, 8 * KB);
        let large = synth_content("/l", 0, 2 * MB);
        scheme.create_file(&format!("/{name}/s"), &small).expect("fleet up");
        scheme.create_file(&format!("/{name}/l"), &large).expect("fleet up");

        for victim in victims {
            // DuraCloud only spans S3+Azure: skip outages outside its pair
            // for the large test (it has no redundancy elsewhere to lose).
            fleet.by_name(victim).expect("standard fleet").force_down();
            let (s, _) = scheme
                .read_file(&format!("/{name}/s"))
                .unwrap_or_else(|e| panic!("{name} small with {victim} down: {e}"));
            let (l, _) = scheme
                .read_file(&format!("/{name}/l"))
                .unwrap_or_else(|e| panic!("{name} large with {victim} down: {e}"));
            assert_eq!(&s[..], &small[..], "{name} small bytes with {victim} down");
            assert_eq!(&l[..], &large[..], "{name} large bytes with {victim} down");
            fleet.by_name(victim).expect("standard fleet").restore();
        }
    }
}

#[test]
fn postmark_replay_verified_bytewise_on_every_scheme() {
    let config = PostMarkConfig {
        initial_files: 15,
        transactions: 60,
        subdirectories: 3,
        size_dist: hyrd_workloads::FileSizeDist::log_uniform(KB as u64, 2 * MB as u64),
        seed: 99,
        ..PostMarkConfig::default()
    };
    let (ops, _) = PostMark::new(config).generate();
    let opts = ReplayOptions { verify_reads: true, ..Default::default() };

    let (clock, fleet) = fresh_fleet();
    for mut scheme in all_schemes(&fleet) {
        let stats = replay(scheme.as_mut(), &ops, &clock, &opts);
        assert_eq!(stats.errors, 0, "{} errored", stats.scheme);
        assert_eq!(stats.verify_failures, 0, "{} served wrong bytes", stats.scheme);
        assert!(stats.overall.count() > 100, "{} ran the workload", stats.scheme);
    }
}

#[test]
fn storage_overhead_ordering_matches_the_redundancy() {
    // DepSky (4x) > NCCloud (2x) ≈ DuraCloud (2x) > HyRD ≈ RACS (4/3).
    let payload = synth_content("/f", 0, 3 * MB);
    let mut overheads = std::collections::HashMap::new();
    for make in 0..6 {
        let (_, fleet) = fresh_fleet();
        let mut schemes = all_schemes(&fleet);
        let scheme = &mut schemes[make];
        scheme.create_file("/f", &payload).expect("fleet up");
        let name = scheme.name().to_string();
        overheads.insert(name, fleet.total_stored_bytes() as f64 / payload.len() as f64);
    }
    assert!(overheads["DepSky"] > 3.9);
    assert!(overheads["DuraCloud"] > 1.9 && overheads["DuraCloud"] < 2.2);
    assert!(overheads["NCCloud-lite"] > 1.9 && overheads["NCCloud-lite"] < 2.2);
    assert!(overheads["RACS"] > 1.3 && overheads["RACS"] < 1.4);
    assert!(overheads["HyRD"] > 1.3 && overheads["HyRD"] < 1.4);
    assert!(overheads["Single(Amazon S3)"] < 1.1);
}
