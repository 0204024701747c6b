//! Client bootstrap (`Hyrd::attach`): a fresh client loads the namespace
//! from the cloud's metadata blocks — the market-mobility scenario where
//! the user's machine changes but the Cloud-of-Clouds keeps the data.

use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd_gcsapi::OpKind;
use integration_tests::fresh_fleet;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

#[test]
fn fresh_client_sees_everything_the_old_client_wrote() {
    let (_, fleet) = fresh_fleet();
    let mut audit: Vec<(String, Vec<u8>)> = Vec::new();
    {
        let old = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        for (path, size) in [
            ("/docs/a.txt", 2 * KB),
            ("/docs/b.txt", 700 * KB),
            ("/media/big.bin", 3 * MB),
            ("/deep/nested/dir/file", 16 * KB),
        ] {
            let data = synth_content(path, 0, size);
            old.create_file(path, &data).expect("fleet up");
            audit.push((path.to_string(), data));
        }
        // The old client goes away (dropped).
    }

    let (fresh, bootstrap) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("namespace loads");
    assert!(bootstrap.ops.iter().any(|o| o.kind == OpKind::List), "bootstrap Lists");
    assert!(
        bootstrap.ops.iter().filter(|o| o.kind == OpKind::Get).count() >= 3,
        "one Get per populated directory block"
    );

    for (path, want) in &audit {
        assert_eq!(fresh.file_size(path), Some(want.len() as u64), "{path}");
        let (got, _) = fresh.read_file(path).expect("loaded placement serves");
        assert_eq!(&got[..], &want[..], "{path}");
    }
    let (names, _) = fresh.list_dir("/docs").expect("loaded namespace");
    assert_eq!(names, vec!["a.txt", "b.txt"]);
}

#[test]
fn fresh_client_writes_never_collide_with_adopted_objects() {
    let (_, fleet) = fresh_fleet();
    {
        let old = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        for i in 0..8 {
            old.create_file(&format!("/old/f{i}"), &synth_content("o", i, 4 * KB))
                .expect("fleet up");
        }
        // Delete a few so the surviving id space is sparse.
        old.delete_file("/old/f0").expect("exists");
        old.delete_file("/old/f3").expect("exists");
    }

    let (fresh, _) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("loads");
    // New files must take ids beyond every adopted one.
    for i in 0..10 {
        let data = synth_content("n", i, 8 * KB);
        fresh.create_file(&format!("/new/f{i}"), &data).expect("fleet up");
    }
    // Old and new all intact.
    for i in [1u32, 2, 4, 5, 6, 7] {
        let (got, _) = fresh.read_file(&format!("/old/f{i}")).expect("adopted");
        assert_eq!(&got[..], &synth_content("o", i, 4 * KB)[..]);
    }
    for i in 0..10 {
        let (got, _) = fresh.read_file(&format!("/new/f{i}")).expect("created");
        assert_eq!(&got[..], &synth_content("n", i, 8 * KB)[..]);
    }
}

#[test]
fn attach_works_during_a_single_outage() {
    let (_, fleet) = fresh_fleet();
    let data = synth_content("/f", 0, 2 * MB);
    {
        let old = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        old.create_file("/f", &data).expect("fleet up");
    }
    // A metadata replica is down; the survivor serves the bootstrap.
    fleet.by_name("Aliyun").expect("standard fleet").force_down();
    let (fresh, _) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("survivor serves");
    let (got, _) = fresh.read_file("/f").expect("degraded read");
    assert_eq!(&got[..], &data[..]);
}

#[test]
fn attach_to_an_empty_namespace_is_fine() {
    let (_, fleet) = fresh_fleet();
    let (fresh, bootstrap) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("empty is valid");
    assert_eq!(bootstrap.ops.iter().filter(|o| o.kind == OpKind::Get).count(), 0);
    fresh.create_file("/first", &[1u8; 100]).expect("fleet up");
    assert_eq!(fresh.file_size("/first"), Some(100));
}

#[test]
fn updates_by_the_new_client_persist_through_another_attach() {
    let (_, fleet) = fresh_fleet();
    let mut content = synth_content("/f", 0, 2 * MB);
    {
        let a = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        a.create_file("/f", &content).expect("fleet up");
    }
    {
        let (b, _) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("loads");
        let patch = synth_content("/f", 1, 32 * KB);
        b.update_file("/f", 500_000, &patch).expect("adopted placement");
        content[500_000..500_000 + patch.len()].copy_from_slice(&patch);
    }
    let (c, _) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("loads again");
    let (got, _) = c.read_file("/f").expect("present");
    assert_eq!(&got[..], &content[..]);
}

/// What a client wrote while the fastest metadata replica was down is
/// the namespace, even if that client is gone before the replica is
/// recovered: the returned replica lists fewer names and serves older
/// blocks, and neither its rank nor its answering first may let it
/// decide what a new client sees.
#[test]
fn attach_sees_what_was_written_while_the_fastest_metadata_replica_was_down() {
    let (_, fleet) = fresh_fleet();
    let mut audit: Vec<(&str, Vec<u8>)> = Vec::new();
    {
        let a = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let fastest = fleet.get(a.evaluator().fastest_first()[0]).expect("in the fleet").clone();
        a.create_file("/docs/before.txt", &synth_content("/docs/before.txt", 0, 4 * KB))
            .expect("fleet up");

        fastest.force_down();
        for (path, size) in [
            ("/docs/during.txt", 6 * KB),
            ("/new-dir/small.txt", 8 * KB),
            ("/new-dir/big.bin", 2 * MB),
        ] {
            let data = synth_content(path, 0, size);
            a.create_file(path, &data).expect("one replica and three fragments take it");
            audit.push((path, data));
        }
        // Client A is dropped without `recover_provider`; the replica returns.
        fastest.restore();
    }

    let (b, _) = Hyrd::attach(&fleet, HyrdConfig::default()).expect("namespace loads");
    let (names, _) = b.list_dir("/docs").expect("loaded namespace");
    assert_eq!(names, vec!["before.txt", "during.txt"]);
    let (names, _) = b.list_dir("/new-dir").expect("a directory the stale replica never listed");
    assert_eq!(names, vec!["big.bin", "small.txt"]);
    for (path, want) in &audit {
        assert_eq!(b.file_size(path), Some(want.len() as u64), "{path}");
        let (got, _) = b.read_file(path).expect("created during the outage");
        assert_eq!(&got[..], &want[..], "{path}");
    }
}

#[test]
fn attach_fails_typed_when_no_provider_answers_the_list() {
    let (_, fleet) = fresh_fleet();
    for p in fleet.providers() {
        p.force_down();
    }
    assert!(matches!(
        Hyrd::attach(&fleet, HyrdConfig::default()),
        Err(SchemeError::DataUnavailable { .. })
    ));
}
