//! A write a baseline refuses with `DataUnavailable` leaves nothing for
//! recovery to replay: once its providers are back and recovered, a
//! refused create has left no object, and a refused update has left the
//! pre-update bytes on every replica. One test per layout: the three
//! replicated ones, and the two erasure-coded ones for a striped create.

use std::sync::Arc;

use hyrd::scheme::{fragment_name, object_name, Scheme, SchemeError};
use hyrd_cloudsim::{Fleet, SimClock, SimProvider};
use hyrd_gcsapi::{CloudError, CloudStorage};

use crate::common::key;
use crate::{NcCloudLite, Racs, Replicated};

fn refused<T: std::fmt::Debug>(result: Result<T, SchemeError>) {
    assert!(matches!(result, Err(SchemeError::DataUnavailable { .. })), "{result:?}");
}

/// What `p` holds under `name`, or `None` when it holds nothing there.
fn stored(p: &SimProvider, name: &str) -> Option<Vec<u8>> {
    match p.get(&key(name)) {
        Ok(out) => Some(out.value.to_vec()),
        Err(CloudError::NoSuchObject { .. }) => None,
        Err(e) => panic!("{}: {e:?}", p.name()),
    }
}

/// Creates `/d/a`, takes `down` out, has a create and an update refused,
/// brings `down` back and recovers it; then no replica holds `/d/b` and
/// every replica holds `/d/a` as it was before the refused update.
fn replicated(mut s: Replicated, fleet: &Fleet, down: &[&str]) {
    let a: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    s.create_file("/d/a", &a).unwrap();
    let replicas: Vec<bool> =
        fleet.providers().iter().map(|p| stored(p, &object_name("/d/a")).is_some()).collect();
    let down: Vec<Arc<SimProvider>> =
        down.iter().map(|name| fleet.by_name(name).expect("standard fleet").clone()).collect();
    for p in &down {
        p.force_down();
    }
    refused(s.create_file("/d/b", &[7u8; 5000]));
    refused(s.update_file("/d/a", 100, &[1u8; 64]));
    for p in &down {
        p.restore();
        s.recover_provider(p.id()).expect("the provider is back");
    }
    assert_eq!(s.pending_log_len(), 0, "{}", s.name());
    for (p, replica) in fleet.providers().iter().zip(replicas) {
        let orphan = stored(p, &object_name("/d/b")).map(|b| b.len());
        assert_eq!(orphan, None, "{} on {}: bytes of the refused create", s.name(), p.name());
        let held = stored(p, &object_name("/d/a"));
        let (name, provider) = (s.name(), p.name());
        assert!(held == replica.then(|| a.clone()), "{name} on {provider}: /d/a is not as it was");
    }
    assert_eq!(s.file_size("/d/b"), None);
    assert_eq!(&s.read_file("/d/a").unwrap().0[..], &a[..], "{}", s.name());
}

#[test]
fn single_cloud_refused_writes_leave_nothing_to_replay() {
    let fleet = Fleet::standard_four(SimClock::new());
    let s = Replicated::amazon_s3(&fleet).unwrap();
    replicated(s, &fleet, &["Amazon S3"]);
}

#[test]
fn duracloud_refused_writes_leave_nothing_to_replay() {
    let fleet = Fleet::standard_four(SimClock::new());
    let s = Replicated::duracloud_standard(&fleet).unwrap();
    replicated(s, &fleet, &["Amazon S3", "Windows Azure"]);
}

#[test]
fn depsky_refused_writes_leave_nothing_to_replay() {
    let fleet = Fleet::standard_four(SimClock::new());
    let s = Replicated::depsky(&fleet).unwrap();
    replicated(s, &fleet, &["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"]);
}

/// A striped create (2 MiB, past the strip layout's 1 MiB) with `down`
/// out lands fewer than `m` fragments and is refused; once `down` is back
/// and recovered, no provider holds a fragment of it.
fn erasure_coded<S: Scheme>(mut s: S, fleet: &Fleet, down: &[&str], pending: impl Fn(&S) -> usize) {
    let down: Vec<Arc<SimProvider>> =
        down.iter().map(|name| fleet.by_name(name).expect("standard fleet").clone()).collect();
    for p in &down {
        p.force_down();
    }
    refused(s.create_file("/d/big", &vec![3u8; 2 << 20]));
    for p in &down {
        p.restore();
        s.recover_provider(p.id()).expect("the provider is back");
    }
    assert_eq!(pending(&s), 0, "{}", s.name());
    let base = object_name("/d/big");
    for p in fleet.providers() {
        for index in 0..fleet.len() {
            let name = fragment_name(&base, index);
            let orphan = stored(p, &name).map(|b| b.len());
            assert_eq!(orphan, None, "{} fragment {index} on {}", s.name(), p.name());
        }
    }
    assert_eq!(s.file_size("/d/big"), None);
}

#[test]
fn racs_refused_create_leaves_no_fragment() {
    let fleet = Fleet::standard_four(SimClock::new());
    let s = Racs::new(&fleet).unwrap();
    erasure_coded(s, &fleet, &["Amazon S3", "Windows Azure"], |s| s.core.log.len());
}

#[test]
fn nccloud_refused_create_leaves_no_fragment() {
    let fleet = Fleet::standard_four(SimClock::new());
    let s = NcCloudLite::new(&fleet).unwrap();
    erasure_coded(s, &fleet, &["Amazon S3", "Windows Azure", "Aliyun"], |s| s.core.log.len());
}
