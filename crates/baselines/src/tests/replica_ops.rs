//! Op-for-op reference of the replicated layouts: single cloud on S3,
//! DuraCloud on S3 + Azure and DepSky on the whole fleet each run one
//! fixed request sequence — create, read, update with a cache hit, update
//! with a cache miss, delete, list — once on a healthy fleet and once
//! with the first provider of their read order down (restored and
//! recovered at the end). Every request's provider ops `(provider, kind,
//! bytes in, bytes out)`, in issue order, and its batch latency are
//! pinned below: a change to how a layout fans out, composes or orders
//! its I/O shows here as a changed line.

use bytes::Bytes;
use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gcsapi::{BatchReport, CloudStorage};

use crate::Replicated;

/// One line per request: `step ok latency_ns | p<id> Kind in/out, ...`, or
/// `step err <error>`.
fn line(step: &str, result: SchemeResult<BatchReport>) -> String {
    let batch = match result {
        Ok(batch) => batch,
        Err(SchemeError::DataUnavailable { .. }) => return format!("{step} err DataUnavailable"),
        Err(e) => return format!("{step} err {e:?}"),
    };
    let mut out = format!("{step} ok {}", batch.latency.as_nanos());
    for (i, o) in batch.ops.iter().enumerate() {
        let sep = if i == 0 { " | " } else { ", " };
        out += &format!("{sep}p{} {:?} {}/{}", o.provider.0, o.kind, o.bytes_in, o.bytes_out);
    }
    out
}

/// Runs the sequence on `s`; `forget` drops a path from its client
/// content cache, so the second update has to read the file back first.
fn run<S: Scheme>(
    mut s: S,
    fleet: &Fleet,
    victim: Option<&str>,
    forget: fn(&mut S, &str),
) -> Vec<String> {
    let a: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let mut expect = a.clone();
    let mut out = vec![line("setup create /d/a", s.create_file("/d/a", &a))];
    let down = victim.map(|name| fleet.by_name(name).expect("standard fleet").clone());
    if let Some(p) = &down {
        p.force_down();
    }
    out.push(line("create /d/b", s.create_file("/d/b", &[7u8; 5000])));
    let read = s.read_file("/d/a").map(|(bytes, batch)| {
        assert_eq!(&bytes[..], &expect[..], "{} reads what it wrote", s.name());
        batch
    });
    out.push(line("read /d/a", read));
    let hit = s.update_file("/d/a", 100, &[1u8; 64]);
    if hit.is_ok() {
        expect[100..164].copy_from_slice(&[1u8; 64]);
    }
    out.push(line("update /d/a hit", hit));
    forget(&mut s, "/d/a");
    let miss = s.update_file("/d/a", 2000, &[2u8; 32]);
    if miss.is_ok() {
        expect[2000..2032].copy_from_slice(&[2u8; 32]);
    }
    out.push(line("update /d/a miss", miss));
    if let Ok((bytes, _)) = s.read_file("/d/a") {
        assert_eq!(bytes, Bytes::from(expect), "{} applied both updates", s.name());
    }
    out.push(line("delete /d/b", s.delete_file("/d/b")));
    let listed = s.list_dir("/d").map(|(names, batch)| {
        assert_eq!(names, vec!["a"], "{}", s.name());
        batch
    });
    out.push(line("list /d", listed));
    if let Some(p) = down {
        p.restore();
        out.push(line("recover", s.recover_provider(p.id()).map(|(_, batch)| batch)));
    }
    out
}

fn sequences() -> Vec<String> {
    let mut out = Vec::new();
    for victim in [None, Some(())] {
        let fleet = Fleet::standard_four(SimClock::new());
        let s = Replicated::amazon_s3(&fleet).unwrap();
        out.push(format!("# {} {}", s.name(), if victim.is_some() { "down" } else { "up" }));
        out.extend(run(s, &fleet, victim.map(|_| "Amazon S3"), |s, p| s.cache.remove(p)));

        let fleet = Fleet::standard_four(SimClock::new());
        let s = Replicated::duracloud_standard(&fleet).unwrap();
        out.push(format!("# {} {}", s.name(), if victim.is_some() { "down" } else { "up" }));
        out.extend(run(s, &fleet, victim.map(|_| "Amazon S3"), |s, p| s.cache.remove(p)));

        let fleet = Fleet::standard_four(SimClock::new());
        let s = Replicated::depsky(&fleet).unwrap();
        out.push(format!("# {} {}", s.name(), if victim.is_some() { "down" } else { "up" }));
        out.extend(run(s, &fleet, victim.map(|_| "Aliyun"), |s, p| s.cache.remove(p)));
    }
    out
}

const PINNED: &str = r#"
# Single(Amazon S3) up
setup create /d/a ok 639024091 | p0 Put 3000/0, p0 Put 111/0
create /d/b ok 617720790 | p0 Put 5000/0, p0 Put 192/0
read /d/a ok 311531463 | p0 Get 0/3000
update /d/a hit ok 610167923 | p0 Put 64/0, p0 Put 192/0
update /d/a miss ok 911188031 | p0 Get 0/3000, p0 Put 32/0, p0 Put 192/0
delete /d/b ok 621965258 | p0 Remove 0/0, p0 Put 111/0
list /d ok 295681425 | p0 Get 0/111
# DuraCloud up
setup create /d/a ok 892560669 | p0 Put 3000/0, p1 Put 3000/0, p0 Put 113/0, p1 Put 113/0
create /d/b ok 865302010 | p0 Put 5000/0, p1 Put 5000/0, p0 Put 196/0, p1 Put 196/0
read /d/a ok 311531463 | p0 Get 0/3000
update /d/a hit ok 853522900 | p0 Put 64/0, p1 Put 64/0, p0 Put 196/0, p1 Put 196/0
update /d/a miss ok 1152152559 | p0 Get 0/3000, p0 Put 32/0, p1 Put 32/0, p0 Put 196/0, p1 Put 196/0
delete /d/b ok 733373129 | p0 Remove 0/0, p1 Remove 0/0, p0 Put 113/0, p1 Put 113/0
list /d ok 295693717 | p0 Get 0/113
# DepSky up
setup create /d/a ok 639081367 | p0 Put 3000/0, p1 Put 3000/0, p2 Put 3000/0, p3 Put 3000/0, p0 Put 117/0, p1 Put 117/0, p2 Put 117/0, p3 Put 117/0
create /d/b ok 617831748 | p0 Put 5000/0, p1 Put 5000/0, p2 Put 5000/0, p3 Put 5000/0, p0 Put 204/0, p1 Put 204/0, p2 Put 204/0, p3 Put 204/0
read /d/a ok 41922517 | p2 Get 0/3000
update /d/a hit ok 610185746 | p0 Put 64/0, p1 Put 64/0, p2 Put 64/0, p3 Put 64/0, p0 Put 204/0, p1 Put 204/0, p2 Put 204/0, p3 Put 204/0
update /d/a miss ok 645855655 | p2 Get 0/3000, p0 Put 32/0, p1 Put 32/0, p2 Put 32/0, p3 Put 32/0, p0 Put 204/0, p1 Put 204/0, p2 Put 204/0, p3 Put 204/0
delete /d/b ok 635758549 | p0 Remove 0/0, p1 Remove 0/0, p2 Remove 0/0, p3 Remove 0/0, p0 Put 117/0, p1 Put 117/0, p2 Put 117/0, p3 Put 117/0
list /d ok 39696464 | p2 Get 0/117
# Single(Amazon S3) down
setup create /d/a ok 639024091 | p0 Put 3000/0, p0 Put 111/0
create /d/b err DataUnavailable
read /d/a err DataUnavailable
update /d/a hit err DataUnavailable
update /d/a miss err DataUnavailable
delete /d/b err Meta(NoSuchFile("/d/b"))
list /d ok 0
recover ok 323626788 | p0 Put 3000/0
# DuraCloud down
setup create /d/a ok 892560669 | p0 Put 3000/0, p1 Put 3000/0, p0 Put 113/0, p1 Put 113/0
create /d/b ok 247544234 | p1 Put 5000/0, p1 Put 196/0
read /d/a ok 124371832 | p1 Get 0/3000
update /d/a hit ok 243352554 | p1 Put 64/0, p1 Put 196/0
update /d/a miss ok 364323625 | p1 Get 0/3000, p1 Put 32/0, p1 Put 196/0
delete /d/b ok 247070847 | p1 Remove 0/0, p1 Put 113/0
list /d ok 118647519 | p1 Get 0/113
recover ok 596999146 | p0 Put 3000/0, p0 Put 113/0
# DepSky down
setup create /d/a ok 639081367 | p0 Put 3000/0, p1 Put 3000/0, p2 Put 3000/0, p3 Put 3000/0, p0 Put 117/0, p1 Put 117/0, p2 Put 117/0, p3 Put 117/0
create /d/b ok 700970616 | p0 Put 5000/0, p1 Put 5000/0, p3 Put 5000/0, p0 Put 204/0, p1 Put 204/0, p3 Put 204/0
read /d/a ok 124371832 | p1 Get 0/3000
update /d/a hit ok 710745058 | p0 Put 64/0, p1 Put 64/0, p3 Put 64/0, p0 Put 204/0, p1 Put 204/0, p3 Put 204/0
update /d/a miss ok 831289016 | p1 Get 0/3000, p0 Put 32/0, p1 Put 32/0, p3 Put 32/0, p0 Put 204/0, p1 Put 204/0, p3 Put 204/0
delete /d/b ok 680820434 | p0 Remove 0/0, p1 Remove 0/0, p3 Remove 0/0, p0 Put 117/0, p1 Put 117/0, p3 Put 117/0
list /d ok 118656290 | p1 Get 0/117
recover ok 81073343 | p2 Put 3000/0, p2 Put 117/0
"#;

#[test]
fn replica_layouts_issue_the_pinned_op_sequences() {
    let got = sequences();
    let want: Vec<&str> = PINNED.trim().lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "line {i}; whole sequence now:\n{}", got.join("\n"));
    }
    assert_eq!(got.len(), want.len(), "whole sequence now:\n{}", got.join("\n"));
}
