//! Ablation: the §VI deduplication extension — "apply data deduplication
//! in the HyRD module to eliminate the redundant data and reduce the
//! total data transferred over the network".
//!
//! Workload: a backup-style scenario (the dedup-friendliest case): daily
//! snapshots of a working set where a few percent of each file mutates
//! between snapshots. Measures network transfer, upload latency, cloud
//! storage footprint, and the client-side index memory §VI warns about.

use hyrd::prelude::*;
use hyrd::DedupStore;
use hyrd_bench::header;

fn content(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

/// `days` snapshots of `files` working-set files, `mutation` fraction of
/// each file rewritten per day.
fn snapshots(files: usize, size: usize, days: usize, mutation: f64) -> Vec<Vec<(String, Vec<u8>)>> {
    let mut working: Vec<Vec<u8>> = (0..files).map(|i| content(size, i as u64)).collect();
    let mut out = Vec::new();
    for day in 0..days {
        // Mutate a contiguous region of each file (e.g. appended log
        // records, edited documents).
        if day > 0 {
            for (i, f) in working.iter_mut().enumerate() {
                let span = ((size as f64) * mutation) as usize;
                let at = (day * 7919 + i * 104729) % (size - span);
                let patch = content(span, (day * 1000 + i) as u64 + 0xFFFF);
                f[at..at + span].copy_from_slice(&patch);
            }
        }
        out.push(
            working
                .iter()
                .enumerate()
                .map(|(i, f)| (format!("/backup/day{day}/f{i}"), f.clone()))
                .collect(),
        );
    }
    out
}

fn main() {
    let days = 5;
    let files = 8;
    let size = 512 << 10;
    let mutation = 0.03;
    let data = snapshots(files, size, days, mutation);
    let logical: u64 = (days * files * size) as u64;

    header(&format!(
        "Dedup ablation: {days} daily snapshots of {files} x {}KB, {:.0}% daily churn",
        size >> 10,
        mutation * 100.0
    ));

    // Plain HyRD: every snapshot uploads everything.
    let fleet_plain = Fleet::standard_four(SimClock::new());
    for p in fleet_plain.providers() {
        p.set_ghost_mode(true);
    }
    let plain = Hyrd::new(&fleet_plain, HyrdConfig::default()).expect("valid config");
    let mut plain_latency = 0.0;
    for day in &data {
        for (path, bytes) in day {
            let r = plain.create_file(path, bytes).expect("fleet up");
            plain_latency += r.latency.as_secs_f64();
        }
    }
    let plain_transferred: u64 = fleet_plain.providers().iter().map(|p| p.stats().bytes_in).sum();

    // HyRD + dedup: only changed chunks travel after day 0.
    let fleet_dedup = Fleet::standard_four(SimClock::new());
    for p in fleet_dedup.providers() {
        p.set_ghost_mode(true);
    }
    let hyrd = Hyrd::new(&fleet_dedup, HyrdConfig::default()).expect("valid config");
    let mut dedup = DedupStore::new(hyrd);
    let mut dedup_latency = 0.0;
    for day in &data {
        for (path, bytes) in day {
            let r = dedup.write_file(path, bytes).expect("fleet up");
            dedup_latency += r.latency.as_secs_f64();
        }
    }
    let dedup_transferred: u64 = fleet_dedup.providers().iter().map(|p| p.stats().bytes_in).sum();

    println!(
        "{:<14} {:>16} {:>16} {:>14} {:>12}",
        "variant", "transferred MB", "cloud-stored MB", "upload lat(s)", "ratio"
    );
    println!(
        "{:<14} {:>16.1} {:>16.1} {:>14.1} {:>12.2}",
        "HyRD",
        plain_transferred as f64 / 1e6,
        fleet_plain.total_stored_bytes() as f64 / 1e6,
        plain_latency,
        1.0
    );
    println!(
        "{:<14} {:>16.1} {:>16.1} {:>14.1} {:>12.2}",
        "HyRD+dedup",
        dedup_transferred as f64 / 1e6,
        fleet_dedup.total_stored_bytes() as f64 / 1e6,
        dedup_latency,
        dedup.stats().dedup_ratio()
    );
    println!();
    println!(
        "logical data: {:.1} MB; dedup saw {} unique + {} duplicate chunks",
        logical as f64 / 1e6,
        dedup.stats().unique_chunks,
        dedup.stats().duplicate_chunks
    );
    println!(
        "network savings: {:.1}%   upload-latency savings: {:.1}%",
        (1.0 - dedup_transferred as f64 / plain_transferred as f64) * 100.0,
        (1.0 - dedup_latency / plain_latency) * 100.0
    );
    println!(
        "client-side index memory (the §VI cost): {:.1} KB for {} chunks",
        dedup.index_memory_bytes() as f64 / 1e3,
        dedup.unique_chunks()
    );
}
