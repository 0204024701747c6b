//! Quickstart: store files in a Cloud-of-Clouds with HyRD and watch the
//! hybrid placement do its job.
//!
//! ```sh
//! cargo run -p hyrd-examples --bin quickstart
//! ```

use hyrd::prelude::*;
use hyrd_gcsapi::CloudStorage;

fn main() {
    // The paper's fleet: Amazon S3, Windows Azure, Aliyun, Rackspace —
    // simulated with their Table II prices and calibrated latencies.
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let hyrd = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");

    println!("== provider tiers derived by the evaluator ==");
    for a in hyrd.evaluator().assessments() {
        println!(
            "  {:<14} probe={:>6.3}s  performance-tier={:<5} cost-tier={}",
            a.name,
            a.probe_get.as_secs_f64(),
            a.performance_oriented,
            a.cost_oriented
        );
    }

    // A small file: replicated on the performance tier (Aliyun + Azure).
    let note = b"meeting notes: move everything to the cloud-of-clouds".to_vec();
    let report = hyrd.create_file("/docs/note.txt", &note).expect("fleet is up");
    println!(
        "\nsmall file -> {} replica puts, {:.3}s",
        report.op_count(),
        report.latency.as_secs_f64()
    );

    // A large file: RAID5-striped across all four providers.
    let video = vec![0x42u8; 8 << 20];
    let report = hyrd.create_file("/media/talk.mp4", &video).expect("fleet is up");
    println!(
        "large file -> {} fragment puts, {:.3}s",
        report.op_count(),
        report.latency.as_secs_f64()
    );
    println!(
        "storage overhead: {:.2}x logical",
        hyrd.physical_bytes() as f64 / hyrd.logical_bytes() as f64
    );

    // Reads: small from the fastest replica, large striped in parallel.
    let (bytes, report) = hyrd.read_file("/docs/note.txt").expect("replica up");
    assert_eq!(bytes, note.as_slice());
    println!(
        "\nsmall read: 1 get from {} in {:.3}s",
        fleet.get(report.ops[0].provider).expect("fleet member").name(),
        report.latency.as_secs_f64()
    );
    let (bytes, report) = hyrd.read_file("/media/talk.mp4").expect("fragments up");
    assert_eq!(bytes.len(), video.len());
    println!(
        "large read: {} parallel fragment gets in {:.3}s",
        report.op_count(),
        report.latency.as_secs_f64()
    );

    // An outage: Azure goes dark. Everything keeps working.
    println!("\n== Windows Azure goes down ==");
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");
    azure.force_down();
    let (_, r1) = hyrd.read_file("/docs/note.txt").expect("surviving replica");
    let (_, r2) = hyrd.read_file("/media/talk.mp4").expect("degraded read");
    println!("small read still {:.3}s (surviving replica)", r1.latency.as_secs_f64());
    println!("large read {:.3}s (fragments re-routed)", r2.latency.as_secs_f64());

    // Writes during the outage are logged for the consistency update.
    hyrd.create_file("/docs/during-outage.txt", b"written while azure is down")
        .expect("survivors take the write");
    println!("pending consistency-update records: {}", hyrd.pending_log_len());

    // Azure returns: replay the log.
    azure.restore();
    let (recovery, batch) = hyrd.recover_provider(azure.id()).expect("provider is back");
    println!(
        "recovered: {} puts replayed, {} bytes restored, {} ops",
        recovery.puts_replayed,
        recovery.bytes_restored,
        batch.op_count()
    );
    assert_eq!(hyrd.pending_log_len(), 0);
    println!("\nall good — every byte survived the outage.");
}
