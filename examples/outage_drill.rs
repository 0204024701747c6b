//! Outage drill: a scripted multi-day incident with scheduled outage
//! windows, writes during the blackout, degraded reads, the two-phase
//! recovery of §III-C, and a final bytewise audit.
//!
//! ```sh
//! cargo run -p hyrd-examples --bin outage_drill
//! ```

use std::time::Duration;

use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd_cloudsim::clock::units::hours;
use hyrd_gcsapi::CloudStorage;

fn main() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let hyrd = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");

    // The incident calendar: Aliyun drops out from hour 2 to hour 8
    // ("the period may be hours and up to days", §III-C).
    let aliyun = fleet.by_name("Aliyun").expect("standard fleet");
    aliyun.schedule_outage(hours(2), hours(8));
    println!("scheduled: Aliyun outage from t+2h to t+8h");

    // t = 0: business as usual.
    let mut audit: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..5 {
        let path = format!("/pre/doc{i}");
        let data = synth_content(&path, 0, 32 << 10);
        hyrd.create_file(&path, &data).expect("all providers up");
        audit.push((path, data));
    }
    let big = synth_content("/pre/archive.tar", 0, 4 << 20);
    hyrd.create_file("/pre/archive.tar", &big).expect("all providers up");
    audit.push(("/pre/archive.tar".to_string(), big));
    println!("t+0h: wrote 5 small docs + one 4MB archive");

    // t = 3h: inside the outage window.
    clock.advance(hours(3));
    assert!(!aliyun.is_available(), "scheduled window is open");
    println!(
        "\nt+3h: Aliyun is dark ({})",
        if aliyun.is_available() { "up?!" } else { "confirmed" }
    );

    // Reads are served degraded.
    for (path, want) in &audit {
        let (got, report) = hyrd.read_file(path).expect("degraded read works");
        assert_eq!(&got[..], &want[..], "degraded read of {path}");
        print!("  read {path}: ok ({} ops)  ", report.op_count());
    }
    println!();

    // Writes land on the survivors and are logged for Aliyun.
    for i in 0..4 {
        let path = format!("/during/f{i}");
        let data = synth_content(&path, 0, 16 << 10);
        hyrd.create_file(&path, &data).expect("survivors take the write");
        audit.push((path, data));
    }
    let update = synth_content("/pre/archive.tar", 1, 8 << 10);
    hyrd.update_file("/pre/archive.tar", 100_000, &update).expect("degraded update works");
    let entry = audit.iter_mut().find(|(p, _)| p == "/pre/archive.tar").expect("tracked");
    entry.1[100_000..100_000 + update.len()].copy_from_slice(&update);
    println!(
        "t+3h: 4 new files + 1 archive update during the outage; log={} dirty-fragments={}",
        hyrd.pending_log_len(),
        hyrd.pending_dirty_fragments()
    );

    // t = 9h: the window closed; run the consistency update.
    clock.advance(hours(6));
    assert!(aliyun.is_available(), "outage window is over");
    let (recovery, batch) = hyrd.recover_provider(aliyun.id()).expect("provider is back");
    println!(
        "\nt+9h: consistency update — {} puts + {} removes replayed, {} bytes restored, {:.3}s of background traffic",
        recovery.puts_replayed,
        recovery.removes_replayed,
        recovery.bytes_restored,
        batch.latency.as_secs_f64()
    );
    assert_eq!(hyrd.pending_log_len(), 0);
    assert_eq!(hyrd.pending_dirty_fragments(), 0);

    // Final audit: every file must be intact even with OTHER providers
    // failing one at a time — Aliyun's copies now carry their weight.
    println!("\nfinal audit (each provider failed in turn):");
    for victim in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        fleet.by_name(victim).expect("standard fleet").force_down();
        let mut ok = 0;
        for (path, want) in &audit {
            let (got, _) = hyrd.read_file(path).expect("single outage must not lose data");
            assert_eq!(&got[..], &want[..], "{path} with {victim} down");
            ok += 1;
        }
        fleet.by_name(victim).expect("standard fleet").restore();
        println!("  {victim} down: {ok}/{} files verified bytewise", audit.len());
    }
    println!("\ndrill passed: zero data loss, zero unavailability.");
    let _ = Duration::ZERO;
}
