//! Ablation: small-update write amplification and recovery traffic
//! (DESIGN.md §4.5) — the §II-B motivation numbers, measured.
//!
//! * Small updates: the paper's "a small update in the RACS system will
//!   incur a total of 4 accesses, including traffic of 2 reads and 2
//!   writes" versus HyRD's single replica-write round.
//! * Recovery: RAID5 whole-provider rebuild reads 3x what it restores
//!   (the Facebook-cluster cross-rack-traffic problem of §I); NCCloud's
//!   rate-1/2 layout reads 2x; HyRD restores replicated data by plain
//!   copy (1x) and erasure-coded data by rebuild.

use hyrd::driver::synth_content;
use hyrd::prelude::*;
use hyrd_baselines::{NcCloudLite, Racs};
use hyrd_bench::header;
use hyrd_gcsapi::OpKind;

fn main() {
    header("Small-update amplification (8 KB update on a 256 KB file)");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>14} {:>12}",
        "scheme", "reads", "writes", "total", "bytes moved", "latency (s)"
    );

    // HyRD.
    {
        let fleet = Fleet::standard_four(SimClock::new());
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        h.create_file("/f", &synth_content("/f", 0, 256 << 10)).expect("fleet up");
        let report = h.update_file("/f", 1000, &synth_content("/f", 1, 8 << 10)).expect("fleet up");
        print_row("HyRD", &report);
    }
    // RACS.
    {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut r = Racs::new(&fleet).expect("4-provider fleet");
        r.create_file("/f", &synth_content("/f", 0, 256 << 10)).expect("fleet up");
        let report = r.update_file("/f", 1000, &synth_content("/f", 1, 8 << 10)).expect("fleet up");
        print_row("RACS", &report);
    }
    // RACS on a *large* (striped) file — the ranged RMW.
    {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut r = Racs::new(&fleet).expect("4-provider fleet");
        r.create_file("/f", &synth_content("/f", 0, 8 << 20)).expect("fleet up");
        let report = r.update_file("/f", 1000, &synth_content("/f", 1, 8 << 10)).expect("fleet up");
        print_row("RACS (8MB)", &report);
    }

    header("Whole-provider recovery traffic (20 x 6 MB archive)");
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>8}",
        "scheme", "fragments", "bytes read", "bytes written", "amp"
    );
    {
        let fleet = Fleet::standard_four(SimClock::new());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut r = Racs::new(&fleet).expect("4-provider fleet");
        for i in 0..20 {
            r.create_file(&format!("/a/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
        }
        let victim = fleet.by_name("Rackspace").expect("standard fleet").id();
        let (t, _) = r.repair_provider(victim).expect("repairable");
        println!(
            "{:<14} {:>10} {:>14} {:>14} {:>7.2}x",
            "RACS",
            t.fragments_rebuilt,
            t.bytes_read,
            t.bytes_written,
            t.amplification()
        );
    }
    {
        let fleet = Fleet::standard_four(SimClock::new());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut n = NcCloudLite::new(&fleet).expect("4-provider fleet");
        for i in 0..20 {
            n.create_file(&format!("/a/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
        }
        let victim = fleet.by_name("Rackspace").expect("standard fleet").id();
        let (t, _) = n.repair_provider(victim).expect("repairable");
        println!(
            "{:<14} {:>10} {:>14} {:>14} {:>7.2}x",
            "NCCloud-lite",
            t.fragments_rebuilt,
            t.bytes_read,
            t.bytes_written,
            t.amplification()
        );
        println!("\n(true FMSR would reach 1.5x; the layout-level ordering NCCloud < RACS holds.)");
    }

    // HyRD consistency update after an outage (log replay, not rebuild).
    header("HyRD consistency update after a 1-provider outage (50 small writes)");
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");
    azure.force_down();
    for i in 0..50 {
        h.create_file(&format!("/o/f{i}"), &synth_content("x", i, 8 << 10)).expect("survivors up");
    }
    azure.restore();
    let (report, batch) = h.recover_provider(azure.id()).expect("provider back");
    println!(
        "puts replayed: {}   bytes restored: {}   ops: {}  (1.0x — plain copies, no decode)",
        report.puts_replayed,
        report.bytes_restored,
        batch.op_count()
    );
}

fn print_row(name: &str, report: &hyrd_gcsapi::BatchReport) {
    let reads = report.ops.iter().filter(|o| o.kind == OpKind::Get).count();
    let writes = report.ops.iter().filter(|o| o.kind == OpKind::Put).count();
    let bytes: u64 = report.ops.iter().map(|o| o.bytes_in + o.bytes_out).sum();
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>14} {:>12.3}",
        name,
        reads,
        writes,
        reads + writes,
        bytes,
        report.latency.as_secs_f64()
    );
}
