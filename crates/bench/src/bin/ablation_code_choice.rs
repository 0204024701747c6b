//! Ablation: the large-file tier's erasure code (DESIGN.md §4.4) —
//! RAID5 (the paper's case study) vs RS(2,4) vs RAID6(2+2).
//!
//! All three fit the 4-provider fleet; they trade storage overhead
//! against fault tolerance and read parallelism.

use hyrd::config::CodeChoice;
use hyrd::prelude::*;
use hyrd::scheme::SchemeError;
use hyrd_bench::fig6::{paper_postmark, run_scheme, Mode};
use hyrd_bench::header;

fn main() {
    header("Large-file code choice (4-provider fleet)");
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>14} {:>16}",
        "code", "rate", "tolerates", "latency (s)", "phys/logical", "2-outage reads"
    );

    for (code, name) in [
        (CodeChoice::Raid5 { m: 3 }, "RAID5(3+1)"),
        (CodeChoice::ReedSolomon { m: 2, n: 4 }, "RS(2,4)"),
        (CodeChoice::Raid6 { m: 2 }, "RAID6(2+2)"),
    ] {
        let config = paper_postmark(0xC0DE);
        let stats = run_scheme(
            move |f| {
                let cfg = HyrdConfig { code, ..HyrdConfig::default() };
                Box::new(Hyrd::new(f, cfg).expect("valid config"))
            },
            Mode::Normal,
            &config,
        );

        // Overhead + double-outage behaviour on a dedicated instance.
        let fleet = Fleet::standard_four(SimClock::new());
        let cfg = HyrdConfig { code, ..HyrdConfig::default() };
        let h = Hyrd::new(&fleet, cfg).expect("valid config");
        let data = vec![7u8; 6 << 20];
        h.create_file("/big", &data).expect("fleet up");
        let overhead = h.physical_bytes() as f64 / h.logical_bytes() as f64;

        fleet.by_name("Amazon S3").expect("standard fleet").force_down();
        fleet.by_name("Rackspace").expect("standard fleet").force_down();
        let two_outage = match h.read_file("/big") {
            Ok((bytes, _)) if bytes == data => "served",
            Ok(_) => "corrupt!",
            Err(SchemeError::DataUnavailable { .. }) => "unavailable",
            Err(_) => "error",
        };

        println!(
            "{:<12} {:>8.2} {:>10} {:>12.3} {:>14.2} {:>16}",
            name,
            code.m() as f64 / code.n() as f64,
            code.n() - code.m(),
            stats.mean_latency().as_secs_f64(),
            overhead,
            two_outage
        );
    }

    println!("\n=> RAID5 is the cheapest code that survives the single-outage model the");
    println!("   paper assumes (\"two concurrent cloud outages are extremely rare\");");
    println!("   RAID6/RS(2,4) buy double-outage reads for 1.5x the storage.");
}
