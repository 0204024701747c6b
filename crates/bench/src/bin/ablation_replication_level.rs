//! Ablation: the replication level (DESIGN.md §4.2).
//!
//! §III-C: "higher degree of replication … implies higher resiliency but
//! also lower performance for write/update operations … it is sensible
//! to choose the replication level of 2 … the degree of replication in
//! HyRD is configurable." This sweep measures exactly that trade-off.

use hyrd::prelude::*;
use hyrd_bench::fig6::{paper_postmark, run_scheme, Mode};
use hyrd_bench::{header, write_json, Series};

fn main() {
    header("Replication level sweep (metadata + small files)");
    println!(
        "{:<6} {:>12} {:>14} {:>12} {:>22}",
        "level", "latency (s)", "phys/logical", "outages", "small write lat (s)"
    );

    let mut lat = Vec::new();
    for level in 1..=4usize {
        let config = paper_postmark(0xAB1E);
        let stats = run_scheme(
            move |f| {
                let cfg = HyrdConfig { replication_level: level, ..HyrdConfig::default() };
                Box::new(Hyrd::new(f, cfg).expect("valid config"))
            },
            Mode::Normal,
            &config,
        );
        let mean = stats.mean_latency().as_secs_f64();
        let small_write = stats.class(hyrd::stats::OpClass::SmallWrite).mean().as_secs_f64();

        // Storage overhead on a dedicated instance.
        let fleet = Fleet::standard_four(SimClock::new());
        let cfg = HyrdConfig { replication_level: level, ..HyrdConfig::default() };
        let h = Hyrd::new(&fleet, cfg).expect("valid config");
        for i in 0..40 {
            h.create_file(&format!("/s/f{i}"), &vec![0u8; 16 << 10]).expect("fleet up");
        }
        let overhead = h.physical_bytes() as f64 / h.logical_bytes() as f64;

        println!(
            "{:<6} {:>12.3} {:>14.2} {:>12} {:>22.3}",
            level,
            mean,
            overhead,
            level - 1,
            small_write
        );
        lat.push(mean);
    }

    println!("\n=> level 2 survives any single outage (\"two concurrent cloud outages are");
    println!("   extremely rare\", §III-C) at the lowest write cost above level 1.");
    write_json(
        "ablation_replication_level",
        &vec![Series { label: "latency_s".into(), values: lat }],
    );
}
