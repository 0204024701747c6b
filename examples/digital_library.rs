//! Digital library: the paper's motivating scenario (§I cites the
//! Library of Congress moving digitized content to DuraCloud, and the
//! Internet Archive trace drives the cost analysis).
//!
//! Hosts a synthetic digital-library month on each scheme and prints the
//! latency and cost bill side by side.
//!
//! ```sh
//! cargo run -p hyrd-examples --bin digital_library
//! ```

use hyrd::driver::{replay, ReplayOptions};
use hyrd::prelude::*;
use hyrd_baselines::{Racs, Replicated};
use hyrd_cloudsim::WellKnownProvider::AmazonS3;
use hyrd_costsim::model::{Layout, DURACLOUD, HYRD, RACS};
use hyrd_costsim::price;
use hyrd_workloads::{FsOp, IaTrace, PostMark, PostMarkConfig};

fn library_workload(seed: u64) -> Vec<FsOp> {
    // Mixed scans + ingests: a librarian's day.
    let config = PostMarkConfig {
        initial_files: 40,
        transactions: 150,
        subdirectories: 6,
        read_bias: 0.7, // archives are read-mostly
        seed,
        ..PostMarkConfig::default()
    };
    PostMark::new(config).generate().0
}

fn main() {
    let ops = library_workload(0x11B);

    println!("== one library day, replayed through each scheme ==");
    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>12}",
        "scheme", "mean (s)", "errors", "ops issued", "egress MB"
    );
    type Make = fn(&Fleet) -> Box<dyn Scheme>;
    let schemes: [(&str, Make); 4] = [
        ("Amazon S3", |f| Box::new(Replicated::amazon_s3(f).expect("fleet has S3"))),
        ("DuraCloud", |f| Box::new(Replicated::duracloud_standard(f).expect("standard fleet"))),
        ("RACS", |f| Box::new(Racs::new(f).expect("4-provider fleet"))),
        ("HyRD", |f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid config"))),
    ];
    for (name, make) in schemes {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut scheme = make(&fleet);
        let stats = replay(scheme.as_mut(), &ops, &clock, &ReplayOptions::default());
        println!(
            "{:<12} {:>12.3} {:>10} {:>12} {:>12.1}",
            name,
            stats.mean_latency().as_secs_f64(),
            stats.errors,
            stats.provider_ops,
            stats.bytes_out as f64 / 1e6
        );
    }

    println!("\n== the yearly bill for hosting the whole archive (Figure 4) ==");
    let trace = IaTrace::synthesize(7);
    let layouts = [
        ("Amazon S3", Layout::single(&AmazonS3)),
        ("DuraCloud", DURACLOUD),
        ("RACS", RACS),
        ("HyRD", HYRD),
    ];
    for (name, layout) in &layouts {
        println!("{:<12} ${:>9.0} / year", name, price(layout, &trace).total());
    }
    println!("\nHyRD keeps the replication where it is cheap (small, hot data) and the");
    println!("erasure coding where it pays (the big cold archive) — same availability,");
    println!("smaller bill, faster reads.");
}
