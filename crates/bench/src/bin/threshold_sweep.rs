//! The file-size threshold sensitivity study (§III-C / §IV-C): "We have
//! conducted sensitivity experiments to investigate the file-size
//! threshold … we set the file-size threshold at 1MB."
//!
//! Sweeps HyRD's large/small boundary from 64 KB to 16 MB and reports
//! both the mean access latency (PostMark replay) and the storage
//! overhead + simulated year cost, showing why 1 MB is the sweet spot:
//! below it, medium files fall into the erasure tier and pay slow
//! fragment RTTs; above it, multi-MB files get replicated at 2x storage
//! on the expensive performance tier.

use hyrd::prelude::*;
use hyrd_bench::fig6::{paper_postmark, run_scheme, Mode};
use hyrd_bench::{header, write_json, Series};
use hyrd_costsim::model::HyrdModel;
use hyrd_costsim::report::run_model;
use hyrd_workloads::rng::Rng;
use hyrd_workloads::{FileSizeDist, IaTrace};

const THRESHOLDS: [(u64, &str); 6] = [
    (64 << 10, "64KB"),
    (256 << 10, "256KB"),
    (1 << 20, "1MB"),
    (4 << 20, "4MB"),
    (16 << 20, "16MB"),
    (64 << 20, "64MB"),
];

fn main() {
    let trace = IaTrace::synthesize(42);
    let dist = FileSizeDist::agrawal();

    header("Threshold sensitivity: HyRD latency, storage and cost vs threshold");
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>12}",
        "thresh", "latency (s)", "phys/logical", "cost ($/yr)", "small-files%"
    );

    let mut lat_series = Vec::new();
    let mut cost_series = Vec::new();
    for (threshold, label) in THRESHOLDS {
        // Latency under PostMark.
        let config = paper_postmark(0x5EEE);
        let stats = run_scheme(
            move |f| {
                let cfg = HyrdConfig { threshold, ..HyrdConfig::default() };
                Box::new(Hyrd::new(f, cfg).expect("valid config"))
            },
            Mode::Normal,
            &config,
        );
        let mean = stats.mean_latency().as_secs_f64();

        // Storage overhead measured on a real dispatcher instance.
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let cfg = HyrdConfig { threshold, ..HyrdConfig::default() };
        let h = Hyrd::new(&fleet, cfg).expect("valid config");
        let mut rng_state = 0x1234_5678_u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_state
        };
        let mut rng = Rng::seed_from_u64(next());
        for i in 0..120 {
            let size = dist.sample(&mut rng) as usize;
            h.create_file(&format!("/sweep/f{i}"), &vec![0u8; size]).expect("fleet up");
        }
        let overhead = h.physical_bytes() as f64 / h.logical_bytes() as f64;

        // Year cost from the analytic model at this threshold.
        let mut model = HyrdModel::new(threshold, &dist);
        let cost = run_model(&mut model, &trace).total();
        let small_frac = dist.count_frac_below(threshold) * 100.0;

        println!("{label:<8} {mean:>12.3} {overhead:>14.3} {cost:>12.0} {small_frac:>11.1}%");
        lat_series.push(mean);
        cost_series.push(cost);
    }

    println!("\n=> 1MB minimizes latency while keeping overhead near 4/3 (the paper's pick)");
    write_json(
        "threshold_sweep",
        &vec![
            Series { label: "latency_s".into(), values: lat_series },
            Series { label: "cost_usd".into(), values: cost_series },
        ],
    );
}
