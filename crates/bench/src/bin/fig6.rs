//! Figure 6: normalized access latency of all schemes, normal state and
//! during a Windows Azure outage, normalized to the single-cloud Amazon
//! S3 baseline.
//!
//! Paper-reported shape: in the normal state HyRD's latency is 58.7 %
//! lower than DuraCloud's and 34.8 % lower than RACS's; during the outage
//! 27.3 % and 46.3 % respectively, and DuraCloud runs *faster* than in
//! the normal state (single write path).

use hyrd_bench::fig6::{extended_lineup, paper_postmark, run_lineup_sweep};
use hyrd_bench::{flag_usize, header, write_json, Series};

fn main() {
    let config = paper_postmark(0xF166);
    header("Figure 6: access latency, normalized to Amazon S3 (normal state)");

    let mut results: Vec<(String, f64, f64)> = Vec::new(); // (name, normal, outage)
    let mut baseline = None;

    let verbose = std::env::args().any(|a| a == "--verbose");
    // Every (scheme, mode) cell owns a fresh fleet + clock, so the grid
    // runs on worker threads; collection order — and therefore all
    // output — is identical for every job count.
    let jobs = flag_usize("jobs", 0);
    for (name, normal, outage) in run_lineup_sweep(extended_lineup(), &config, jobs) {
        if verbose {
            println!("--- {name} (normal) ---\n{}", normal.summary());
        }
        let mean_normal = normal.mean_latency().as_secs_f64();
        if name == "Amazon S3" {
            baseline = Some(mean_normal);
        }
        // Single clouds have no outage story (their outage IS the outage).
        let mean_outage = match outage {
            None => f64::NAN,
            Some(outage) => {
                if verbose {
                    println!("--- {name} (outage) ---\n{}", outage.summary());
                }
                outage.mean_latency().as_secs_f64()
            }
        };
        results.push((name.to_string(), mean_normal, mean_outage));
    }

    let base = baseline.expect("lineup includes the S3 baseline");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12}",
        "scheme", "normal (s)", "outage (s)", "norm.", "norm.outage"
    );
    for (name, n, o) in &results {
        println!("{:<14} {:>14.3} {:>14.3} {:>12.3} {:>12.3}", name, n, o, n / base, o / base);
    }

    // The paper's headline deltas.
    let get = |n: &str| results.iter().find(|(name, _, _)| name == n).expect("in lineup");
    let (_, hyrd_n, hyrd_o) = get("HyRD");
    let (_, dura_n, dura_o) = get("DuraCloud");
    let (_, racs_n, racs_o) = get("RACS");
    println!();
    println!(
        "HyRD vs DuraCloud (normal): {:.1}% lower   [paper: 58.7%]",
        (1.0 - hyrd_n / dura_n) * 100.0
    );
    println!(
        "HyRD vs RACS      (normal): {:.1}% lower   [paper: 34.8%]",
        (1.0 - hyrd_n / racs_n) * 100.0
    );
    println!(
        "HyRD vs DuraCloud (outage): {:.1}% lower   [paper: 27.3%]",
        (1.0 - hyrd_o / dura_o) * 100.0
    );
    println!(
        "HyRD vs RACS      (outage): {:.1}% lower   [paper: 46.3%]",
        (1.0 - hyrd_o / racs_o) * 100.0
    );
    println!(
        "DuraCloud outage vs normal: {}   [paper: outage is faster]",
        if dura_o < dura_n { "faster (matches)" } else { "slower (MISMATCH)" }
    );

    let series: Vec<Series> = results
        .iter()
        .flat_map(|(name, n, o)| {
            vec![
                Series { label: format!("{name}/normal"), values: vec![n / base] },
                Series { label: format!("{name}/outage"), values: vec![o / base] },
            ]
        })
        .collect();
    write_json("fig6_normalized_latency", &series);
}
