//! Replaying a sampled Internet Archive day through the executable
//! schemes — connecting the cost-analysis trace (Figure 3/4) to the
//! latency machinery (Figure 6) at the request level.

use hyrd::driver::{replay, ReplayOptions};
use hyrd::prelude::*;
use hyrd_baselines::Racs;
use hyrd_workloads::{FsOp, IaTrace};
use integration_tests::fresh_fleet;

#[test]
fn an_archive_day_replays_clean_through_hyrd_and_racs() {
    let trace = IaTrace::synthesize(42);
    let ops = trace.sample_day_ops(5, 8e-6, 0xDA7);
    assert!(ops.len() > 40, "day sample has substance: {}", ops.len());

    for which in ["hyrd", "racs"] {
        let (clock, fleet) = fresh_fleet();
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut scheme: Box<dyn Scheme> = match which {
            "hyrd" => Box::new(Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config")),
            _ => Box::new(Racs::new(&fleet).expect("4-provider fleet")),
        };
        let stats = replay(scheme.as_mut(), &ops, &clock, &ReplayOptions::default());
        assert_eq!(stats.errors, 0, "{which}");
        assert_eq!(stats.verify_failures, 0, "{which}");
        assert_eq!(stats.overall.count(), ops.len(), "{which}");
    }
}

#[test]
fn archive_day_traffic_matches_the_aggregate_trace_mix() {
    // The sampled day's byte mix should reflect the Agrawal distribution
    // the cost model uses: most bytes in large files.
    let trace = IaTrace::synthesize(42);
    let ops = trace.sample_day_ops(0, 2e-5, 1);
    let sizes: Vec<u64> = ops
        .iter()
        .filter_map(|o| match o {
            FsOp::Create { size, .. } => Some(*size),
            _ => None,
        })
        .collect();
    let total: u64 = sizes.iter().sum();
    let large: u64 = sizes.iter().filter(|&&s| s > 1 << 20).sum();
    assert!(
        large as f64 / total as f64 > 0.7,
        "large files carry {:.0}% of bytes",
        large as f64 / total as f64 * 100.0
    );
}

#[test]
fn hyrd_beats_racs_on_the_archive_day_too() {
    // The Figure 6 conclusion is workload-robust: it also holds on the
    // read-heavy archive traffic, not just PostMark.
    let trace = IaTrace::synthesize(42);
    let ops = trace.sample_day_ops(2, 8e-6, 2);
    let mean = |make: fn(&Fleet) -> Box<dyn Scheme>| {
        let (clock, fleet) = fresh_fleet();
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let mut scheme = make(&fleet);
        replay(scheme.as_mut(), &ops, &clock, &ReplayOptions::default())
            .mean_latency()
            .as_secs_f64()
    };
    let hyrd = mean(|f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid config")));
    let racs = mean(|f| Box::new(Racs::new(f).expect("4p")));
    assert!(hyrd < racs, "HyRD {hyrd:.2}s vs RACS {racs:.2}s on archive traffic");
}
