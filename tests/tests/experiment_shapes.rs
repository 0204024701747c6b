//! The paper's headline experimental shapes, locked in as tests: if a
//! refactor breaks "who wins and by roughly what factor", these fail.

use hyrd::driver::{replay_with_state, ReplayOptions, ReplayState};
use hyrd::prelude::*;
use hyrd_baselines::{DuraCloud, Racs, SingleCloud};
use hyrd_costsim::model::{
    CostModel, DuraCloudModel, HyrdModel, RacsModel, SingleModel, ALIYUN, S3,
};
use hyrd_costsim::report::run_model;
use hyrd_workloads::{IaTrace, PostMark, PostMarkConfig};

fn postmark() -> PostMarkConfig {
    PostMarkConfig { initial_files: 40, transactions: 160, seed: 0x51A7, ..Default::default() }
}

enum Outage {
    No,
    Azure,
}

fn mean_latency<F>(make: F, outage: Outage) -> f64
where
    F: FnOnce(&Fleet) -> Box<dyn Scheme>,
{
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let mut scheme = make(&fleet);
    let (ops, _) = PostMark::new(postmark()).generate();
    let init = postmark().initial_files;
    let opts = ReplayOptions::default();
    let mut state = ReplayState::default();
    let _ = replay_with_state(scheme.as_mut(), &ops[..init], &clock, &opts, &mut state);
    if matches!(outage, Outage::Azure) {
        fleet.by_name("Windows Azure").expect("standard fleet").force_down();
    }
    let stats = replay_with_state(scheme.as_mut(), &ops[init..], &clock, &opts, &mut state);
    assert_eq!(stats.errors, 0, "{} must not error", stats.scheme);
    stats.mean_latency().as_secs_f64()
}

#[test]
fn fig6_shape_normal_state() {
    let s3 = mean_latency(|f| Box::new(SingleCloud::amazon_s3(f).expect("has S3")), Outage::No);
    let dura = mean_latency(|f| Box::new(DuraCloud::standard(f).expect("std")), Outage::No);
    let racs = mean_latency(|f| Box::new(Racs::new(f).expect("4p")), Outage::No);
    let hyrd =
        mean_latency(|f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid")), Outage::No);

    // Who wins: HyRD < RACS < S3 < DuraCloud (paper Figure 6).
    assert!(hyrd < racs, "HyRD {hyrd:.2}s vs RACS {racs:.2}s");
    assert!(racs < s3, "RACS {racs:.2}s vs S3 {s3:.2}s");
    assert!(dura > s3 * 0.99, "DuraCloud {dura:.2}s vs S3 {s3:.2}s (double writes)");

    // By roughly what factor (paper: 58.7% / 34.8% lower).
    let vs_dura = 1.0 - hyrd / dura;
    let vs_racs = 1.0 - hyrd / racs;
    assert!(vs_dura > 0.40, "HyRD vs DuraCloud {:.1}%", vs_dura * 100.0);
    assert!(vs_racs > 0.20, "HyRD vs RACS {:.1}%", vs_racs * 100.0);
}

#[test]
fn fig6_shape_outage_state() {
    let dura_n = mean_latency(|f| Box::new(DuraCloud::standard(f).expect("std")), Outage::No);
    let dura_o = mean_latency(|f| Box::new(DuraCloud::standard(f).expect("std")), Outage::Azure);
    let racs_o = mean_latency(|f| Box::new(Racs::new(f).expect("4p")), Outage::Azure);
    let hyrd_o = mean_latency(
        |f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid")),
        Outage::Azure,
    );

    // The paper's §IV-C observations:
    // 1. DuraCloud is FASTER during the outage (single write path).
    assert!(dura_o < dura_n, "DuraCloud outage {dura_o:.2}s vs normal {dura_n:.2}s");
    // 2. HyRD stays ahead of RACS during the outage.
    assert!(hyrd_o < racs_o, "HyRD {hyrd_o:.2}s vs RACS {racs_o:.2}s in outage");
    // 3. And ahead of DuraCloud.
    assert!(hyrd_o < dura_o);
}

#[test]
fn fig4_shape_cost_ordering_and_magnitudes() {
    let trace = IaTrace::synthesize(42);
    let run = |m: &mut dyn CostModel| run_model(m, &trace).total();

    let aliyun = run(&mut SingleModel::new("Aliyun", ALIYUN));
    let s3 = run(&mut SingleModel::new("S3", S3));
    let dura = run(&mut DuraCloudModel::new());
    let racs = run(&mut RacsModel::new());
    let hyrd = run(&mut HyrdModel::paper_default());

    // Orderings from Figure 4b.
    assert!(aliyun < s3, "Aliyun is the cheapest single cloud");
    assert!(hyrd < racs && racs < dura, "HyRD < RACS < DuraCloud");
    assert!(hyrd > aliyun, "redundancy costs more than the cheapest single cloud");

    // Magnitudes (paper: 33.4% / 20.4% lower).
    let vs_dura = 1.0 - hyrd / dura;
    let vs_racs = 1.0 - hyrd / racs;
    // Paper: 33.4%. Our DuraCloud bills S3 egress for its primary reads
    // (the same primary/backup model that reproduces the Figure 6
    // outage-speedup), which widens the gap relative to the paper's
    // storage-dominated estimate.
    assert!((0.20..0.60).contains(&vs_dura), "HyRD vs DuraCloud {:.1}%", vs_dura * 100.0);
    assert!((0.08..0.35).contains(&vs_racs), "HyRD vs RACS {:.1}%", vs_racs * 100.0);
}

#[test]
fn fig5_shape_provider_latency_ordering() {
    let fleet = Fleet::standard_four(SimClock::new());
    let lat = |name: &str, bytes: u64| {
        fleet
            .by_name(name)
            .expect("standard fleet")
            .profile()
            .latency
            .expected_latency(hyrd_gcsapi::OpKind::Get, bytes)
            .as_secs_f64()
    };
    for size in [4 << 10, 256 << 10, 1 << 20, 4 << 20] {
        assert!(lat("Aliyun", size) < lat("Windows Azure", size));
        assert!(lat("Windows Azure", size) < lat("Rackspace", size));
        assert!(lat("Windows Azure", size) < lat("Amazon S3", size));
        // The 1MB->4MB disproportion.
    }
    for name in ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"] {
        assert!(lat(name, 4 << 20) > 4.0 * lat(name, 1 << 20), "{name} knee");
    }
}

#[test]
fn fig3_shape_trace_ratios() {
    let t = IaTrace::synthesize(42);
    assert!((t.volume_ratio() - 2.1).abs() < 0.01);
    assert!((t.request_ratio() - 3.5).abs() < 0.01);
}

#[test]
fn table1_shape_hybrid_overhead_sits_between_ec_and_replication() {
    use hyrd::driver::synth_content;
    let (_, fleet) = integration_tests::fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
    // The Agrawal mix: mostly-small count, mostly-large bytes.
    for i in 0..20 {
        h.create_file(&format!("/s{i}"), &synth_content("s", i, 4 << 10)).expect("up");
    }
    for i in 0..3 {
        h.create_file(&format!("/l{i}"), &synth_content("l", i, 5 << 20)).expect("up");
    }
    let overhead = h.physical_bytes() as f64 / h.logical_bytes() as f64;
    assert!(overhead > 4.0 / 3.0, "above pure RAID5 (small files are 2x)");
    assert!(overhead < 1.6, "far below pure replication (2x), got {overhead}");
}
