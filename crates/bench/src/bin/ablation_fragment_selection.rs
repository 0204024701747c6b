//! Ablation: fragment-source selection on large reads (DESIGN.md §4.1).
//!
//! HyRD's default reads the `m` fragments with the cheapest egress
//! ("HyRD's cloud cost due to the data out operations is also reduced",
//! §IV-B); the alternative reads the fastest fragments. This measures the
//! latency/egress-cost trade the policy makes.

use hyrd::config::FragmentSelection;
use hyrd::prelude::*;
use hyrd_bench::header;
use hyrd_gcsapi::CloudStorage;

fn main() {
    header("Fragment selection: cheapest-egress vs fastest (20 x 6 MB reads)");
    println!("{:<16} {:>14} {:>16} {:>16}", "policy", "read lat (s)", "egress $ / read", "S3 gets");

    for (policy, name) in [
        (FragmentSelection::CheapestEgress, "cheapest-egress"),
        (FragmentSelection::Fastest, "fastest"),
    ] {
        let fleet = Fleet::standard_four(SimClock::new());
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let cfg = HyrdConfig { fragment_selection: policy, ..HyrdConfig::default() };
        let h = Hyrd::new(&fleet, cfg).expect("valid config");
        for i in 0..20 {
            h.create_file(&format!("/m/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
        }
        let mut total_lat = 0.0;
        let mut egress_cost = 0.0;
        for i in 0..20 {
            let (_, report) = h.read_file(&format!("/m/f{i}")).expect("fleet up");
            total_lat += report.latency.as_secs_f64();
            for op in &report.ops {
                let prices = fleet.get(op.provider).expect("fleet member").prices();
                egress_cost += op.bytes_out as f64 / 1e9 * prices.data_out_gb;
            }
        }
        let s3_gets = fleet.by_name("Amazon S3").expect("standard fleet").stats().get;
        println!(
            "{:<16} {:>14.3} {:>16.6} {:>16}",
            name,
            total_lat / 20.0,
            egress_cost / 20.0,
            s3_gets
        );
    }

    println!("\n=> on the Table II fleet both policies avoid S3 (it is both the slowest");
    println!("   AND the dearest egress), so they coincide — the policy matters when a");
    println!("   premium provider is fast but expensive:");

    header("Same ablation on a fleet with a premium provider (fast, $0.201/GB egress)");
    println!(
        "{:<16} {:>14} {:>16} {:>16}",
        "policy", "read lat (s)", "egress $ / read", "premium gets"
    );
    for (policy, name) in [
        (FragmentSelection::CheapestEgress, "cheapest-egress"),
        (FragmentSelection::Fastest, "fastest"),
    ] {
        let fleet = premium_fleet();
        for p in fleet.providers() {
            p.set_ghost_mode(true);
        }
        let cfg = HyrdConfig { fragment_selection: policy, ..HyrdConfig::default() };
        let h = Hyrd::new(&fleet, cfg).expect("valid config");
        for i in 0..20 {
            h.create_file(&format!("/m/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
        }
        let mut total_lat = 0.0;
        let mut egress_cost = 0.0;
        for i in 0..20 {
            let (_, report) = h.read_file(&format!("/m/f{i}")).expect("fleet up");
            total_lat += report.latency.as_secs_f64();
            for op in &report.ops {
                let prices = fleet.get(op.provider).expect("fleet member").prices();
                egress_cost += op.bytes_out as f64 / 1e9 * prices.data_out_gb;
            }
        }
        let premium_gets = fleet.by_name("Premium").expect("premium fleet").stats().get;
        println!(
            "{:<16} {:>14.3} {:>16.6} {:>16}",
            name,
            total_lat / 20.0,
            egress_cost / 20.0,
            premium_gets
        );
    }
    println!("\n=> fastest now reads the premium provider and pays its egress;");
    println!("   cheapest-egress keeps reads free at higher latency — the paper's trade.");
}

/// The standard fleet with S3 swapped for a *premium* provider: priced
/// like S3 but as fast as Aliyun — the case where the two policies pull
/// in opposite directions.
fn premium_fleet() -> Fleet {
    use hyrd_cloudsim::{ProviderProfile, WellKnownProvider};
    let mut profiles: Vec<ProviderProfile> =
        WellKnownProvider::ALL.iter().map(|w| w.profile()).collect();
    profiles[0].name = "Premium".to_string();
    profiles[0].latency = WellKnownProvider::Aliyun.profile().latency;
    profiles[0].latency.rtt = std::time::Duration::from_millis(30);
    let fleet = Fleet::new(SimClock::new(), profiles);
    for p in fleet.providers() {
        p.create(Fleet::CONTAINER).expect("fresh provider");
    }
    fleet
}
