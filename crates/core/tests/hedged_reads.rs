//! End-to-end tests of the hedged-read path: straggler cancellation
//! accounting, k-of-n completion under latency spikes, the hedged
//! metadata fetch behind `list_dir`, and the determinism contract
//! (same seed ⇒ byte-identical traces for any worker count, hedging on
//! or off).

use std::time::Duration;

use hyrd_testkit::check;

use hyrd::config::{HedgeConfig, HyrdConfig};
use hyrd::driver::{multi_client, synth_content, ReplayOptions};
use hyrd::telemetry::{Collector, SharedBuf};
use hyrd::Hyrd;
use hyrd_cloudsim::{FaultPlan, Fleet, SimClock};
use hyrd_gcsapi::OpKind;
use hyrd_workloads::FsOp;

const MB: usize = 1024 * 1024;

fn hedged_config() -> HyrdConfig {
    HyrdConfig {
        hedge: HedgeConfig { enabled: true, ..HedgeConfig::default() },
        ..HyrdConfig::default()
    }
}

/// A long ×`mult` latency spike starting now.
fn spike_from_now(clock: &SimClock, mult: f64) -> FaultPlan {
    FaultPlan::quiet().with_spike(clock.now(), clock.now() + Duration::from_secs(36_000), mult)
}

#[test]
fn cancelled_straggler_bills_zero_bytes_and_credits_the_provider() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let telemetry = Collector::builder(clock.clone()).build();
    let h = Hyrd::with_telemetry(&fleet, hedged_config(), telemetry.clone()).unwrap();
    let data = synth_content("/big.bin", 0, 3 * MB);
    h.create_file("/big.bin", &data).unwrap();

    // A quiet read shows which three providers the dispatcher fans the
    // required fragment fetches to; spike one of them so it straggles.
    let (_, quiet) = h.read_file("/big.bin").unwrap();
    let quiet_gets: Vec<_> = quiet.ops.iter().filter(|o| o.kind == OpKind::Get).collect();
    assert_eq!(quiet_gets.len(), 3, "erasure read needs k=3 of 4 fragments");
    let straggler = quiet_gets[0].provider;
    let provider = fleet.get(straggler).unwrap();
    provider.set_fault_plan(spike_from_now(&clock, 50.0));

    let before = provider.stats();
    let fired_before = telemetry.metrics().counter("hedge.fired");
    let (bytes, report) = h.read_file("/big.bin").unwrap();
    assert_eq!(&bytes[..], &data[..], "hedged read returns correct bytes");

    // Four flights: three required plus the hedge to the fourth
    // provider, which wins while the spiked flight is cancelled.
    let gets: Vec<_> = report.ops.iter().filter(|o| o.kind == OpKind::Get).collect();
    assert_eq!(gets.len(), 4, "hedge adds exactly one extra flight");
    let cancelled: Vec<_> = gets.iter().filter(|o| o.bytes_out == 0).collect();
    assert_eq!(cancelled.len(), 1, "exactly one flight is cancelled");
    assert_eq!(cancelled[0].provider, straggler, "the spiked flight is the straggler");
    let billed: u64 = gets.iter().map(|o| o.bytes_out).sum();
    let winner_bytes: u64 = quiet_gets.iter().map(|o| o.bytes_out).sum();
    assert_eq!(billed, winner_bytes, "only the three winning fragments bill bytes");

    // The provider's own ledger is credited back: the cancelled fetch
    // leaves no downloaded bytes behind.
    let after = provider.stats();
    assert_eq!(after.bytes_out, before.bytes_out, "cancelled fetch credits its bytes");

    let m = telemetry.metrics();
    assert_eq!(m.counter("hedge.fired") - fired_before, 1);
    assert!(m.counter("hedge.won") >= 1);
    assert!(m.counter("hedge.cancelled") >= 1);
}

#[test]
fn hedged_read_completes_k_of_n_fast_under_a_latency_spike() {
    // Two identical worlds, one hedged and one not, same spike on a
    // provider carrying a required fragment.
    let run = |hedge: bool| -> Duration {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let config = if hedge { hedged_config() } else { HyrdConfig::default() };
        let h = Hyrd::new(&fleet, config).unwrap();
        let data = synth_content("/big.bin", 0, 3 * MB);
        h.create_file("/big.bin", &data).unwrap();
        let (_, quiet) = h.read_file("/big.bin").unwrap();
        let straggler = quiet.ops.iter().find(|o| o.kind == OpKind::Get).unwrap().provider;
        fleet.get(straggler).unwrap().set_fault_plan(spike_from_now(&clock, 50.0));
        let (bytes, report) = h.read_file("/big.bin").unwrap();
        assert_eq!(bytes.len(), 3 * MB);
        report.latency
    };
    let unhedged = run(false);
    let hedged = run(true);
    assert!(
        hedged * 2 < unhedged,
        "hedging must cut the spiked read latency at least in half \
         (hedged {hedged:?} vs unhedged {unhedged:?})"
    );
}

#[test]
fn list_dir_metadata_fetch_is_hedged() {
    // Measure the quiet metadata fetch, then spike the replica it came
    // from. A hedged client routes around the spike; an unhedged one
    // eats it.
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let plain = Hyrd::new(&fleet, HyrdConfig::default()).unwrap();
    plain.create_file("/docs/a.txt", &synth_content("/docs/a.txt", 0, 4096)).unwrap();
    plain.create_file("/docs/b.txt", &synth_content("/docs/b.txt", 0, 4096)).unwrap();

    let (names, quiet) = plain.list_dir("/docs").unwrap();
    assert_eq!(names.len(), 2);
    let served_by = quiet.ops.iter().find(|o| o.kind == OpKind::Get).unwrap().provider;

    // Attach the hedged client while the fleet is still quiet, so its
    // probe ranking matches the plain client's (fastest replica first)
    // and only the hedge — not the ranking — can route around the spike.
    // Hedge aggressively (well under the spiked fetch, just above the
    // quiet one) so the second metadata replica wins.
    let telemetry = Collector::builder(clock.clone()).build();
    let config = HyrdConfig {
        hedge: HedgeConfig { enabled: true, delay: quiet.latency * 2, ..HedgeConfig::default() },
        ..HyrdConfig::default()
    };
    let (hedged, _) = Hyrd::attach_with(&fleet, config, telemetry.clone()).unwrap();

    fleet.get(served_by).unwrap().set_fault_plan(spike_from_now(&clock, 50.0));
    let (_, spiked_unhedged) = plain.list_dir("/docs").unwrap();
    assert!(
        spiked_unhedged.latency > quiet.latency * 10,
        "the spike must actually hurt the unhedged listing"
    );

    let (names, spiked_hedged) = hedged.list_dir("/docs").unwrap();
    assert_eq!(names.len(), 2, "hedged listing sees the same namespace");
    assert!(
        spiked_hedged.latency * 2 < spiked_unhedged.latency,
        "hedged listing routes around the spiked replica \
         (hedged {:?} vs unhedged {:?})",
        spiked_hedged.latency,
        spiked_unhedged.latency
    );
    assert!(telemetry.metrics().counter("hedge.fired") >= 1);
}

/// Read-mostly ops over both tiers, no PRNG involved — the multi-client
/// engine splits these across sessions.
fn fixed_ops() -> Vec<FsOp> {
    let mut ops = Vec::new();
    for i in 0..4 {
        ops.push(FsOp::Create { path: format!("/mix/s{i}"), size: 64 * 1024 });
        ops.push(FsOp::Create { path: format!("/mix/l{i}"), size: 2 * MB as u64 });
    }
    for round in 0..6 {
        for i in 0..4 {
            ops.push(FsOp::Read { path: format!("/mix/s{i}") });
            ops.push(FsOp::Read { path: format!("/mix/l{i}") });
        }
        if round % 2 == 0 {
            ops.push(FsOp::ListDir { path: "/mix".to_string() });
        }
    }
    ops
}

/// One full multi-client soak; returns the merged-stats debug string and
/// the JSONL telemetry trace.
fn soak(hedge: bool, spikes: bool, clients: usize, jobs: usize) -> (String, Vec<u8>) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let trace = SharedBuf::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(trace.clone()).build();
    let config = if hedge { hedged_config() } else { HyrdConfig::default() };
    let h = Hyrd::with_telemetry(&fleet, config, telemetry.clone()).unwrap();
    if spikes {
        for (i, p) in fleet.providers().iter().enumerate() {
            let start = Duration::from_secs(20 + 40 * i as u64);
            p.set_fault_plan(FaultPlan::quiet().with_spike(
                start,
                start + Duration::from_secs(25),
                8.0,
            ));
        }
    }
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: telemetry.clone(),
        ..ReplayOptions::default()
    };
    let report = multi_client::run(
        &h,
        &clock,
        &fixed_ops(),
        multi_client::MultiClientOptions { clients, jobs, replay: opts },
    );
    telemetry.flush();
    (format!("{:?}", report.merged), trace.contents())
}

#[test]
fn traces_are_byte_identical_across_jobs_with_hedging_on_and_off() {
    for hedge in [false, true] {
        let (stats_1, trace_1) = soak(hedge, true, 2, 1);
        for jobs in [2usize, 8] {
            let (stats_j, trace_j) = soak(hedge, true, 2, jobs);
            assert_eq!(stats_1, stats_j, "stats diverged (hedge={hedge}, jobs={jobs})");
            assert_eq!(trace_1, trace_j, "trace diverged (hedge={hedge}, jobs={jobs})");
        }
    }
}

/// The engine's determinism contract, fuzzed: any client count and
/// worker count, spikes or not, hedging on or off — the merged
/// stats and the trace depend only on the workload.
#[test]
fn soak_is_deterministic_for_any_topology() {
    check(
        6,
        |g| (g.range(1usize..4), g.range(1usize..5), g.bool(), g.bool()),
        |(clients, jobs, hedge, spikes)| {
            let (stats_a, trace_a) = soak(hedge, spikes, clients, jobs);
            let (stats_b, trace_b) = soak(hedge, spikes, 1, 1);
            assert_eq!(stats_a, stats_b);
            assert_eq!(trace_a, trace_b);
        },
    );
}
