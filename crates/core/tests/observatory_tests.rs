//! End-to-end tests of the availability observatory against the real
//! dispatcher: an outage scenario must produce nonzero exposure-seconds
//! attributed to the right file and provider, the online tap must agree
//! with an offline parse of the same trace, and the rendered report must
//! be byte-identical for every parser worker count — and, on a drill-sized
//! trace with every kind of trouble in it, for every way of folding it,
//! with every line of it rewritten byte for byte from its parse.

use std::sync::OnceLock;
use std::time::Duration;

use hyrd::driver::{replay_with_state, synth_content, ReplayOptions, ReplayState};
use hyrd::observatory::{self, Observatory, SharedObservatory};
use hyrd::telemetry::{parse_jsonl, Collector, LineParser, SharedBuf, TraceWriter, ValueRef};
use hyrd::{Hyrd, HyrdConfig};
use hyrd_cloudsim::{FaultPlan, Fleet, SimClock};
use hyrd_gcsapi::{CloudStorage, ObjectKey};
use hyrd_workloads::FsOp;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;
const STEP: Duration = Duration::from_secs(1);

/// Runs a deterministic outage scenario: create an erasure-coded file,
/// knock out the provider holding one of its fragments, update the file
/// (degraded write → dirty fragment), then restore and rebuild. Returns
/// the trace bytes and the online observatory that watched it live.
fn outage_scenario() -> (String, SharedObservatory) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let buf = SharedBuf::new();
    let obs = SharedObservatory::new();
    let telemetry = Collector::builder(clock.clone())
        .clock_label("virtual")
        .jsonl(buf.clone())
        .tap(obs.tap())
        .build();
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
        .expect("valid default config");

    let mut content = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &content).unwrap();
    h.create_file("/small", &synth_content("/small", 0, 4 * KB)).unwrap();

    // Outage: Rackspace holds one of /big's erasure fragments.
    let victim = fleet.by_name("Rackspace").unwrap();
    clock.advance(STEP);
    victim.force_down();

    // Degraded update spanning every data shard: whichever fragment the
    // downed provider holds (data or parity) is in the needed set, so the
    // write is missed and journalled dirty — the exposure interval opens.
    let patch = synth_content("/big", 7, 2 * MB + 512 * KB);
    clock.advance(STEP);
    h.update_file("/big", 100_000, &patch).unwrap();
    content[100_000..100_000 + patch.len()].copy_from_slice(&patch);

    // A degraded read while the fragment is missing.
    clock.advance(STEP);
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);

    // Restore and rebuild — the exposure interval closes here.
    clock.advance(STEP);
    victim.restore();
    h.recover_provider(victim.id()).unwrap();
    clock.advance(STEP);
    let (bytes, _) = h.read_file("/big").unwrap();
    assert_eq!(&bytes[..], &content[..]);

    telemetry.flush();
    obs.absorb_metrics(&telemetry.metrics());
    (buf.text(), obs)
}

#[test]
fn outage_produces_exposure_attributed_to_the_right_file_and_provider() {
    let (trace, obs) = outage_scenario();
    let report = obs.report();

    // The dirty fragment belongs to /big and sat on Rackspace.
    assert_eq!(report.files.len(), 1, "only /big was exposed: {:?}", report.files);
    let f = &report.files[0];
    assert_eq!(f.path, "/big");
    assert!(f.exposure_ns > 0, "exposure must accumulate across the outage");
    assert_eq!(f.open_intervals, 0, "rebuild must close the interval");
    assert!(f.intervals_closed >= 1);
    assert!(f.degraded_reads >= 1, "the mid-outage read was degraded");
    let by_provider: Vec<&str> = f.by_provider.keys().map(String::as_str).collect();
    assert_eq!(by_provider, ["Rackspace"], "exposure attributed to the downed provider");
    assert_eq!(report.exposure_by_provider["Rackspace"], f.exposure_ns);

    // Provider SLIs see the outage window.
    let rackspace = report.providers.iter().find(|p| p.provider == "Rackspace").expect("tracked");
    assert_eq!(rackspace.outages, 1);
    assert!(rackspace.downtime_ns > 0);
    assert!(rackspace.availability < 1.0);
    let aliyun = report.providers.iter().find(|p| p.provider == "Aliyun").expect("tracked");
    assert_eq!(aliyun.outages, 0);
    assert!((aliyun.availability - 1.0).abs() < 1e-12);

    // The trace agrees byte-for-byte when parsed offline.
    let offline = observatory::from_trace(&trace, 1).unwrap();
    let mut offline_report = offline.report();
    // Queue-depth peaks live in the registry, not the trace; the online
    // side absorbed them, so align before comparing the event-derived rest.
    for (on, off) in report.providers.iter().zip(offline_report.providers.iter_mut()) {
        off.queue_depth_peak = on.queue_depth_peak;
    }
    assert_eq!(report, offline_report);
}

#[test]
fn report_is_byte_identical_across_parser_worker_counts() {
    let (trace, _) = outage_scenario();
    let render = |jobs: usize| observatory::from_trace(&trace, jobs).unwrap().report().render();
    let one = render(1);
    assert_eq!(one, render(2));
    assert_eq!(one, render(8));
    assert!(one.contains("Rackspace"));
}

#[test]
fn scenario_and_trace_are_deterministic() {
    let (trace_a, obs_a) = outage_scenario();
    let (trace_b, obs_b) = outage_scenario();
    assert_eq!(trace_a, trace_b, "same scenario, byte-identical trace");
    assert_eq!(obs_a.report().render(), obs_b.report().render());
}

#[test]
fn quiet_run_reports_full_availability_and_zero_exposure() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let obs = SharedObservatory::new();
    let telemetry = Collector::builder(clock.clone()).tap(obs.tap()).build();
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
        .expect("valid default config");
    h.create_file("/q", &synth_content("/q", 0, 2 * MB)).unwrap();
    h.read_file("/q").unwrap();
    telemetry.flush();
    let report = obs.report();
    assert!(report.files.is_empty(), "no exposure on a quiet fleet");
    assert!(report.providers.iter().all(|p| (p.availability - 1.0).abs() < 1e-12));
    assert_eq!(report.reads_failed, 0);
    assert!((report.empirical_read_availability - 1.0).abs() < 1e-12);
}

/// A chaos-smoke-sized drill (DESIGN.md §10 in miniature): sixty files in
/// both tiers replayed for a dozen rounds of reads and updates while every
/// provider throttles in bursts, spikes and tears puts, with an outage of
/// one provider through the middle third, recovery after it, and a scrub
/// every fourth round — the last over a replica corrupted by hand.
/// Returns the trace and the observatory that watched it live.
///
/// The schedule is [`FaultPlan::chaos`] without its wire corruption and
/// bit rot: with a provider down, those get past an erasure-coded file
/// whose fragment digests a ranged update has dropped, and reads of it
/// then fail verification (ROADMAP, "found while testing"). This test is
/// about folding, so it keeps to ground where every read verifies.
fn chaos_scenario() -> (String, SharedObservatory) {
    const FILES: usize = 60;
    const ROUNDS: usize = 12;
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let buf = SharedBuf::new();
    let obs = SharedObservatory::new();
    let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).tap(obs.tap()).build();
    let mut h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
        .expect("valid default config");
    let opts = ReplayOptions {
        verify_reads: true,
        telemetry: telemetry.clone(),
        ..ReplayOptions::default()
    };
    let mut state = ReplayState::default();

    // Every sixth file is erasure-coded; the rest are small replicas.
    let path = |i: usize| format!("/drill/f{i:02}");
    let size = |i: usize| match i % 6 {
        0 => (MB + 256 * KB) as u64,
        _ => (2 + i as u64 % 30) * KB as u64,
    };
    let pool: Vec<FsOp> =
        (0..FILES).map(|i| FsOp::Create { path: path(i), size: size(i) }).collect();
    let stats = replay_with_state(&mut h, &pool, &clock, &opts, &mut state);
    assert_eq!(stats.errors, 0, "the pool is built before the faults start");

    let horizon = Duration::from_millis((FILES * ROUNDS) as u64 * 1500);
    for (i, p) in fleet.providers().iter().enumerate() {
        let mut plan = FaultPlan::quiet().with_seed(0xC4A05 + i as u64).with_torn_puts(3);
        for k in 0..12 {
            let start = horizon.mul_f64((k as f64 + 0.25) / 12.0);
            plan = plan.with_burst(start, start + horizon / 72, 150 + 40 * i as u16);
        }
        for k in 0..6 {
            let start = horizon.mul_f64((k as f64 + 0.55) / 6.0);
            plan = plan.with_spike(start, start + horizon / 48, 2.0 + k as f64);
        }
        p.set_fault_plan(plan);
    }
    let victim = fleet.by_name("Windows Azure").expect("standard fleet");
    let recover = |h: &Hyrd| {
        for p in fleet.providers().iter().filter(|p| p.is_available()) {
            let _ = h.recover_provider(p.id());
        }
    };
    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            victim.force_down();
        }
        if round == 2 * ROUNDS / 3 {
            victim.restore();
            recover(&h);
        }
        let ops: Vec<FsOp> = (0..FILES)
            .map(|i| match (i + round) % 3 {
                0 => FsOp::Update { path: path(i), offset: (round * 97) as u64, len: 256 },
                _ => FsOp::Read { path: path(i) },
            })
            .collect();
        // Refused requests are part of the picture (`replay.error`); wrong
        // bytes are not.
        let stats = replay_with_state(&mut h, &ops, &clock, &opts, &mut state);
        assert_eq!(stats.verify_failures, 0);
        if round % 4 == 3 {
            if round == ROUNDS - 1 {
                let key = ObjectKey::new(Fleet::CONTAINER, hyrd::scheme::object_name(&path(1)));
                let hit = fleet.providers().iter().any(|p| p.corrupt_object(&key, 4321));
                assert!(hit, "some provider holds a replica of a small file");
            }
            recover(&h);
            h.scrub().expect("scrub runs");
        }
    }
    telemetry.flush();
    (buf.text(), obs)
}

/// [`chaos_scenario`], run once for the tests that read it.
fn drill() -> &'static (String, SharedObservatory) {
    static DRILL: OnceLock<(String, SharedObservatory)> = OnceLock::new();
    DRILL.get_or_init(chaos_scenario)
}

#[test]
fn every_way_of_folding_a_drill_trace_renders_the_same_report() {
    let (trace, online) = drill();
    let online = online.report();

    // The drill had what the exposure tracker and the SLIs exist for.
    let azure = online.providers.iter().find(|p| p.provider == "Windows Azure").expect("tracked");
    assert_eq!(azure.outages, 1);
    assert!(online.providers.iter().any(|p| p.faults > 0), "the chaos plan injected faults");
    assert!(online.files.iter().any(|f| f.degraded_reads > 0), "reads ran degraded");
    assert!(online.files.iter().any(|f| f.corrupt > 0), "scrub found corruption");
    assert!(online.files.iter().any(|f| f.intervals_closed > 0), "rebuilds closed intervals");
    assert!(online.reads_ok_small > 0 && online.reads_ok_large > 0);
    assert!(trace.contains("\"name\":\"scrub.repair\""), "scrub repaired something");
    assert!(trace.lines().count() > 5_000, "drill-sized: {} records", trace.lines().count());

    let streamed = |jobs: usize| observatory::from_trace(trace, jobs).expect("own trace").report();
    let mut owned = Observatory::new();
    for record in &parse_jsonl(trace).expect("own trace") {
        owned.ingest(record);
    }
    let mut by_jobs = Observatory::new();
    for record in &observatory::parse_trace_jobs(trace, 3).expect("own trace") {
        by_jobs.ingest(record);
    }
    let want = online.render();
    for (how, report) in [
        ("from_trace, jobs 1", streamed(1)),
        ("from_trace, jobs 4", streamed(4)),
        ("a fold of parse_jsonl", owned.report()),
        ("a fold of parse_trace_jobs", by_jobs.report()),
    ] {
        assert_eq!(report, online, "{how} against the online tap");
        assert_eq!(report.render(), want, "{how} against the online tap");
    }
}

/// The writer and the parser pinned to each other on what the system
/// actually emits: every line of the drill's trace — span records, events
/// of every kind, op lines, span ends carrying their replay record,
/// `provider.op` costs as floats (zero among them) — parses to records
/// that the trace writer writes back to exactly that line.
#[test]
fn every_line_of_a_drill_trace_writes_back_byte_for_byte() {
    let (trace, online) = drill();
    let mut parser = LineParser::new();
    let mut writer = TraceWriter::new(Vec::new());
    let (mut floats, mut free, mut shared) = (0, 0, 0);
    for line in trace.lines() {
        let records = parser.parse(line).expect("own trace");
        shared += records.len() - 1;
        for record in records.iter() {
            for (key, value) in record.fields() {
                match value {
                    ValueRef::F64(_) => floats += 1,
                    ValueRef::U64(0) if key == "cost" => free += 1,
                    _ => {}
                }
            }
            writer.write(record);
        }
    }
    writer.flush().expect("a Vec takes every byte");
    let rewritten = String::from_utf8_lossy(writer.get_ref());
    for (i, (got, want)) in rewritten.lines().zip(trace.lines()).enumerate() {
        assert_eq!(got, want, "line {i}");
    }
    assert_eq!(rewritten, trace.as_str());
    assert!(floats > 1_000, "the drill's provider ops are priced: {floats} floats");
    assert!(free > 0, "a free op's cost prints as 0 and reads back as an integer");
    assert!(shared > 1_000, "provider ops and replay records share lines: {shared} records");
    let offline = observatory::from_trace(trace, 1).expect("own trace").report();
    assert_eq!(offline, online.report(), "from_trace against the online tap");
}
