//! End-to-end telemetry: every instrumentation site on the request path
//! demonstrated against the ring-buffer / JSONL sinks, plus the
//! determinism guarantee (same-seed runs emit byte-identical traces).
//! All timestamps come from the virtual [`SimClock`]; no wall-clock
//! values ever reach a trace record.

use std::time::Duration;

use hyrd::driver::synth_content;
use hyrd::health::BreakerSettings;
use hyrd::prelude::*;
use hyrd_cloudsim::FaultPlan;
use hyrd_gcsapi::RetryPolicy;
use hyrd_telemetry::{Collector, SharedBuf, TraceRecord};
use integration_tests::fresh_fleet;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

fn secs(v: u64) -> Duration {
    Duration::from_secs(v)
}

/// A collector with an in-memory ring, stamped by the fleet's clock.
fn ring_collector(clock: &SimClock) -> Collector {
    Collector::builder(clock.clone()).ring(8192).build()
}

#[test]
fn breaker_walks_closed_open_half_open_closed_in_the_trace() {
    let (clock, fleet) = fresh_fleet();
    let telemetry = ring_collector(&clock);
    let config = HyrdConfig {
        breaker: BreakerSettings { trip_after: 2, cooldown: secs(30) },
        // Single-attempt calls: each burst failure lands on the breaker
        // immediately, keeping the transition schedule exact.
        retry: RetryPolicy::none(),
        ..HyrdConfig::default()
    };
    let h = Hyrd::with_telemetry(&fleet, config, telemetry.clone()).expect("valid config");

    // Construction probed a healthy fleet; now Azure starts failing
    // every call for the next 60 virtual seconds.
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");
    azure.set_fault_plan(FaultPlan::quiet().with_seed(11).with_burst(
        Duration::ZERO,
        secs(60),
        1000,
    ));

    // Each small create writes the object + metadata to both replica
    // targets; two Azure failures trip the two-strike breaker while
    // Aliyun keeps every write live (no desperation resets).
    h.create_file("/a", &synth_content("/a", 0, 4 * KB)).expect("other replica lands");
    h.create_file("/b", &synth_content("/b", 0, 4 * KB)).expect("other replica lands");
    h.create_file("/c", &synth_content("/c", 0, 4 * KB)).expect("other replica lands");

    // Past the burst and the cooldown: the next write admits a half-open
    // probe on Azure, which succeeds and closes the circuit.
    clock.advance(secs(70));
    h.create_file("/d", &synth_content("/d", 0, 4 * KB)).expect("up");

    let azure_id = u64::from(azure.id().0);
    let transitions: Vec<(String, String)> = telemetry
        .ring_records()
        .iter()
        .filter(|r| r.is_event("breaker.transition"))
        .filter(|r| r.field_u64("provider") == Some(azure_id))
        .map(|r| {
            (
                r.field_str("from").expect("from field").to_string(),
                r.field_str("to").expect("to field").to_string(),
            )
        })
        .collect();
    assert_eq!(
        transitions,
        vec![
            ("closed".to_string(), "open".to_string()),
            ("open".to_string(), "half_open".to_string()),
            ("half_open".to_string(), "closed".to_string()),
        ],
        "the breaker must walk the exact textbook sequence"
    );

    // Open-circuit writes were shed, and the shedding is in the trace.
    let rejects = telemetry
        .ring_records()
        .iter()
        .filter(|r| r.is_event("breaker.reject"))
        .filter(|r| r.field_str("provider") == Some("Windows Azure"))
        .count();
    assert!(rejects >= 1, "open breaker must reject at least one write");
    assert_eq!(telemetry.counter("breaker.transitions"), 3);
}

#[test]
fn crud_and_ec_spans_cover_the_request_path() {
    let (clock, fleet) = fresh_fleet();
    let telemetry = ring_collector(&clock);
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");

    h.create_file("/small", &synth_content("/small", 0, 8 * KB)).expect("up");
    h.create_file("/big", &synth_content("/big", 0, 2 * MB)).expect("up");
    h.read_file("/small").expect("up");
    h.read_file("/big").expect("up");
    h.update_file("/big", 4096, &synth_content("/big", 1, 16 * KB)).expect("up");
    h.list_dir("/").expect("up");
    h.delete_file("/small").expect("up");

    let records = telemetry.ring_records();
    let span_names: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::SpanStart { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for want in
        ["setup.assess", "create_file", "read_file", "update_file", "delete_file", "list_dir"]
    {
        assert!(span_names.contains(&want), "missing span {want} in {span_names:?}");
    }
    // Erasure-path inner spans, labeled per provider where applicable.
    assert!(span_names.contains(&"ec.encode"), "{span_names:?}");
    assert!(span_names.contains(&"ec.decode"), "{span_names:?}");
    assert!(span_names.contains(&"ec.update"), "{span_names:?}");
    assert!(span_names.iter().any(|n| n.starts_with("put_fragment[")), "{span_names:?}");
    assert!(span_names.iter().any(|n| n.starts_with("fetch_fragment[")), "{span_names:?}");
    assert!(span_names.iter().any(|n| n.starts_with("put_replica[")), "{span_names:?}");
    assert!(span_names.iter().any(|n| n.starts_with("fetch_replica[")), "{span_names:?}");

    // Provider ops carry kind/bytes/priced cost stamped by the sim.
    let op =
        records.iter().find(|r| r.is_event("provider.op")).expect("providers must trace their ops");
    assert!(op.field_str("op").is_some());
    assert!(op.field_str("provider").is_some());

    // Spans nest: every ec.encode start has a parent (create_file).
    let encode_parented = records.iter().any(|r| {
        matches!(r, TraceRecord::SpanStart { name, parent: Some(_), .. } if name == "ec.encode")
    });
    assert!(encode_parented, "ec.encode must nest under the create span");
}

#[test]
fn retry_backoffs_are_traced_per_attempt() {
    let (clock, fleet) = fresh_fleet();
    let telemetry = ring_collector(&clock);
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
    let azure = fleet.by_name("Windows Azure").expect("standard fleet");
    azure.set_fault_plan(FaultPlan::quiet().with_seed(3).with_burst(
        Duration::ZERO,
        secs(600),
        1000,
    ));

    h.create_file("/r", &synth_content("/r", 0, 4 * KB)).expect("other replica lands");

    let backoffs: Vec<u64> = telemetry
        .ring_records()
        .iter()
        .filter(|r| r.is_event("retry.backoff"))
        .filter(|r| r.field_str("provider") == Some("Windows Azure"))
        .map(|r| r.field_u64("attempt").expect("attempt field"))
        .collect();
    // Default policy: 3 attempts per call, so 2 sleeps; attempts count
    // up from 1 within each guarded call.
    assert!(backoffs.len() >= 2, "burst must force backoffs: {backoffs:?}");
    assert_eq!(&backoffs[..2], &[1, 2]);
    assert!(telemetry.counter("retry.backoffs[Windows Azure]") >= 2);
    // Backoff sleeps advance the virtual clock, never the wall clock.
    assert!(clock.now() >= Duration::from_millis(200));
}

#[test]
fn scrub_traces_corruption_and_repair() {
    let (clock, fleet) = fresh_fleet();
    let telemetry = ring_collector(&clock);
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
    let data = synth_content("/f", 0, 8 * KB);
    h.create_file("/f", &data).expect("up");

    let object = hyrd::scheme::object_name("/f");
    let key = hyrd_gcsapi::ObjectKey::new(Fleet::CONTAINER, object.clone());
    fleet
        .providers()
        .iter()
        .find(|p| p.corrupt_object(&key, 12345))
        .expect("some provider holds a replica");

    let (report, _) = h.scrub().expect("scrub runs");
    assert_eq!(report.repaired, 1);

    let records = telemetry.ring_records();
    let corrupt = records
        .iter()
        .find(|r| r.is_event("scrub.corrupt"))
        .expect("scrub must trace the mismatch");
    assert_eq!(corrupt.field_str("object"), Some(&*object));
    let repair =
        records.iter().find(|r| r.is_event("scrub.repair")).expect("scrub must trace the rewrite");
    assert_eq!(repair.field_str("object"), Some(&*object));
    assert_eq!(telemetry.counter("scrub.corruptions"), 1);
    assert_eq!(telemetry.counter("scrub.repairs"), 1);
}

#[test]
fn degraded_reads_and_recovery_are_traced() {
    let (clock, fleet) = fresh_fleet();
    let telemetry = ring_collector(&clock);
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
    let data = synth_content("/big", 0, 3 * MB);
    h.create_file("/big", &data).expect("up");
    h.create_file("/small", &synth_content("/small", 0, 4 * KB)).expect("up");

    // One fragment provider (also a replica holder) goes dark: large
    // reads run degraded, small writes miss a replica.
    let victim = fleet.by_name("Windows Azure").expect("standard fleet");
    victim.force_down();
    let (bytes, _) = h.read_file("/big").expect("degraded read reconstructs");
    assert_eq!(&bytes[..], &data[..]);
    h.update_file("/small", 0, &synth_content("/small", 1, KB)).expect("live replica takes it");

    let degraded = telemetry
        .ring_records()
        .iter()
        .filter(|r| r.is_event("read.degraded"))
        .filter(|r| r.field_str("path") == Some("/big"))
        .count();
    assert!(degraded >= 1, "the degraded read must be marked");
    assert!(telemetry.counter("read.degraded") >= 1);

    // The outage ends; the consistency update drains the log and says so.
    victim.restore();
    let (report, _) = h.recover_provider(victim.id()).expect("replay lands");
    assert!(report.puts_replayed >= 1);
    let replay = telemetry
        .ring_records()
        .iter()
        .find(|r| r.is_event("recovery.replay"))
        .cloned()
        .expect("recovery must trace its replay");
    assert_eq!(replay.field_str("provider"), Some("Windows Azure"));
    assert!(replay.field_u64("puts").expect("puts field") >= 1);
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    fn run(seed: u64) -> Vec<u8> {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let buf = SharedBuf::new();
        let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).ring(64).build();
        for p in fleet.providers() {
            p.set_fault_plan(FaultPlan::chaos(seed, secs(3600)));
        }
        let h =
            Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
        for i in 0..8u32 {
            let path = format!("/d/f{i}");
            let size = if i % 3 == 0 { 2 * MB } else { 8 * KB };
            let _ = h.create_file(&path, &synth_content(&path, 0, size));
            clock.advance(secs(120));
        }
        for i in 0..8u32 {
            let path = format!("/d/f{i}");
            let _ = h.read_file(&path);
            let _ = h.update_file(&path, 0, &synth_content(&path, 1, KB));
            clock.advance(secs(120));
        }
        let _ = h.scrub();
        telemetry.flush();
        buf.contents()
    }

    let a = run(42);
    let b = run(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same virtual clock => byte-identical traces");
    let c = run(43);
    assert_ne!(a, c, "a different fault schedule must change the trace");
}

#[test]
fn disabled_collector_stays_silent_end_to_end() {
    let (_, fleet) = fresh_fleet();
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid");
    assert!(!h.telemetry().enabled());
    h.create_file("/x", &synth_content("/x", 0, 2 * MB)).expect("up");
    h.read_file("/x").expect("up");
    assert!(h.telemetry().ring_records().is_empty());
    assert_eq!(h.telemetry().metrics(), hyrd::telemetry::MetricsSnapshot::default());
}
