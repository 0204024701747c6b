//! Tests of the replay driver: classification, verification, clock
//! advancement, error accounting and phased state — plus the
//! deterministic multi-client engine's invariance contract.

use hyrd::driver::{multi_client, replay, replay_with_state, ReplayOptions, ReplayState};
use hyrd::prelude::*;
use hyrd::stats::OpClass;
use hyrd::telemetry::{json, parse_document, Collector, Document, SharedBuf};
use hyrd::SchemeResult;
use hyrd_workloads::{FileSizeDist, FsOp, PostMark, PostMarkConfig};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn ops() -> Vec<FsOp> {
    vec![
        FsOp::Create { path: "/a".into(), size: 4 * KB },
        FsOp::Create { path: "/b".into(), size: 3 * MB },
        FsOp::Read { path: "/a".into() },
        FsOp::Read { path: "/b".into() },
        FsOp::Update { path: "/b".into(), offset: 100, len: 512 },
        FsOp::ListDir { path: "/".into() },
        FsOp::Delete { path: "/a".into() },
    ]
}

fn setup() -> (SimClock, Fleet, Hyrd) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config");
    (clock, fleet, h)
}

#[test]
fn per_class_stats_are_populated_correctly() {
    let (clock, _, mut h) = setup();
    let stats = replay(&mut h, &ops(), &clock, &ReplayOptions::default());
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.overall.count(), 7);
    assert_eq!(stats.class(OpClass::SmallWrite).count(), 1);
    assert_eq!(stats.class(OpClass::LargeWrite).count(), 1);
    assert_eq!(stats.class(OpClass::SmallRead).count(), 1);
    assert_eq!(stats.class(OpClass::LargeRead).count(), 1);
    assert_eq!(stats.class(OpClass::Update).count(), 1);
    assert_eq!(stats.class(OpClass::Metadata).count(), 1);
    assert_eq!(stats.class(OpClass::Delete).count(), 1);
    // Large ops dwarf small ones under the calibrated models.
    assert!(stats.class(OpClass::LargeWrite).mean() > stats.class(OpClass::SmallWrite).mean());
    assert!(stats.class(OpClass::LargeRead).mean() > stats.class(OpClass::SmallRead).mean());
}

#[test]
fn verification_catches_everything_in_real_mode() {
    let (clock, _, mut h) = setup();
    let opts = ReplayOptions { verify_reads: true, ..Default::default() };
    let stats = replay(&mut h, &ops(), &clock, &opts);
    assert_eq!(stats.verify_failures, 0);
    assert_eq!(stats.errors, 0);
}

/// HyRD, except that a read comes back with one bit of one byte flipped.
struct FlipsAByte {
    inner: Hyrd,
    at: Option<usize>,
}

impl Scheme for FlipsAByte {
    fn name(&self) -> &str {
        "flips-a-byte"
    }
    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        self.inner.create_file(path, data)
    }
    fn read_file(&mut self, path: &str) -> SchemeResult<(bytes::Bytes, BatchReport)> {
        let (bytes, report) = self.inner.read_file(path)?;
        let mut bytes = bytes.to_vec();
        if let Some(at) = self.at {
            bytes[at] ^= 0x10;
        }
        Ok((bytes.into(), report))
    }
    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        self.inner.update_file(path, offset, data)
    }
    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        self.inner.delete_file(path)
    }
    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        self.inner.list_dir(path)
    }
    fn file_size(&self, path: &str) -> Option<u64> {
        self.inner.file_size(path)
    }
    fn recover_provider(
        &mut self,
        id: hyrd_gcsapi::ProviderId,
    ) -> SchemeResult<(hyrd::RecoveryReport, BatchReport)> {
        self.inner.recover_provider(id)
    }
}

#[test]
fn verification_is_byte_exact_at_the_edges_of_a_patched_window() {
    let (clock, _, inner) = setup();
    let mut scheme = FlipsAByte { inner, at: None };
    let opts = ReplayOptions { verify_reads: true, ..Default::default() };
    let mut state = ReplayState::default();
    let (offset, len) = (70_001, 4_099);
    let writes = [
        FsOp::Create { path: "/f".into(), size: 2 * MB },
        FsOp::Update { path: "/f".into(), offset, len },
    ];
    let stats = replay_with_state(&mut scheme, &writes, &clock, &opts, &mut state);
    assert_eq!((stats.errors, stats.verify_failures), (0, 0));
    let want = state.expected_content("/f").expect("a verified replay keeps what it wrote");
    assert_eq!(want.len() as u64, 2 * MB);
    assert_ne!(want[offset as usize - 1], want[offset as usize], "the update changed the fill");

    let read = [FsOp::Read { path: "/f".into() }];
    let mut failures = |at| {
        scheme.at = at;
        replay_with_state(&mut scheme, &read, &clock, &opts, &mut state).verify_failures
    };
    assert_eq!(failures(None), 0, "an honest read passes");
    let last = (offset + len - 1) as usize;
    for at in [0, offset as usize - 1, offset as usize, last, last + 1, 2 * MB as usize - 1] {
        assert_eq!(failures(Some(at)), 1, "byte {at} came back wrong and was let through");
    }
}

#[test]
fn clock_advances_by_total_latency() {
    let (clock, _, mut h) = setup();
    assert_eq!(clock.now(), std::time::Duration::ZERO);
    let stats = replay(&mut h, &ops(), &clock, &ReplayOptions::default());
    let total: f64 = OpClass::ALL
        .iter()
        .map(|&c| {
            let s = stats.class(c);
            s.mean().as_secs_f64() * s.count() as f64
        })
        .sum();
    assert!((clock.now().as_secs_f64() - total).abs() < 1e-6);

    // And with advance_clock off, time stands still.
    let (clock2, _, mut h2) = setup();
    let opts = ReplayOptions { advance_clock: false, ..Default::default() };
    let _ = replay(&mut h2, &ops(), &clock2, &opts);
    assert_eq!(clock2.now(), std::time::Duration::ZERO);
}

#[test]
fn errors_are_counted_not_fatal() {
    let (clock, fleet, mut h) = setup();
    for p in fleet.providers() {
        p.force_down();
    }
    let stats = replay(&mut h, &ops(), &clock, &ReplayOptions::default());
    // Creates fail; dependent ops fail too; the driver keeps going.
    assert_eq!(stats.errors, 7 - 1, "all but the root ListDir fail");
    assert_eq!(stats.overall.count(), 1);
}

#[test]
fn phased_replay_keeps_file_sizes_for_classification() {
    let (clock, _, mut h) = setup();
    let phase1 = vec![FsOp::Create { path: "/big".into(), size: 2 * MB }];
    let phase2 = vec![FsOp::Read { path: "/big".into() }];
    let opts = ReplayOptions::default();
    let mut state = ReplayState::default();
    let _ = replay_with_state(&mut h, &phase1, &clock, &opts, &mut state);
    let s2 = replay_with_state(&mut h, &phase2, &clock, &opts, &mut state);
    assert_eq!(s2.class(OpClass::LargeRead).count(), 1, "size survived the phase break");
    assert_eq!(s2.class(OpClass::SmallRead).count(), 0);
    assert_eq!(s2.verify_failures, 0);
}

#[test]
fn summary_is_readable() {
    let (clock, _, mut h) = setup();
    let stats = replay(&mut h, &ops(), &clock, &ReplayOptions::default());
    let text = stats.summary();
    assert!(text.contains("HyRD"));
    assert!(text.contains("large-write"));
    assert!(text.contains("provider ops="));
}

#[test]
fn provider_op_and_byte_accounting_matches_fleet_stats() {
    let (clock, fleet, mut h) = setup();
    let before_ops: u64 = fleet.providers().iter().map(|p| p.stats().total_ops()).sum();
    let stats = replay(&mut h, &ops(), &clock, &ReplayOptions::default());
    let after_ops: u64 = fleet.providers().iter().map(|p| p.stats().total_ops()).sum();
    // Replay-reported ops are a subset of fleet ops (fleet also counts
    // the evaluator probes from before the replay).
    assert!(stats.provider_ops <= after_ops - before_ops + 12);
    assert!(stats.provider_ops > 0);
    let fleet_in: u64 = fleet.providers().iter().map(|p| p.stats().bytes_in).sum();
    assert!(stats.bytes_in <= fleet_in);
    assert!(stats.bytes_in > 3 * MB, "the striped large file was uploaded");
}

/// A PostMark stream sized for the engine tests: enough ops to spread
/// across many sessions, both tiers exercised, seconds not minutes.
fn soak_ops() -> Vec<FsOp> {
    let config = PostMarkConfig {
        initial_files: 10,
        transactions: 50,
        size_dist: FileSizeDist::log_uniform(KB, 2 * MB),
        seed: 11,
        ..PostMarkConfig::default()
    };
    PostMark::new(config).generate().0
}

#[test]
fn multi_client_merged_stats_equal_a_plain_replay() {
    let ops = soak_ops();
    let opts = || ReplayOptions { verify_reads: true, ..Default::default() };

    let (clock, _fleet, mut h) = setup();
    let plain = replay(&mut h, &ops, &clock, &opts());

    let (clock2, _fleet2, h2) = setup();
    let report = multi_client::run(
        &h2,
        &clock2,
        &ops,
        MultiClientOptions { clients: 3, jobs: 1, replay: opts() },
    );
    assert_eq!(report.merged, plain, "3 sessions must merge to the single-session stats");
    assert_eq!(clock2.now(), clock.now(), "virtual schedules agree");
    assert_eq!(plain.verify_failures, 0);
}

#[test]
fn multi_client_output_is_invariant_across_clients_and_jobs() {
    let ops = soak_ops();
    let run = |clients: usize, jobs: usize| {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let buf = SharedBuf::new();
        let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).build();
        let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
            .expect("valid default config");
        let opts = ReplayOptions {
            verify_reads: true,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let report =
            multi_client::run(&h, &clock, &ops, MultiClientOptions { clients, jobs, replay: opts });
        telemetry.flush();
        (json::to_string(&report.merged), buf.contents(), report)
    };

    let (base_json, base_trace, base_report) = run(1, 1);
    assert_eq!(base_report.sessions.len(), 1);
    assert!(!base_trace.is_empty(), "the trace sink must actually receive events");
    // The serialised report is a real document: the whole report parses
    // back and carries what the struct holds.
    let doc = parse_document(&json::to_string_pretty(&base_report)).expect("report parses");
    let merged = doc.get("merged").expect("merged stats");
    let u64_at = |doc: &Document, key: &str| match doc.get(key) {
        Some(Document::Scalar(v)) => v.as_u64(),
        _ => None,
    };
    assert_eq!(u64_at(&doc, "clients"), Some(1));
    assert_eq!(u64_at(merged, "provider_ops"), Some(base_report.merged.provider_ops));
    let count = merged.get("overall").and_then(|o| o.get("hist")).and_then(|h| u64_at(h, "count"));
    assert_eq!(count, Some(base_report.merged.overall.count() as u64));
    let sessions = doc.get("sessions").expect("per-session breakdown");
    assert!(matches!(sessions, Document::Array(items) if items.len() == 1));
    for (clients, jobs) in [(3, 1), (8, 2), (3, 4), (16, 1)] {
        let (json, trace, report) = run(clients, jobs);
        assert_eq!(json, base_json, "merged stats diverged at clients={clients} jobs={jobs}");
        assert_eq!(trace, base_trace, "trace diverged at clients={clients} jobs={jobs}");
        assert_eq!(report.sessions.len(), clients);

        // The per-session tallies legitimately vary — but they must
        // partition the merged totals exactly.
        let ops_sum: u64 = report.sessions.iter().map(|s| s.ops).sum();
        let err_sum: u64 = report.sessions.iter().map(|s| s.errors).sum();
        assert_eq!(ops_sum, report.merged.overall.count() as u64);
        assert_eq!(err_sum, report.merged.errors);
        assert_eq!(ops_sum + err_sum, ops.len() as u64);
        let prov_sum: u64 = report.sessions.iter().map(|s| s.provider_ops).sum();
        assert_eq!(prov_sum, report.merged.provider_ops);
        assert!(
            report.sessions.iter().all(|s| s.ops > 0),
            "queue sharing keeps every session busy (clients={clients})"
        );
    }
}

/// The OCC linearizability contract (DESIGN.md §15): interleaved
/// sessions through the engine must leave exactly the namespace a
/// serial replay leaves, and must do so without a single OCC conflict —
/// the engine serializes op execution, so any conflict or retry would
/// be a determinism bug, not contention.
#[test]
fn sharded_metastore_matches_the_serial_oracle() {
    // Truncate the postmark stream before its cleanup phase (which
    // deletes the whole pool), so the final namespace is non-trivial.
    let all = soak_ops();
    let ops = &all[..all.len() * 2 / 3];

    fn namespace(h: &Hyrd) -> Vec<(String, u64)> {
        fn walk(h: &Hyrd, dir: &str, out: &mut Vec<(String, u64)>) {
            let (names, _) = h.list_dir(dir).expect("listable");
            for name in names {
                let path = if dir == "/" { format!("/{name}") } else { format!("{dir}/{name}") };
                match h.file_size(&path) {
                    Some(size) => out.push((path, size)),
                    None => walk(h, &path, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(h, "/", &mut out);
        out.sort();
        out
    }

    let (clock, _fleet, mut serial) = setup();
    let serial_stats = replay(&mut serial, ops, &clock, &ReplayOptions::default());
    let oracle = namespace(&serial);
    assert!(!oracle.is_empty(), "the truncated stream must leave live files");

    for clients in [1usize, 8] {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let telemetry = Collector::builder(clock.clone()).build();
        let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone())
            .expect("valid default config");
        let report = multi_client::run(
            &h,
            &clock,
            ops,
            MultiClientOptions { clients, jobs: 2, replay: ReplayOptions::default() },
        );
        assert_eq!(report.merged.errors, serial_stats.errors);
        assert_eq!(namespace(&h), oracle, "namespace diverged at {clients} client(s)");

        h.publish_meta_metrics();
        let metrics = telemetry.metrics();
        assert_eq!(
            metrics.gauges.get("meta.occ.conflicts").copied().unwrap_or(0),
            0,
            "serialized engine execution must never see an OCC conflict"
        );
        assert_eq!(metrics.gauges.get("meta.occ.retries").copied().unwrap_or(0), 0);
    }
}

#[test]
fn multi_client_batches_accumulate_like_phased_replay() {
    let ops = soak_ops();
    let mid = ops.len() / 2;

    let (clock, _fleet, h) = setup();
    let engine =
        MultiClient::new(&h, &clock, MultiClientOptions { clients: 4, ..Default::default() });
    let mut total = ReplayStats::default();
    total.absorb(&engine.run_ops(&ops[..mid]));
    total.absorb(&engine.run_ops(&ops[mid..]));

    // The reference: the same two phases through the single-session
    // driver, folded the same way (identical float grouping).
    let (clock2, _fleet2, mut h2) = setup();
    let opts = ReplayOptions::default();
    let mut state = ReplayState::default();
    let mut reference = ReplayStats::default();
    reference.absorb(&replay_with_state(&mut h2, &ops[..mid], &clock2, &opts, &mut state));
    reference.absorb(&replay_with_state(&mut h2, &ops[mid..], &clock2, &opts, &mut state));

    assert_eq!(total, reference, "state carries across batches exactly like replay_with_state");
    assert_eq!(clock.now(), clock2.now());
    assert_eq!(engine.live_files(), 0, "postmark cleanup deletes the whole pool");
}
