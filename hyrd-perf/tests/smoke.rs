//! All four workloads at smoke scale (seconds in a debug build): every
//! metric the tables name is present, finite and has a unit; the
//! correctness gate passes; the same seed repeats every deterministic
//! metric exactly and a different seed changes the op stream.

use hyrd_perf::alloc::CountingAlloc;
use hyrd_perf::metrics::{manifest, END_TO_END, PER_LAYER};
use hyrd_perf::run::{results_json, run, RunOptions, RunResult};
use hyrd_perf::workloads::{op_lists, Scale, Workload};
use hyrd_perf::{compare, json};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn smoke(workload: Workload, seed: u64, traced: bool) -> RunResult {
    run(&RunOptions { workload, seed, seconds: 1.0, traced, scale: Scale::Smoke, spans_dir: None })
}

/// Metrics that are model outputs or counts: a pure function of the seed.
fn deterministic(name: &str) -> bool {
    name.starts_with("virt_")
        || name.starts_with("engine.step")
        || [
            "stored_bytes_per_user_byte",
            "wire_bytes_per_user_byte",
            "cost_usd_per_k_ops",
            "workloads.ops",
            "workloads.user_mib",
            "dispatcher.provider_ops_per_call",
            "dispatcher.cache_hit_ratio",
            "dispatcher.degraded_reads",
            "gfec.encode_calls",
            "gfec.decode_calls",
            "integrity.hashed_mib",
            "cloudsim.provider_ops",
            "cloudsim.put_ops",
            "cloudsim.get_ops",
            "cloudsim.bytes_in_mib",
            "cloudsim.bytes_out_mib",
            "cloudsim.op_errors",
            "cloudsim.busiest_provider_share",
            "engine.hedges_fired",
            "engine.hedges_won",
            "engine.hedges_cancelled",
            "engine.queue_wait_virt_s_mean",
            "engine.slo_max_rate_per_s",
            "gcsapi.retry_backoffs",
            "gcsapi.breaker_rejects",
            "gcsapi.breaker_transitions",
            "recovery.virt_s",
            "recovery.replays",
            "recovery.rebuilds",
            "recovery.mib_moved",
            "recovery.pending_after",
            "metastore.flush_bytes_per_txn",
            "metastore.full_block_flush_ratio",
            "metastore.chain_max",
            "telemetry.records_per_op",
            "telemetry.trace_bytes_per_op",
            "telemetry.hist_p50_rel_err",
            "telemetry.hist_p99_rel_err",
        ]
        .contains(&name)
}

fn check_complete(result: &RunResult, names: &[(&str, &str)]) {
    assert!(result.correct(), "{}: {:?}", result.workload.name(), result.violations);
    assert_eq!(result.failed, 0);
    assert!(result.attempted >= 1);
    assert_eq!(result.metrics.len(), names.len());
    for (name, unit) in names {
        let m = result
            .metric(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", result.workload.name()));
        // At smoke scale most percentiles are refused: NaN here, "n/a" in
        // the table, 0 in the JSON below.
        assert!(
            m.value.is_finite() || (m.value.is_nan() && name.contains("_p")),
            "{name} = {}",
            m.value
        );
        assert_eq!(m.unit, *unit, "{name}");
        assert!(!m.unit.is_empty());
    }
    // The contract line: one JSON object with exactly the four keys.
    let line = result.contract_line();
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).expect("contract line is json");
    let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let written = doc.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(written.len(), names.len());
    for (name, metric) in written {
        assert!(metric.get("value").unwrap().as_f64().unwrap().is_finite(), "{name}");
        assert!(!metric.get("unit").unwrap().as_str().unwrap().is_empty(), "{name}");
    }
}

fn check_workload(workload: Workload) {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
    for (traced, names) in [(false, &e2e), (true, &layers)] {
        let first = smoke(workload, 11, traced);
        check_complete(&first, names);
        let again = smoke(workload, 11, traced);
        for (a, b) in
            first.metrics.iter().zip(&again.metrics).filter(|(a, _)| deterministic(a.name))
        {
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{} / {} must repeat for a seed",
                workload.name(),
                a.name
            );
        }
    }
    assert_ne!(op_lists(workload, 11, Scale::Smoke), op_lists(workload, 12, Scale::Smoke));
    assert_eq!(op_lists(workload, 11, Scale::Smoke), op_lists(workload, 11, Scale::Smoke));
}

#[test]
fn postmark_small_smoke() {
    check_workload(Workload::PostmarkSmall);
    // gfec does nothing here: the ledger says so, and the gate enforced it.
    let ledger = smoke(Workload::PostmarkSmall, 11, true);
    assert_eq!(ledger.metric("gfec.encode_calls").unwrap().value, 0.0);
    assert_eq!(ledger.metric("engine.hedges_fired").unwrap().value, 0.0);
    assert!(ledger.metric("dispatcher.create_small_us_p50").unwrap().value > 0.0);
}

#[test]
fn large_ec_outage_smoke() {
    check_workload(Workload::LargeEcOutage);
    let ledger = smoke(Workload::LargeEcOutage, 11, true);
    assert!(
        ledger.metric("dispatcher.degraded_reads").unwrap().value > 0.0,
        "outage reads are degraded reads"
    );
    assert!(ledger.metric("recovery.replays").unwrap().value > 0.0);
    assert!(ledger.metric("recovery.rebuilds").unwrap().value > 0.0);
    assert_eq!(ledger.metric("recovery.pending_after").unwrap().value, 0.0);
    assert!(ledger.metric("gfec.decode_calls").unwrap().value > 0.0);
}

#[test]
fn openloop_zipf_smoke() {
    check_workload(Workload::OpenloopZipf);
    let ledger = smoke(Workload::OpenloopZipf, 11, true);
    assert!(ledger.metric("engine.step4_backlog_ratio").unwrap().value > 0.0);
    assert!(ledger.metric("cloudsim.busiest_provider_share").unwrap().value > 0.25);
}

#[test]
fn postmark_observed_smoke() {
    check_workload(Workload::PostmarkObserved);
    // Watching must not change the model.
    let plain = smoke(Workload::PostmarkSmall, 11, false);
    let observed = smoke(Workload::PostmarkObserved, 11, false);
    for (a, b) in plain.metrics.iter().zip(&observed.metrics).filter(|(a, _)| deterministic(a.name))
    {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
    }
    let ledger = smoke(Workload::PostmarkObserved, 11, true);
    assert!(ledger.metric("telemetry.records_per_op").unwrap().value > 1.0);
    assert!(ledger.metric("telemetry.trace_bytes_per_op").unwrap().value > 0.0);
}

#[test]
fn traced_run_writes_its_spans() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans");
    let result = run(&RunOptions {
        workload: Workload::LargeEcOutage,
        seed: 5,
        seconds: 1.0,
        traced: true,
        scale: Scale::Smoke,
        spans_dir: Some(dir.clone()),
    });
    assert!(result.correct(), "{:?}", result.violations);
    let text =
        std::fs::read_to_string(dir.join("large_ec_outage.spans.jsonl")).expect("spans file");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    let names: Vec<String> = text
        .lines()
        .map(|line| {
            json::parse(line)
                .expect("span line is json")
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    for expected in [
        "run",
        "workloads.generate",
        "setup",
        "driver.replay",
        "scheme.read",
        "scheme.update",
        "recovery.recover_provider",
    ] {
        assert!(names.iter().any(|n| n == expected), "no '{expected}' span");
    }
}

#[test]
fn committed_manifest_and_result_file_match_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, manifest(), "regenerate with: hyrd-perf --manifest > BENCHMARK.json");

    let mut results: Vec<RunResult> = Workload::ALL.iter().map(|&w| smoke(w, 3, false)).collect();
    results.push(smoke(Workload::PostmarkSmall, 3, true));
    let host = hyrd_perf::host::HostContext::detect();
    let file = results_json(&host, 3, &results);
    // A set compared with itself: every row present, none regressed.
    let rows = compare::compare(&file, &file).expect("a complete result file compares");
    assert_eq!(rows.len(), Workload::ALL.len() * END_TO_END.len());
    assert!(rows.iter().all(|r| r.worse_by == 0.0 && r.verdict != compare::Verdict::Regression));
    let doc = json::parse(&file).expect("result file is json");
    let section = doc.get("workloads").unwrap().get("postmark_small").unwrap();
    let wall =
        section.get("end_to_end").unwrap().get("metrics").unwrap().get("wall_ops_per_s").unwrap();
    assert!(wall.get("value").unwrap().as_f64().unwrap() > 0.0);
    assert!(section
        .get("per_layer")
        .unwrap()
        .get("metrics")
        .unwrap()
        .get("ledger.trace_overhead_pct")
        .is_some());
    assert!(doc.get("host").unwrap().get("sha256_kernel").is_some());
}
