//! The metric tables — names, units, directions, regression bounds — and
//! the `BENCHMARK.json` they generate. One source of truth: the command,
//! the manifest, `--compare` and the tests all read these tables.

use crate::json::{escape, number};
use crate::workloads::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run condenses a metric's per-lap values into the one it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverLaps {
    Median,
    /// The quartile on the metric's better side: what the fastest quarter
    /// of the laps achieved. Interference from other tenants of the host
    /// only ever slows a lap down, so this moves about half as much from
    /// run to run as the median does (README, "Bounds").
    BestQuartile,
}

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the parent's median by which it may worsen before the
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub over_laps: OverLaps,
}

/// A single layer's metric. No bound: it explains, it does not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, over_laps: OverLaps::Median }
}

/// A host-time metric: reported as the best quartile over laps.
const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, over_laps: OverLaps::BestQuartile }
}

/// How long one run measures, and what the command is called with.
pub const RUN_SECONDS: u32 = 20;
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "hyrd-perf/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["hyrd-perf"];

/// The end-to-end metrics, emitted for every workload. Over a run's laps
/// the two host-time metrics report their best quartile and everything
/// else the median; virtual metrics and counts are deterministic for a
/// seed, so for them the two coincide. Each bound is the issue's nominal figure or
/// three times the widest spread ten runs on ten *different* seeds showed
/// on any workload, whichever is larger, capped at the contract's 25 %
/// (README, "Bounds").
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    timed("wall_ops_per_s", "ops/s", Better::Higher, 0.25),
    timed("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("allocs_per_op", "count", Better::Lower, 0.08),
    e2e("alloc_kib_per_op", "KiB", Better::Lower, 0.08),
    e2e("peak_live_mib", "MiB", Better::Lower, 0.20),
    e2e("virt_mean_s", "s", Better::Lower, 0.20),
    e2e("virt_read_p50_s", "s", Better::Lower, 0.08),
    e2e("virt_read_p99_s", "s", Better::Lower, 0.25),
    e2e("virt_write_p99_s", "s", Better::Lower, 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", Better::Lower, 0.005),
    e2e("wire_bytes_per_user_byte", "ratio", Better::Lower, 0.05),
    e2e("cost_usd_per_k_ops", "USD", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer ledger, emitted for every workload by the traced run. A
/// metric that does not apply to a workload (a staircase step on a closed
/// loop, recovery without an outage) reads 0.
pub const PER_LAYER: [PerLayer; 98] = [
    // workloads
    layer("workloads.gen_s", "s", Lower),
    layer("workloads.ops", "count", Higher),
    layer("workloads.user_mib", "MiB", Higher),
    // driver
    layer("driver.self_us_per_op", "us", Lower),
    layer("driver.allocs_per_op", "count", Lower),
    // dispatcher
    layer("dispatcher.create_small_us_p50", "us", Lower),
    layer("dispatcher.create_large_us_p50", "us", Lower),
    layer("dispatcher.read_small_us_p50", "us", Lower),
    layer("dispatcher.read_large_us_p50", "us", Lower),
    layer("dispatcher.update_small_us_p50", "us", Lower),
    layer("dispatcher.update_large_us_p50", "us", Lower),
    layer("dispatcher.delete_us_p50", "us", Lower),
    layer("dispatcher.list_us_p50", "us", Lower),
    layer("dispatcher.busy_s", "s", Lower),
    layer("dispatcher.allocs_per_call", "count", Lower),
    layer("dispatcher.alloc_kib_per_call", "KiB", Lower),
    layer("dispatcher.provider_ops_per_call", "count", Lower),
    layer("dispatcher.cache_hit_ratio", "ratio", Higher),
    layer("dispatcher.degraded_reads", "count", Lower),
    layer("dispatcher.self_s", "s", Lower),
    // gfec
    layer("gfec.encode_calls", "count", Lower),
    layer("gfec.encode_busy_s", "s", Lower),
    layer("gfec.decode_calls", "count", Lower),
    layer("gfec.decode_busy_s", "s", Lower),
    layer("gfec.update_busy_s", "s", Lower),
    layer("gfec.rebuild_busy_s", "s", Lower),
    layer("gfec.encode_mib_per_s", "MiB/s", Higher),
    layer("gfec.decode_mib_per_s", "MiB/s", Higher),
    layer("gfec.update_mib_per_s", "MiB/s", Higher),
    // dedup + integrity
    layer("dedup.sha256_mib_per_s", "MiB/s", Higher),
    layer("dedup.sha256_4k_ns", "ns", Lower),
    layer("integrity.hashed_mib", "MiB", Lower),
    layer("integrity.est_busy_s", "s", Lower),
    // metastore
    layer("metastore.txn_ns_p50", "ns", Lower),
    layer("metastore.flush_us_p50", "us", Lower),
    layer("metastore.flush_bytes_per_txn", "B", Lower),
    layer("metastore.full_block_flush_ratio", "ratio", Lower),
    layer("metastore.est_busy_s", "s", Lower),
    layer("metastore.occ_conflicts", "count", Lower),
    layer("metastore.occ_retries", "count", Lower),
    layer("metastore.lock_contended", "count", Lower),
    layer("metastore.lock_wait_s", "s", Lower),
    layer("metastore.chain_max", "count", Lower),
    // cloudsim
    layer("cloudsim.provider_ops", "count", Lower),
    layer("cloudsim.put_ops", "count", Lower),
    layer("cloudsim.get_ops", "count", Lower),
    layer("cloudsim.bytes_in_mib", "MiB", Lower),
    layer("cloudsim.bytes_out_mib", "MiB", Lower),
    layer("cloudsim.op_errors", "count", Lower),
    layer("cloudsim.busiest_provider_share", "ratio", Lower),
    layer("cloudsim.put_ns_p50", "ns", Lower),
    layer("cloudsim.get_ns_p50", "ns", Lower),
    layer("cloudsim.est_busy_s", "s", Lower),
    // engine (+ cloudsim::queue)
    layer("engine.hedges_fired", "count", Lower),
    layer("engine.hedges_won", "count", Higher),
    layer("engine.hedges_cancelled", "count", Lower),
    layer("engine.hedge_win_ratio", "ratio", Higher),
    layer("engine.queue_wait_virt_s_mean", "s", Lower),
    layer("engine.queue_depth_peak", "count", Lower),
    layer("engine.step1_read_p99_s", "s", Lower),
    layer("engine.step1_write_p95_s", "s", Lower),
    layer("engine.step1_backlog_ratio", "ratio", Lower),
    layer("engine.step2_read_p99_s", "s", Lower),
    layer("engine.step2_write_p95_s", "s", Lower),
    layer("engine.step2_backlog_ratio", "ratio", Lower),
    layer("engine.step3_read_p99_s", "s", Lower),
    layer("engine.step3_write_p95_s", "s", Lower),
    layer("engine.step3_backlog_ratio", "ratio", Lower),
    layer("engine.step4_read_p99_s", "s", Lower),
    layer("engine.step4_write_p95_s", "s", Lower),
    layer("engine.step4_backlog_ratio", "ratio", Lower),
    layer("engine.read_p999_virt_s", "s", Lower),
    layer("engine.slo_max_rate_per_s", "1/s", Higher),
    layer("engine.fanout_ns_p50", "ns", Lower),
    // gcsapi
    layer("gcsapi.retry_backoffs", "count", Lower),
    layer("gcsapi.breaker_rejects", "count", Lower),
    layer("gcsapi.breaker_transitions", "count", Lower),
    // recovery
    layer("recovery.wall_s", "s", Lower),
    layer("recovery.virt_s", "s", Lower),
    layer("recovery.replays", "count", Lower),
    layer("recovery.rebuilds", "count", Lower),
    layer("recovery.mib_moved", "MiB", Lower),
    layer("recovery.pending_after", "count", Lower),
    // telemetry + observatory
    layer("telemetry.online_overhead_pct", "%", Lower),
    layer("telemetry.extra_allocs_per_op", "count", Lower),
    layer("telemetry.records_per_op", "count", Lower),
    layer("telemetry.trace_bytes_per_op", "B", Lower),
    layer("telemetry.event_ns", "ns", Lower),
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.disabled_event_ns", "ns", Lower),
    layer("telemetry.hist_record_ns", "ns", Lower),
    layer("telemetry.parse_mib_per_s", "MiB/s", Higher),
    layer("observatory.fold_ns_per_record", "ns", Lower),
    layer("observatory.report_ms", "ms", Lower),
    layer("telemetry.hist_p50_rel_err", "ratio", Lower),
    layer("telemetry.hist_p99_rel_err", "ratio", Lower),
    // ledger
    layer("ledger.trace_overhead_pct", "%", Lower),
    layer("ledger.unattributed_share", "ratio", Lower),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let strings = |items: &[&str]| {
        items.iter().map(|s| format!("\"{}\"", escape(s))).collect::<Vec<_>>().join(", ")
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), escape(w.why())))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                number(d.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_fit_the_benchmark_contract() {
        let mut seen = HashSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.why().len());
        }
        for d in END_TO_END {
            assert!(name_ok(d.name) && unit_ok(d.unit) && seen.insert(d.name), "{}", d.name);
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        for d in PER_LAYER {
            assert!(name_ok(d.name) && unit_ok(d.unit) && seen.insert(d.name), "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup =
            END_TO_END.iter().find(|d| d.name == "setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = crate::json::parse(&text).expect("valid json");
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(doc.get("workloads").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(doc.get("end_to_end").unwrap().as_array().unwrap().len(), END_TO_END.len());
        assert_eq!(doc.get("per_layer").unwrap().as_array().unwrap().len(), PER_LAYER.len());
    }
}
