//! Turns laps into the metric tables: the end-to-end metrics of one lap,
//! and the per-layer ledger of a traced lap.
//!
//! Per-layer sources: **T** — spans the traced lap's `SpanTap` (or the
//! workload, around driver and generator calls) recorded; **C** — counts
//! read from outside (`SimProvider::stats()`, `Hyrd::fault_counters()`,
//! the sink-less collector's registry); **P** — stand-alone probes.
//! Spans inside `Hyrd` do not exist yet, so the inside of a scheme call is
//! attributed by the C sums and P estimates, and what they do not explain
//! shows up as `dispatcher.self_s` / `ledger.unattributed_share`.

use std::collections::BTreeMap;

use hyrd_telemetry::MetricsSnapshot;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes::{CloudsimProbe, GfecProbe, MetastoreProbe, ShaProbe, TelemetryProbe};
use crate::stats::{self, percentile, secs};
use crate::tap::{Call, Sample, Span};
use crate::workloads::Lap;

const MIB: f64 = 1024.0 * 1024.0;

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Ascending modelled latencies of the accepted calls `pick` selects.
fn latencies(samples: &[Sample], pick: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut out: Vec<u64> =
        samples.iter().filter(|s| s.ok && pick(s)).map(|s| s.latency_ns).collect();
    out.sort_unstable();
    out
}

/// The exact read / write percentiles of one lap (`None` = refused).
pub struct Percentiles {
    pub read_p50: Option<u64>,
    pub read_p99: Option<u64>,
    pub read_p999: Option<u64>,
    pub write_p99: Option<u64>,
}

pub fn percentiles(samples: &[Sample]) -> Percentiles {
    let reads = latencies(samples, |s| s.call == Call::Read);
    let writes = latencies(samples, |s| s.call.is_write());
    Percentiles {
        read_p50: percentile(&reads, 0.5),
        read_p99: percentile(&reads, 0.99),
        read_p999: percentile(&reads, 0.999),
        write_p99: percentile(&writes, 0.99),
    }
}

/// The end-to-end metrics of one lap, in `END_TO_END` order.
pub fn end_to_end(lap: &Lap) -> Vec<Metric> {
    let ops = lap.attempted as f64;
    let user_bytes = lap.user_bytes() as f64;
    let wire: u64 = lap.providers.iter().map(|p| p.bytes_in + p.bytes_out).sum();
    let all = latencies(&lap.samples, |_| true);
    let p = percentiles(&lap.samples);
    let value = |name: &str| match name {
        "setup_s" => lap.setup.wall_s,
        "wall_ops_per_s" => div(ops, lap.timed.wall_s),
        "cpu_us_per_op" => div(lap.timed.cpu_s * 1e6, ops),
        "allocs_per_op" => div(lap.timed.allocs as f64, ops),
        "alloc_kib_per_op" => div(lap.timed.alloc_bytes as f64 / 1024.0, ops),
        "peak_live_mib" => lap.peak_live as f64 / MIB,
        "virt_mean_s" => stats::mean(&all) / 1e9,
        "virt_read_p50_s" => secs(p.read_p50),
        "virt_read_p99_s" => secs(p.read_p99),
        "virt_write_p99_s" => secs(p.write_p99),
        "stored_bytes_per_user_byte" => div(lap.stored_bytes as f64, lap.logical_bytes as f64),
        "wire_bytes_per_user_byte" => div(wire as f64, user_bytes),
        "cost_usd_per_k_ops" => div(lap.cost_usd * 1000.0, ops),
        other => unreachable!("end-to-end metric '{other}' has no definition"),
    };
    END_TO_END.iter().map(|d| Metric { name: d.name, unit: d.unit, value: value(d.name) }).collect()
}

/// What the traced run measured besides the traced lap itself.
pub struct LedgerInputs<'a> {
    /// The traced lap (spans + registry attached).
    pub traced: &'a Lap,
    /// Median timed-phase wall time of the untraced laps.
    pub untraced_wall_s: f64,
    /// `postmark_observed` only: median replay wall time and timed-phase
    /// allocations of plain `postmark_small` laps on the same op stream.
    pub plain_replay: Option<(f64, u64)>,
    pub gfec: GfecProbe,
    pub sha: ShaProbe,
    pub cloudsim: CloudsimProbe,
    pub metastore: MetastoreProbe,
    pub engine_fanout_ns: f64,
    pub telemetry: TelemetryProbe,
}

struct SpanSums {
    dur_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    count: u64,
}

fn sum_spans<'a>(spans: impl Iterator<Item = &'a Span>) -> SpanSums {
    let mut sums = SpanSums { dur_ns: 0, allocs: 0, alloc_bytes: 0, count: 0 };
    for s in spans {
        sums.dur_ns += s.dur_ns();
        sums.allocs += s.allocs;
        sums.alloc_bytes += s.alloc_bytes;
        sums.count += 1;
    }
    sums
}

/// `(count, sum)` of a registry histogram, 0 when it never recorded.
fn hist(registry: &MetricsSnapshot, name: &str) -> (f64, f64) {
    registry.histograms.get(name).map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
}

/// The per-layer ledger, in `PER_LAYER` order.
pub fn per_layer(inputs: &LedgerInputs) -> Vec<Metric> {
    let lap = inputs.traced;
    let empty = MetricsSnapshot::default();
    let registry = lap.registry.as_ref().unwrap_or(&empty);
    let ops = lap.attempted as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // workloads
    v.insert("workloads.gen_s", lap.gen_s);
    v.insert("workloads.ops", ops);
    v.insert("workloads.user_mib", lap.user_bytes() as f64 / MIB);

    // driver: the replay span minus the scheme calls (and recovery) under it.
    let replay_ids: Vec<u32> = (0u32..)
        .zip(&lap.spans)
        .filter(|(_, s)| s.name == "driver.replay")
        .map(|(i, _)| i)
        .collect();
    let replay = sum_spans(lap.spans.iter().filter(|s| s.name == "driver.replay"));
    let under_replay =
        sum_spans(lap.spans.iter().filter(|s| s.parent.is_some_and(|p| replay_ids.contains(&p))));
    v.insert(
        "driver.self_us_per_op",
        div(replay.dur_ns.saturating_sub(under_replay.dur_ns) as f64 / 1e3, ops),
    );
    v.insert(
        "driver.allocs_per_op",
        div(replay.allocs.saturating_sub(under_replay.allocs) as f64, ops),
    );

    // dispatcher: one span per scheme call, paired with its sample by op id.
    let mut by_class: BTreeMap<(Call, bool), Vec<f64>> = BTreeMap::new();
    for span in lap.spans.iter().filter(|s| s.name.starts_with("scheme.")) {
        if let Some(sample) = span.op_id.and_then(|id| lap.samples.get(id as usize)) {
            by_class
                .entry((sample.call, sample.large))
                .or_default()
                .push(span.dur_ns() as f64 / 1e3);
        }
    }
    let p50 = |call: Call, large: &[bool]| {
        let all: Vec<f64> = large
            .iter()
            .flat_map(|l| by_class.get(&(call, *l)).cloned().unwrap_or_default())
            .collect();
        stats::median(&all)
    };
    v.insert("dispatcher.create_small_us_p50", p50(Call::Create, &[false]));
    v.insert("dispatcher.create_large_us_p50", p50(Call::Create, &[true]));
    v.insert("dispatcher.read_small_us_p50", p50(Call::Read, &[false]));
    v.insert("dispatcher.read_large_us_p50", p50(Call::Read, &[true]));
    v.insert("dispatcher.update_small_us_p50", p50(Call::Update, &[false]));
    v.insert("dispatcher.update_large_us_p50", p50(Call::Update, &[true]));
    v.insert("dispatcher.delete_us_p50", p50(Call::Delete, &[false, true]));
    v.insert("dispatcher.list_us_p50", p50(Call::List, &[false, true]));
    let calls = sum_spans(lap.spans.iter().filter(|s| s.name.starts_with("scheme.")));
    let busy_s = calls.dur_ns as f64 / 1e9;
    v.insert("dispatcher.busy_s", busy_s);
    v.insert("dispatcher.allocs_per_call", div(calls.allocs as f64, calls.count as f64));
    v.insert(
        "dispatcher.alloc_kib_per_call",
        div(calls.alloc_bytes as f64 / 1024.0, calls.count as f64),
    );
    let provider_ops: u64 = lap.samples.iter().map(|s| s.provider_ops as u64).sum();
    v.insert(
        "dispatcher.provider_ops_per_call",
        div(provider_ops as f64, lap.samples.len() as f64),
    );
    // The SmallFileCache serves updates (it spares them the read round),
    // never reads: a small update that issued no Get was a hit.
    let small_updates: Vec<&Sample> =
        lap.samples.iter().filter(|s| s.ok && s.call == Call::Update && !s.large).collect();
    let hits = small_updates.iter().filter(|s| !s.fetched).count();
    v.insert("dispatcher.cache_hit_ratio", div(hits as f64, small_updates.len() as f64));
    v.insert("dispatcher.degraded_reads", registry.counter("read.degraded") as f64);

    // gfec: the dispatcher's own wall-time histograms around the kernels.
    let (encode_calls, encode_ns) = hist(registry, "ec.encode_wall_ns");
    let (decode_calls, decode_ns) = hist(registry, "ec.decode_wall_ns");
    let (_, update_ns) = hist(registry, "ec.update_wall_ns");
    let (_, rebuild_ns) = hist(registry, "ec.rebuild_wall_ns");
    v.insert("gfec.encode_calls", encode_calls);
    v.insert("gfec.encode_busy_s", encode_ns / 1e9);
    v.insert("gfec.decode_calls", decode_calls);
    v.insert("gfec.decode_busy_s", decode_ns / 1e9);
    v.insert("gfec.update_busy_s", update_ns / 1e9);
    v.insert("gfec.rebuild_busy_s", rebuild_ns / 1e9);
    v.insert("gfec.encode_mib_per_s", inputs.gfec.encode_mib_per_s);
    v.insert("gfec.decode_mib_per_s", inputs.gfec.decode_mib_per_s);
    v.insert("gfec.update_mib_per_s", inputs.gfec.update_mib_per_s);
    let gfec_busy_s = (encode_ns + decode_ns + update_ns + rebuild_ns) / 1e9;

    // dedup + integrity: bytes the providers took, plus — unless ghost
    // reads skip verification — bytes they returned.
    let bytes_in: u64 = lap.providers.iter().map(|p| p.bytes_in).sum();
    let bytes_out: u64 = lap.providers.iter().map(|p| p.bytes_out).sum();
    let hashed_mib = (bytes_in + if lap.ghost { 0 } else { bytes_out }) as f64 / MIB;
    let integrity_busy_s = div(hashed_mib, inputs.sha.mib_per_s);
    v.insert("dedup.sha256_mib_per_s", inputs.sha.mib_per_s);
    v.insert("dedup.sha256_4k_ns", inputs.sha.ns_4k);
    v.insert("integrity.hashed_mib", hashed_mib);
    v.insert("integrity.est_busy_s", integrity_busy_s);

    // metastore
    let m = &inputs.metastore;
    v.insert("metastore.txn_ns_p50", m.txn_ns_p50);
    v.insert("metastore.flush_us_p50", m.flush_us_p50);
    v.insert("metastore.flush_bytes_per_txn", m.flush_bytes_per_txn);
    v.insert("metastore.full_block_flush_ratio", m.full_block_flush_ratio);
    v.insert("metastore.est_busy_s", m.busy_s);
    let gauge = |name: &str| registry.gauges.get(name).copied().unwrap_or(0) as f64;
    v.insert("metastore.occ_conflicts", gauge("meta.occ.conflicts"));
    v.insert("metastore.occ_retries", gauge("meta.occ.retries"));
    let contended: u64 = registry.counters_labeled("lock.contended").iter().map(|(_, n)| n).sum();
    let wait_ns: u64 = registry.histograms_labeled("lock.wait_ns").iter().map(|(_, h)| h.sum).sum();
    v.insert("metastore.lock_contended", contended as f64);
    v.insert("metastore.lock_wait_s", wait_ns as f64 / 1e9);
    v.insert("metastore.chain_max", gauge("meta.chain.max"));

    // cloudsim
    let total_ops: u64 = lap.providers.iter().map(|p| p.total_ops()).sum();
    let puts: u64 = lap.providers.iter().map(|p| p.put).sum();
    let gets: u64 = lap.providers.iter().map(|p| p.get).sum();
    let busiest = lap.providers.iter().map(|p| p.total_ops()).max().unwrap_or(0);
    let cloudsim_busy_s =
        (puts as f64 * inputs.cloudsim.put_ns_p50 + gets as f64 * inputs.cloudsim.get_ns_p50) / 1e9;
    v.insert("cloudsim.provider_ops", total_ops as f64);
    v.insert("cloudsim.put_ops", puts as f64);
    v.insert("cloudsim.get_ops", gets as f64);
    v.insert("cloudsim.bytes_in_mib", bytes_in as f64 / MIB);
    v.insert("cloudsim.bytes_out_mib", bytes_out as f64 / MIB);
    v.insert("cloudsim.op_errors", lap.providers.iter().map(|p| p.errors).sum::<u64>() as f64);
    v.insert("cloudsim.busiest_provider_share", div(busiest as f64, total_ops as f64));
    v.insert("cloudsim.put_ns_p50", inputs.cloudsim.put_ns_p50);
    v.insert("cloudsim.get_ns_p50", inputs.cloudsim.get_ns_p50);
    v.insert("cloudsim.est_busy_s", cloudsim_busy_s);

    // What the scheme calls spent that no child layer accounts for: an
    // upper bound on dispatcher glue until spans exist inside `Hyrd`.
    let self_s = (busy_s - gfec_busy_s - integrity_busy_s - m.busy_s - cloudsim_busy_s).max(0.0);
    v.insert("dispatcher.self_s", self_s);

    // engine
    let fired = registry.counter("hedge.fired") as f64;
    let won = registry.counter("hedge.won") as f64;
    v.insert("engine.hedges_fired", fired);
    v.insert("engine.hedges_won", won);
    v.insert("engine.hedges_cancelled", registry.counter("hedge.cancelled") as f64);
    v.insert("engine.hedge_win_ratio", div(won, fired));
    let reads = lap.samples.iter().filter(|s| s.call == Call::Read).count();
    let (_, queue_ns) = hist(registry, "engine.queue_ns");
    v.insert("engine.queue_wait_virt_s_mean", div(queue_ns / 1e9, reads as f64));
    let depth_peak =
        registry.histograms_labeled("engine.queue_depth").iter().map(|(_, h)| h.max).max();
    v.insert("engine.queue_depth_peak", depth_peak.unwrap_or(0) as f64);
    for (k, names) in STEP_NAMES.iter().enumerate() {
        let step = lap.steps.get(k);
        v.insert(names[0], step.map_or(0.0, |s| secs(s.read_p99_ns)));
        v.insert(names[1], step.map_or(0.0, |s| secs(s.write_p95_ns)));
        v.insert(names[2], step.map_or(0.0, |s| s.backlog_ratio));
    }
    let open_loop = !lap.steps.is_empty();
    v.insert(
        "engine.read_p999_virt_s",
        if open_loop { secs(percentiles(&lap.samples).read_p999) } else { 0.0 },
    );
    v.insert("engine.slo_max_rate_per_s", slo_max_rate(lap));
    v.insert("engine.fanout_ns_p50", inputs.engine_fanout_ns);

    // gcsapi
    v.insert("gcsapi.retry_backoffs", lap.faults.retries as f64);
    v.insert("gcsapi.breaker_rejects", lap.faults.breaker_rejections as f64);
    v.insert("gcsapi.breaker_transitions", registry.counter("breaker.transitions") as f64);

    // recovery
    let r = lap.recovery.as_ref();
    v.insert("recovery.wall_s", r.map_or(0.0, |r| r.wall_s));
    v.insert("recovery.virt_s", r.map_or(0.0, |r| r.virt_s));
    v.insert("recovery.replays", r.map_or(0.0, |r| r.replays as f64));
    v.insert("recovery.rebuilds", r.map_or(0.0, |r| r.rebuilds as f64));
    v.insert("recovery.mib_moved", r.map_or(0.0, |r| r.bytes_moved as f64 / MIB));
    v.insert("recovery.pending_after", r.map_or(0.0, |r| r.pending_after as f64));

    // telemetry + observatory: the price of watching, against the same op
    // stream unwatched.
    let (overhead_pct, extra_allocs) = match (&lap.observed, inputs.plain_replay) {
        (Some(o), Some((plain_wall_s, plain_allocs))) => (
            (div(o.replay_wall_s, plain_wall_s) - 1.0) * 100.0,
            div(o.replay_allocs.saturating_sub(plain_allocs) as f64, ops),
        ),
        _ => (0.0, 0.0),
    };
    v.insert("telemetry.online_overhead_pct", overhead_pct);
    v.insert("telemetry.extra_allocs_per_op", extra_allocs);
    v.insert(
        "telemetry.records_per_op",
        lap.observed.as_ref().map_or(0.0, |o| div(o.records as f64, ops)),
    );
    v.insert(
        "telemetry.trace_bytes_per_op",
        lap.observed.as_ref().map_or(0.0, |o| div(o.trace_bytes as f64, ops)),
    );
    let t = &inputs.telemetry;
    v.insert("telemetry.event_ns", t.event_ns);
    v.insert("telemetry.span_ns", t.span_ns);
    v.insert("telemetry.disabled_event_ns", t.disabled_event_ns);
    v.insert("telemetry.hist_record_ns", t.hist_record_ns);
    v.insert("telemetry.parse_mib_per_s", t.parse_mib_per_s);
    v.insert("observatory.fold_ns_per_record", t.fold_ns_per_record);
    v.insert("observatory.report_ms", t.report_ms);
    let exact = percentiles(&lap.samples);
    v.insert("telemetry.hist_p50_rel_err", stats::rel_err(lap.hist_read_p50_ns, exact.read_p50));
    v.insert("telemetry.hist_p99_rel_err", stats::rel_err(lap.hist_read_p99_ns, exact.read_p99));

    // ledger
    v.insert(
        "ledger.trace_overhead_pct",
        (div(lap.timed.wall_s, inputs.untraced_wall_s) - 1.0) * 100.0,
    );
    v.insert("ledger.unattributed_share", div(self_s, lap.timed.wall_s));

    PER_LAYER
        .iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: *v
                .get(d.name)
                .unwrap_or_else(|| panic!("per-layer metric '{}' was not computed", d.name)),
        })
        .collect()
}

const STEP_NAMES: [[&str; 3]; 4] = [
    ["engine.step1_read_p99_s", "engine.step1_write_p95_s", "engine.step1_backlog_ratio"],
    ["engine.step2_read_p99_s", "engine.step2_write_p95_s", "engine.step2_backlog_ratio"],
    ["engine.step3_read_p99_s", "engine.step3_write_p95_s", "engine.step3_backlog_ratio"],
    ["engine.step4_read_p99_s", "engine.step4_write_p95_s", "engine.step4_backlog_ratio"],
];

/// The highest staircase rate that meets the latency limit (0 when none
/// does, or on a closed loop).
pub fn slo_max_rate(lap: &Lap) -> f64 {
    lap.steps.iter().filter(|s| s.meets_limit).map(|s| s.rate_per_s).fold(0.0, f64::max)
}
