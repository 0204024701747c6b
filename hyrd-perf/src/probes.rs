//! Stand-alone probes: each times one crate's public functions on the
//! workload's own sizes, with no `Hyrd` in the way. Their rates turn the
//! counts a lap takes from outside (bytes hashed, provider ops, namespace
//! calls) into the `*.est_busy_s` columns — how much of a lap a faster
//! layer could buy back, before anyone writes the optimisation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hyrd::engine::{fanout_read, Attempt, FanoutDriver, LaunchKind};
use hyrd::observatory::Observatory;
use hyrd::HedgeConfig;
use hyrd_cloudsim::{Admission, SimClock, SimProvider, WellKnownProvider};
use hyrd_dedup::sha256::sha256;
use hyrd_gcsapi::{CloudStorage, ObjectKey, OpKind, OpReport, ProviderId};
use hyrd_gfec::parallel::{encode_parallel, reconstruct_parallel};
use hyrd_gfec::update::apply_ranged_update;
use hyrd_gfec::{Fragment, Raid5};
use hyrd_metastore::{FlushKind, NormPath, Placement, ShardedMetaStore};
use hyrd_telemetry::{parse_jsonl, Collector, Histogram, ManualClock, SharedBuf};
use hyrd_workloads::FsOp;

use crate::alloc;
use crate::stats::median;

const MIB: f64 = 1024.0 * 1024.0;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Mean wall time per call over one batch of `calls`, in nanoseconds —
/// for calls too short to time one by one.
fn batch_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Deterministic non-constant filler.
fn filler(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

/// `gfec` on one RAID5 (m = 3) object of `object_len` bytes.
pub struct GfecProbe {
    pub encode_mib_per_s: f64,
    pub decode_mib_per_s: f64,
    pub update_mib_per_s: f64,
}

pub fn gfec(object_len: usize, update_len: usize, reps: usize) -> GfecProbe {
    let code = Raid5::new(3).expect("m = 3 is a valid RAID5");
    let shard_len = object_len.div_ceil(3);
    let shards: Vec<Vec<u8>> = (0..3).map(|i| filler(shard_len, i as u8)).collect();
    let views: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
    let encode_ns = median_ns(reps, || {
        black_box(encode_parallel(&code, black_box(&views)).expect("valid shards"));
    });
    let parity = encode_parallel(&code, &views).expect("valid shards").remove(0);

    // A degraded read: data fragment 0 is gone, parity stands in.
    let available = vec![
        Fragment::new(1, shards[1].clone()),
        Fragment::new(2, shards[2].clone()),
        Fragment::new(3, parity.clone()),
    ];
    let decode_ns = median_ns(reps, || {
        black_box(
            reconstruct_parallel(&code, black_box(&available), shard_len).expect("decodable"),
        );
    });

    let update_len = update_len.min(shard_len);
    let touched = [(0usize, 0usize, update_len)];
    let old_segments = [shards[0][..update_len].to_vec()];
    let new_bytes = filler(update_len, 0x5a);
    let update_ns = median_ns(reps.max(32), || {
        black_box(
            apply_ranged_update(
                &touched,
                &old_segments,
                &parity[..update_len],
                black_box(&new_bytes),
            )
            .expect("consistent windows"),
        );
    });
    let rate = |bytes: usize, ns: f64| bytes as f64 / MIB / (ns / 1e9);
    GfecProbe {
        encode_mib_per_s: rate(object_len, encode_ns),
        decode_mib_per_s: rate(object_len, decode_ns),
        update_mib_per_s: rate(update_len, update_ns),
    }
}

/// `dedup::sha256` at the two sizes integrity hashing sees most.
pub struct ShaProbe {
    pub mib_per_s: f64,
    pub ns_4k: f64,
}

pub fn sha(reps: usize) -> ShaProbe {
    let big = filler(1 << 20, 1);
    let ns_1m = median_ns(reps, || {
        black_box(sha256(black_box(&big)));
    });
    let small = filler(4096, 2);
    let ns_4k = median_ns(reps.max(64), || {
        black_box(sha256(black_box(&small)));
    });
    ShaProbe { mib_per_s: 1.0 / (ns_1m / 1e9), ns_4k }
}

/// One bare `SimProvider`: put and get of `object_len`-byte objects.
pub struct CloudsimProbe {
    pub put_ns_p50: f64,
    pub get_ns_p50: f64,
}

pub fn cloudsim(object_len: usize, ghost: bool, reps: usize) -> CloudsimProbe {
    let provider =
        SimProvider::well_known(ProviderId(0), WellKnownProvider::Aliyun, SimClock::new());
    provider.set_ghost_mode(ghost);
    provider.create("probe").expect("fresh provider");
    let payload = Bytes::from(filler(object_len, 3));
    let keys: Vec<ObjectKey> =
        (0..reps).map(|i| ObjectKey::new("probe", format!("o{i:05}"))).collect();
    let mut next = keys.iter();
    let put_ns_p50 = median_ns(reps, || {
        let key = next.next().expect("one key per rep");
        black_box(provider.put(key, payload.clone()).expect("quiet provider"));
    });
    let mut next = keys.iter();
    let get_ns_p50 = median_ns(reps, || {
        let key = next.next().expect("one key per rep");
        black_box(provider.get(key).expect("stored above"));
    });
    CloudsimProbe { put_ns_p50, get_ns_p50 }
}

/// A bare `ShardedMetaStore` fed the workload's namespace calls, flushing
/// after every mutation as the dispatcher does.
#[derive(Debug, Default)]
pub struct MetastoreProbe {
    pub txn_ns_p50: f64,
    pub flush_us_p50: f64,
    pub flush_bytes_per_txn: f64,
    /// Flush items that shipped a whole block (first flush or compaction)
    /// rather than a diff.
    pub full_block_flush_ratio: f64,
    /// Everything the timed ops spent in the store: calls + flushes.
    pub busy_s: f64,
}

pub fn metastore(shards: usize, pool: &[FsOp], timed: &[FsOp]) -> MetastoreProbe {
    let store = ShardedMetaStore::with_shards(shards);
    let now = Duration::ZERO;
    let placement = |path: &str| Placement::Replicated {
        providers: vec![ProviderId(1), ProviderId(2)],
        object: hyrd::scheme::object_name(path),
    };
    // One op's namespace calls, as the dispatcher issues them; `true` when
    // it mutated (and so ends in a flush).
    let apply = |op: &FsOp| -> bool {
        let Ok(path) = NormPath::parse(op.path()) else { return false };
        match op {
            FsOp::Create { size, .. } => {
                let created = store.create_file(&path, *size, now).is_ok();
                created && store.set_placement(&path, placement(op.path()), *size, now).is_ok()
            }
            FsOp::Update { .. } => match store.inode(&path) {
                Ok(inode) => store.set_placement(&path, inode.placement, inode.size, now).is_ok(),
                Err(_) => false,
            },
            FsOp::Delete { .. } => store.remove_file(&path).is_ok(),
            FsOp::Read { .. } => {
                black_box(store.inode(&path).is_ok());
                false
            }
            FsOp::ListDir { .. } => {
                black_box(store.list(&path).is_ok());
                false
            }
        }
    };
    for op in pool {
        if apply(op) {
            black_box(store.flush_dirty_encoded());
        }
    }

    let (mut txn_ns, mut flush_ns) =
        (Vec::with_capacity(timed.len()), Vec::with_capacity(timed.len()));
    let (mut mutations, mut flush_bytes, mut items, mut full_blocks) = (0u64, 0u64, 0u64, 0u64);
    for op in timed {
        let t = Instant::now();
        let mutated = apply(op);
        txn_ns.push(t.elapsed().as_nanos() as f64);
        if mutated {
            let t = Instant::now();
            let flushed = store.flush_dirty_encoded();
            flush_ns.push(t.elapsed().as_nanos() as f64);
            mutations += 1;
            for item in &flushed {
                items += 1;
                flush_bytes += item.bytes.len() as u64;
                full_blocks += (item.kind != FlushKind::Diff) as u64;
            }
        }
    }
    MetastoreProbe {
        txn_ns_p50: median(&txn_ns),
        flush_us_p50: median(&flush_ns) / 1e3,
        flush_bytes_per_txn: flush_bytes as f64 / mutations.max(1) as f64,
        full_block_flush_ratio: full_blocks as f64 / items.max(1) as f64,
        busy_s: (txn_ns.iter().sum::<f64>() + flush_ns.iter().sum::<f64>()) / 1e9,
    }
}

/// A scripted `FanoutDriver`: four candidates that always answer, service
/// times spread so completion order differs from launch order.
struct Scripted {
    payload: Bytes,
}

impl FanoutDriver for Scripted {
    fn candidates(&self) -> usize {
        4
    }

    fn prepare(&mut self, _idx: usize, _kind: LaunchKind) -> bool {
        true
    }

    fn attempt(&mut self, idx: usize) -> Attempt {
        let report = OpReport {
            provider: ProviderId(idx as u16),
            kind: OpKind::Get,
            latency: Duration::from_millis(400 - 70 * idx as u64),
            bytes_in: 0,
            bytes_out: self.payload.len() as u64,
        };
        Attempt::Done { report, payload: self.payload.clone() }
    }

    fn enqueue(&mut self, _idx: usize, now_ns: u64, service_ns: u64) -> Admission {
        Admission { start_ns: now_ns, done_ns: now_ns + service_ns }
    }

    fn release(&mut self, _idx: usize, _done_ns: u64, _free_at_ns: u64) {}

    fn cancelled(&mut self, _idx: usize, _report: &OpReport, _billed: Duration) {}
}

/// `engine::fanout_read` on a synthetic driver: need 3 of 4, no hedging.
pub fn engine_fanout_ns(reps: usize) -> f64 {
    let mut driver = Scripted { payload: Bytes::from_static(b"fragment") };
    let hedge = HedgeConfig::default();
    median_ns(reps, || {
        let outcome =
            fanout_read(&mut driver, 3, &hedge, Duration::from_secs(1)).expect("3 of 4 answer");
        black_box(outcome.winners.len());
    })
}

/// `telemetry` per-call costs and the offline parser / fold rates.
#[derive(Debug, Default)]
pub struct TelemetryProbe {
    pub event_ns: f64,
    pub span_ns: f64,
    pub disabled_event_ns: f64,
    /// Allocations the disabled path made (must be 0).
    pub disabled_allocs: u64,
    pub hist_record_ns: f64,
    pub parse_mib_per_s: f64,
    pub fold_ns_per_record: f64,
    pub report_ms: f64,
}

/// `trace` is the workload's own JSONL trace when it produced one;
/// otherwise the parser runs on the trace the event probe just wrote.
pub fn telemetry(calls: usize, trace: Option<&str>) -> TelemetryProbe {
    let sink = SharedBuf::new();
    let enabled = Collector::builder(ManualClock::new()).jsonl(sink.clone()).build();
    let event_ns = batch_ns(calls, |i| {
        enabled.event("probe.event").field("iter", i as u64).field("provider", "Aliyun").emit();
    });
    let span_ns = batch_ns(calls, |i| {
        enabled.span_with("probe.span").field("iter", i as u64).start().end();
    });

    let disabled = Collector::disabled();
    let before = alloc::thread_allocs();
    let disabled_event_ns = batch_ns(calls, |i| {
        disabled.event("probe.event").field("iter", i as u64).field("provider", "Aliyun").emit();
        disabled.inc("probe.counter", 1);
        black_box(disabled.enabled());
    });
    let disabled_allocs = alloc::thread_allocs() - before;

    let mut hist = Histogram::new();
    let hist_record_ns = batch_ns(calls, |i| hist.record(black_box(i as u64 * 7919)));
    black_box(hist.count());

    enabled.flush();
    let own = sink.text();
    let text = trace.unwrap_or(&own);
    let parsing = Instant::now();
    let records = parse_jsonl(text).expect("a trace this process wrote parses");
    let parse_s = parsing.elapsed().as_secs_f64();

    let folding = Instant::now();
    let mut observatory = Observatory::new();
    for record in &records {
        observatory.ingest(record);
    }
    let fold_ns = folding.elapsed().as_nanos() as f64;
    let reporting = Instant::now();
    black_box(observatory.report().render());
    let report_ms = reporting.elapsed().as_secs_f64() * 1e3;

    TelemetryProbe {
        event_ns,
        span_ns,
        disabled_event_ns,
        disabled_allocs,
        hist_record_ns,
        parse_mib_per_s: text.len() as f64 / MIB / parse_s.max(1e-9),
        fold_ns_per_record: fold_ns / records.len().max(1) as f64,
        report_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_finite_positive_rates() {
        let g = gfec(1 << 20, 64 * 1024, 3);
        assert!(g.encode_mib_per_s > 0.0 && g.decode_mib_per_s > 0.0 && g.update_mib_per_s > 0.0);
        let s = sha(3);
        assert!(s.mib_per_s > 0.0 && s.ns_4k > 0.0);
        for ghost in [false, true] {
            let c = cloudsim(4096, ghost, 8);
            assert!(c.put_ns_p50 > 0.0 && c.get_ns_p50 > 0.0);
        }
        assert!(engine_fanout_ns(8) > 0.0);
        let t = telemetry(200, None);
        assert!(t.event_ns > 0.0 && t.span_ns > 0.0 && t.parse_mib_per_s > 0.0);
        assert!(t.fold_ns_per_record > 0.0 && t.report_ms >= 0.0);
    }

    #[test]
    fn metastore_probe_replays_the_namespace_calls() {
        let create = |i: usize| FsOp::Create { path: format!("/d/f{i}"), size: 10 };
        let pool: Vec<FsOp> = (0..4).map(create).collect();
        let mut timed: Vec<FsOp> = (4..24).map(create).collect();
        timed.push(FsOp::Update { path: "/d/f1".into(), offset: 0, len: 1 });
        timed.push(FsOp::Read { path: "/d/f2".into() });
        timed.push(FsOp::ListDir { path: "/d".into() });
        timed.push(FsOp::Delete { path: "/d/f3".into() });
        let probe = metastore(16, &pool, &timed);
        assert!(probe.txn_ns_p50 > 0.0 && probe.flush_us_p50 > 0.0 && probe.busy_s > 0.0);
        assert!(probe.flush_bytes_per_txn > 0.0);
        // 22 single-directory flushes with compaction every 8 diffs: some,
        // not all, ship a full block.
        assert!(probe.full_block_flush_ratio > 0.0 && probe.full_block_flush_ratio < 1.0);
    }
}
