//! Metastore scalability benchmarks for the sharded OCC metastore.
//!
//! Three questions, answered with free-running OS threads (real lock
//! contention, not the deterministic engine — the engine serializes
//! execution, so it can never show a scaling win):
//!
//! 1. **Contention collapses with shards.** The same 16-writer hammer
//!    runs against `shards = 1` (the old single-stripe world, emulated)
//!    and `shards = 16` (the default); blocked lock acquisitions, OCC
//!    conflicts and aggregate throughput are recorded for both.
//! 2. **Throughput scales with writers.** With 16 shards, the hammer
//!    runs at 1 and 16 threads; aggregate namespace ops/s for each is
//!    the scaling record. (On a single-core host the ratio is bounded
//!    by the core count — the contention collapse above is the
//!    machine-independent signal.)
//! 3. **Diff flushes are small.** A 1 000-entry directory is flushed
//!    once (full block), then one entry changes and the next flush
//!    ships an incremental diff; the byte ratio is the price a
//!    many-writer deployment pays per metadata checkpoint.
//!
//! Results land in the repo-root `BENCH_meta.json` (`just bench-meta`).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hyrd_bench::summary;
use hyrd_metastore::{FlushKind, MetaOccStats, NormPath, ShardedMetaStore};

struct Lap {
    secs: f64,
    /// Namespace operations performed (create + stat + remove).
    ops: u64,
    stats: MetaOccStats,
}

/// `threads` free-running writers hammer a store with `shards` shards.
///
/// Each writer works mostly in a private directory (the many-writer
/// steady state) but sends every fourth transaction through one shared
/// directory, so the single-shard configuration exhibits the cross-writer
/// conflicts the OCC path exists to absorb.
fn hammer(shards: usize, threads: usize, txns_per_thread: usize) -> Lap {
    let store = Arc::new(ShardedMetaStore::with_shards(shards));
    let mkdir = |dir: &str| {
        let dir = NormPath::parse(dir).expect("valid path");
        store.mkdir_all(&dir).expect("fresh store: no file in the way");
    };
    mkdir("/shared");
    for t in 0..threads {
        mkdir(&format!("/client{t}"));
    }

    let t0 = Instant::now();
    let mut ops = 0u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let private = NormPath::parse(&format!("/client{t}")).expect("valid path");
                let shared = NormPath::parse("/shared").expect("valid path");
                let mut ops = 0u64;
                for i in 0..txns_per_thread {
                    let dir = if i % 4 == 0 { &shared } else { &private };
                    let path = dir.join(&format!("f{t}_{i}")).expect("valid name");
                    let now = Duration::from_nanos((t * txns_per_thread + i) as u64);
                    store.create_file(&path, 4096, now).expect("create");
                    store.inode(&path).expect("stat");
                    ops += 2;
                    if i % 2 == 0 {
                        store.remove_file(&path).expect("remove");
                        ops += 1;
                    }
                }
                ops
            })
        })
        .collect();
    for h in handles {
        ops += h.join().expect("writer thread panicked");
    }
    Lap { secs: t0.elapsed().as_secs_f64(), ops, stats: store.occ_stats() }
}

/// Full-block vs incremental-diff flush bytes for a 1 000-entry
/// directory with a single changed entry.
fn flush_efficiency() -> (u64, u64) {
    let store = ShardedMetaStore::with_shards(16);
    let dir = NormPath::parse("/bigdir").expect("valid path");
    for i in 0..1_000u64 {
        let path = dir.join(&format!("f{i:04}")).expect("valid name");
        store.create_file(&path, 1024, Duration::from_nanos(i)).expect("create");
    }
    let full = store.flush_dirty_encoded();
    assert_eq!(full.len(), 1, "one dirty directory");
    assert_eq!(full[0].kind, FlushKind::Block, "first flush ships a full block");
    let full_bytes = full[0].bytes.len() as u64;

    let hot = dir.join("hot").expect("valid name");
    store.create_file(&hot, 1024, Duration::from_nanos(2_000)).expect("create");
    let diff = store.flush_dirty_encoded();
    assert_eq!(diff.len(), 1, "one dirty directory");
    assert_eq!(diff[0].kind, FlushKind::Diff, "second flush ships a diff");
    assert_eq!(diff[0].records, 1, "exactly the changed entry");
    (full_bytes, diff[0].bytes.len() as u64)
}

fn main() {
    let txns = if summary::json_only() { 2_000 } else { 10_000 };

    let coarse = hammer(1, 16, txns);
    let sharded = hammer(16, 16, txns);
    let solo = hammer(16, 1, txns);

    let rate = |l: &Lap| l.ops as f64 / l.secs.max(1e-9);
    let collapse = coarse.stats.contended as f64 / sharded.stats.contended.max(1) as f64;
    println!(
        "16 writers, 1 shard : {:.0} ops/s, {} contended, {} conflicts, {} retries",
        rate(&coarse),
        coarse.stats.contended,
        coarse.stats.conflicts,
        coarse.stats.retries
    );
    println!(
        "16 writers, 16 shards: {:.0} ops/s, {} contended, {} conflicts, {} retries \
         -> contention collapse {:.1}x",
        rate(&sharded),
        sharded.stats.contended,
        sharded.stats.conflicts,
        sharded.stats.retries,
        collapse
    );
    println!(
        "1 writer,  16 shards: {:.0} ops/s -> 16-writer scaling {:.2}x",
        rate(&solo),
        rate(&sharded) / rate(&solo).max(1e-9)
    );

    let (full_bytes, diff_bytes) = flush_efficiency();
    println!(
        "flush: full block {full_bytes} B, single-entry diff {diff_bytes} B \
         -> {:.1}x smaller",
        full_bytes as f64 / diff_bytes.max(1) as f64
    );

    // This bench is BENCH_meta.json's only producer, so it writes the
    // whole flat object itself (values pre-rendered as JSON literals).
    let r1 = |v: f64| format!("{:.1}", (v * 10.0).round() / 10.0);
    write_baseline(&[
        ("meta_txns_per_thread", txns.to_string()),
        ("meta_opspersec_16w_1shard", r1(rate(&coarse))),
        ("meta_opspersec_16w_16shard", r1(rate(&sharded))),
        ("meta_opspersec_1w_16shard", r1(rate(&solo))),
        ("meta_writer_scaling_1_to_16", r1(rate(&sharded) / rate(&solo).max(1e-9))),
        ("meta_contended_16w_1shard", coarse.stats.contended.to_string()),
        ("meta_contended_16w_16shard", sharded.stats.contended.to_string()),
        ("meta_contention_collapse", r1(collapse)),
        ("meta_occ_conflicts_16w_1shard", coarse.stats.conflicts.to_string()),
        ("meta_occ_conflicts_16w_16shard", sharded.stats.conflicts.to_string()),
        ("meta_flush_full_block_bytes", full_bytes.to_string()),
        ("meta_flush_single_entry_diff_bytes", diff_bytes.to_string()),
        ("meta_flush_diff_shrink", r1(full_bytes as f64 / diff_bytes.max(1) as f64)),
    ]);
}

/// Writes the baseline as a flat JSON object, one key per line.
fn write_baseline(entries: &[(&str, String)]) {
    let path = summary::repo_root_file("BENCH_meta.json");
    let mut body = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    body.push_str("}\n");
    std::fs::write(&path, body).expect("write BENCH_meta.json");
    println!("[bench summary written to {}]", path.display());
}
