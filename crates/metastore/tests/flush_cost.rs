//! A flush costs what changed, not what the directory holds.
//!
//! Measured as allocator traffic rather than time (counts repeat exactly;
//! a timer does not): every entry the flush encodes costs bytes, and the
//! full-walk flush this replaced encoded all of them — 4,096 buffers of
//! 128 B for one changed entry. A compaction ships the directory's whole
//! block, so it allocates that block once — a copy of the frame it keeps
//! — and otherwise what its own changes cost, whatever the directory
//! holds.
//!
//! One `#[test]` on purpose: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hyrd_gcsapi::ProviderId;
use hyrd_metastore::shard::COMPACT_EVERY;
use hyrd_metastore::{FlushItem, FlushKind, NormPath, Placement, ShardedMetaStore};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` while `op` runs.
fn cost_of<T>(op: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCS.load(Ordering::Relaxed), REQUESTED.load(Ordering::Relaxed));
    let out = op();
    let after = (ALLOCS.load(Ordering::Relaxed), REQUESTED.load(Ordering::Relaxed));
    ((after.0 - before.0, after.1 - before.1), out)
}

fn path(i: usize) -> NormPath {
    NormPath::parse(&format!("/pool/f{i:05}")).expect("well-formed")
}

fn placement(round: u64) -> Placement {
    Placement::Replicated {
        providers: vec![ProviderId(0), ProviderId(1)],
        object: format!("obj-{round:08}").into(),
    }
}

/// A store with `files` entries in one flushed directory.
fn flushed_store(files: usize) -> ShardedMetaStore {
    let store = ShardedMetaStore::with_shards(16);
    for i in 0..files {
        store.create_file(&path(i), 4096, Duration::from_secs(1)).expect("fresh name");
    }
    let first = store.flush_dirty_encoded();
    assert_eq!(first.iter().filter(|i| i.kind == FlushKind::Block).count(), first.len());
    store
}

/// A store with `files` entries in one flushed directory; returns the
/// cost of each of the next `COMPACT_EVERY` flushes, one changed entry
/// apiece (all diffs: the chain starts empty).
fn diff_flush_costs(files: usize) -> Vec<(u64, u64)> {
    let store = flushed_store(files);

    (0..COMPACT_EVERY as u64)
        .map(|round| {
            store
                .set_placement(
                    &path(files / 2),
                    placement(round),
                    4096,
                    Duration::from_secs(2 + round),
                )
                .expect("file exists");
            let (cost, items) = cost_of(|| store.flush_dirty_encoded());
            assert_eq!(items.len(), 1);
            assert_eq!((items[0].kind, items[0].records), (FlushKind::Diff, 1));
            cost
        })
        .collect()
}

/// Entry `j` of the `k` a chain changes, spread over the directory.
fn spread(j: usize, k: usize, files: usize) -> usize {
    (j % k) * (files / k)
}

/// The compaction after `COMPACT_EVERY` diffs that changed `k` distinct
/// entries of a `files`-entry directory in place, round robin, itself
/// changing the next one: its cost and its item, after the same cycle
/// has run once so that every buffer the frame reuses exists.
fn compaction_cost(files: usize, k: usize) -> ((u64, u64), FlushItem) {
    let store = flushed_store(files);
    let mut round = 0u64;
    let mut cycle = || {
        for j in 0..=COMPACT_EVERY {
            round += 1;
            let at = path(spread(j, k, files));
            let now = Duration::from_secs(1 + round);
            store.set_placement(&at, placement(round), 4096, now).expect("file exists");
            let (cost, mut items) = cost_of(|| store.flush_dirty_encoded());
            assert_eq!(items.len(), 1);
            if j < COMPACT_EVERY {
                assert_eq!(items[0].kind, FlushKind::Diff);
            } else {
                assert_eq!(items[0].kind, FlushKind::Compact);
                return (cost, items.remove(0));
            }
        }
        unreachable!("the last flush of a cycle compacts")
    };
    cycle();
    cycle()
}

#[test]
fn flushing_one_changed_entry_is_independent_of_directory_size() {
    let small = diff_flush_costs(2);
    let large = diff_flush_costs(4096);
    // Same work, entry for entry: the one encode, the diff frame, the
    // item — whatever else is in the directory.
    assert_eq!(small, large, "per-flush (allocations, bytes) at 2 vs 4,096 entries");
    println!("(allocations, bytes) per one-entry flush: {large:?}");
    for (allocs, bytes) in large {
        assert!(allocs <= 16, "{allocs} allocations to flush one entry");
        assert!(bytes <= 2048, "{bytes} B requested to flush one entry");
    }

    // A compaction allocates its block once, plus what its k changes
    // cost (the scratch entry, the item, its name, k + 2 ranges): beside
    // 8 entries and beside 4,096 the same allocations, and bytes that
    // differ by exactly the difference of the blocks — no buffer per
    // entry, and nothing that grows with the entries left alone.
    for k in [1, 2, 4, COMPACT_EVERY] {
        let ((allocs, bytes), small) = compaction_cost(COMPACT_EVERY, k);
        let ((large_allocs, large_bytes), large) = compaction_cost(4096, k);
        println!(
            "compaction after {k} changed entries: {allocs} allocations, {bytes} B \
             beside 8 (block {} B), {large_bytes} B beside 4,096 (block {} B)",
            small.bytes.len(),
            large.bytes.len()
        );
        assert_eq!(large.records, 4096);
        assert_eq!(large_allocs, allocs, "allocations of a compaction after {k} changes");
        assert_eq!(
            large_bytes - bytes,
            (large.bytes.len() - small.bytes.len()) as u64,
            "bytes of a compaction after {k} changes beyond the block's own"
        );
        assert!(allocs <= 8, "{allocs} allocations to compact after {k} changes");
        assert!(
            bytes <= (small.bytes.len() + 640 + 64 * k) as u64,
            "{bytes} B to compact a {} B block after {k} changes",
            small.bytes.len()
        );
    }
}
