//! A flush costs what changed, not what the directory holds.
//!
//! Measured as allocator traffic rather than time (counts repeat exactly;
//! a timer does not): every entry the flush encodes costs bytes, and the
//! full-walk flush this replaced encoded all of them — 4,096 buffers of
//! 128 B for one changed entry.
//!
//! One `#[test]` on purpose: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hyrd_gcsapi::ProviderId;
use hyrd_metastore::shard::COMPACT_EVERY;
use hyrd_metastore::{FlushKind, NormPath, Placement, ShardedMetaStore};

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
        object: format!("obj-{round:08}"),
    }
}

/// A store with `files` entries in one flushed directory; returns the
/// cost of each of the next `COMPACT_EVERY` flushes, one changed entry
/// apiece (all diffs: the chain starts empty).
fn diff_flush_costs(files: usize) -> Vec<(u64, u64)> {
    let store = ShardedMetaStore::with_shards(16);
    for i in 0..files {
        store.create_file(&path(i), 4096, Duration::from_secs(1)).expect("fresh name");
    }
    let first = store.flush_dirty_encoded();
    assert_eq!(first.iter().filter(|i| i.kind == FlushKind::Block).count(), first.len());

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
}
