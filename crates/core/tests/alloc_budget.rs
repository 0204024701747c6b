//! Allocation budget of the large-object path (DESIGN.md §8, "buffer
//! ownership"): the bytes the client asks the allocator for per large
//! op are the bytes the op has to produce, plus small change.
//!
//! * a read — healthy or degraded — allocates the object once: fetched
//!   fragments are borrowed where they lie and the decode writes into
//!   one exactly-sized buffer;
//! * a create allocates the `n` fragments it ships (`n/m` × the object)
//!   and nothing payload-sized besides;
//! * a ranged update allocates the ranges it writes, never the fragments
//!   it patches (the provider patches a stored fragment in place as long
//!   as nobody still holds a view of it).
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would bill its bytes to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hyrd::config::HyrdConfig;
use hyrd::driver::synth_content;
use hyrd::Hyrd;
use hyrd_cloudsim::{Fleet, SimClock};

/// System allocator that adds up the bytes requested of it (a `realloc`
/// requests its new size), the way `hyrd-perf`'s ledger counts them.
struct CountingAlloc;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `op` runs.
fn requested_by<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = op();
    (REQUESTED.load(Ordering::Relaxed) - before, out)
}

#[test]
fn large_object_ops_allocate_what_they_produce() {
    const SLACK: u64 = 64 * 1024;
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");
    // Not a multiple of m, of the alignment or of the parallel block.
    let len = 3 * 1024 * 1024 + 12_345;
    let data = synth_content("/big.bin", 0, len);
    let (m, n) = (h.config().code.m() as u64, h.config().code.n() as u64);

    // Warm the path (directory creation, lazily built tables).
    h.create_file("/warm.bin", &data).expect("fleet up");
    h.read_file("/warm.bin").expect("fleet up");

    let (create, r) = requested_by(|| h.create_file("/big.bin", &data));
    r.expect("fleet up");
    let budget = len as u64 * n / m + SLACK;
    assert!(create < budget, "create of {len} B requested {create} B (budget {budget})");

    let (healthy, r) = requested_by(|| h.read_file("/big.bin"));
    assert_eq!(&r.expect("fleet up").0[..], &data[..]);
    let budget = len as u64 + SLACK;
    assert!(healthy < budget, "healthy read of {len} B requested {healthy} B (budget {budget})");

    let patch = synth_content("/big.bin", 1, 64 * 1024);
    let (update, r) = requested_by(|| h.update_file("/big.bin", 1_000, &patch));
    r.expect("fleet up");
    let update_budget = 2 * patch.len() as u64 + SLACK;
    assert!(update < update_budget, "64 KiB update requested {update} B (budget {update_budget})");
    let data = [&data[..1_000], &patch[..], &data[1_000 + patch.len()..]].concat();

    // Take down the provider of data fragment 0: every read now rebuilds
    // a third of the object from the survivors.
    let fragment0 = format!("{}.f0", hyrd::scheme::object_name("/big.bin"));
    let holder = fleet
        .providers()
        .iter()
        .find(|p| p.object_inventory(Fleet::CONTAINER).iter().any(|(name, _)| *name == fragment0))
        .expect("fragment 0 was stored");
    holder.force_down();
    let (degraded, r) = requested_by(|| h.read_file("/big.bin"));
    let (bytes, report) = r.expect("one outage is tolerated");
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(report.op_count(), m as usize, "m fragments fetched");
    assert!(degraded < budget, "degraded read of {len} B requested {degraded} B (budget {budget})");
    println!(
        "{len} B object: create {create} B, healthy read {healthy} B, 64 KiB update {update} B, \
         degraded read {degraded} B"
    );
}
