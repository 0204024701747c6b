//! Counting global allocator: allocations, bytes requested, live bytes
//! and peak live bytes, as relaxed atomics around the system allocator.
//!
//! The library only defines the type; the binary and the integration
//! tests each install it with `#[global_allocator]`. Without it every
//! counter stays 0 and [`installed`] says so. Its own test lives in
//! `tests/alloc.rs`: exact counts need a process where nothing else
//! allocates concurrently, which a one-test binary gives.
//!
//! Counters are process-wide: a [`Snapshot`] delta taken around a region
//! attributes everything any thread allocated meanwhile, which is what a
//! one-session lap wants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread: what a zero-allocation assertion
    /// reads, so that other threads (parallel tests) cannot trip it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus its counters.
pub struct CountingAlloc;

fn grew(size: usize) {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer untouched; the counters are side effects that never influence
// what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocator call; bytes requested grow by the new size, live
        // bytes by the difference.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocator calls that returned memory (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
}

impl Snapshot {
    /// Reads the counters.
    pub fn now() -> Self {
        Snapshot {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live: LIVE.load(Relaxed),
        }
    }

    /// `(allocations, bytes requested)` since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Tells glibc malloc to keep freed memory in the process: no `mmap` per
/// large allocation (the threshold is pinned at its 32 MiB ceiling, which
/// also switches off its run-dependent adjustment) and no heap trimming.
/// Laps then reuse warm pages instead of faulting fresh ones in: on the
/// benchmark VM consecutive `openloop_zipf` laps took 3.0, 4.4, 3.3 s
/// without this and 2.9–3.25 s with it. Call once, before any lap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores tuning parameters inside glibc's
    // allocator; it takes no pointers and is safe to call at any time.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Other C libraries have no such knobs; laps are simply noisier there.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

/// Restarts peak tracking from the current live size, which it returns.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size seen since the last [`reset_peak`].
pub fn peak_live() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocator calls the current thread has made so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Whether a `CountingAlloc` is this process's global allocator.
pub fn installed() -> bool {
    let before = ALLOCS.load(Relaxed);
    drop(std::hint::black_box(Box::new(0u8)));
    ALLOCS.load(Relaxed) != before
}
