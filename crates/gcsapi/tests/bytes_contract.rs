//! What HyRD assumes of `Bytes`, as tested properties of the type the
//! workspace links (`hyrd-perf/shims/bytes`, a path dependency):
//!
//! * a payload enters and leaves a handle without being copied —
//!   `From<Vec<u8>>` keeps the vector's buffer, and `Vec::from` on the only
//!   handle to a whole buffer gives that buffer back (the dispatcher's
//!   update path and `put_range` reclaim their buffers this way);
//! * `Vec::from` on a handle that still shares its buffer copies, and the
//!   other handle is untouched;
//! * `clone`, `slice` and `split_to` are views of one buffer.
//!
//! One `#[test]` on purpose: the allocation counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

/// System allocator that counts calls and the largest single request.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are statistics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocator calls, largest request in bytes)` while `op` runs.
fn cost_of<T>(op: impl FnOnce() -> T) -> ((u64, u64), T) {
    let calls = ALLOCS.load(Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let out = op();
    ((ALLOCS.load(Ordering::Relaxed) - calls, LARGEST.load(Ordering::Relaxed)), out)
}

const LEN: usize = 64 * 1024;

fn payload() -> Vec<u8> {
    (0..LEN).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn bytes_keeps_shares_and_gives_back_its_buffer() {
    a_unique_handle_round_trips_the_allocation();
    a_shared_handle_copies_and_leaves_the_other_intact();
    clone_slice_and_split_share_one_buffer();
    empty_and_full_range_slices_are_sound();
}

fn a_unique_handle_round_trips_the_allocation() {
    let vec = payload();
    let ptr = vec.as_ptr();

    // In: the handle's control block is the only allocation, the payload
    // stays where it is.
    let ((calls, largest), bytes) = cost_of(|| Bytes::from(vec));
    assert_eq!(bytes.as_ptr(), ptr, "From<Vec<u8>> keeps the buffer");
    assert!(calls <= 1 && largest < 128, "{calls} allocation(s), largest {largest} B");

    // Out: nothing at all.
    let ((calls, _), back) = cost_of(|| Vec::from(bytes));
    assert_eq!(back.as_ptr(), ptr, "the only handle gives the buffer back");
    assert_eq!(calls, 0, "reclaiming allocates nothing");
    assert_eq!(back, payload());

    // A handle that was shared for a while is unique again once the other
    // handles are gone (a simulated replica overwritten, an intent dropped).
    let bytes = Bytes::from(back);
    drop(bytes.clone());
    drop(bytes.slice(10..20));
    let ((calls, _), back) = cost_of(|| Vec::from(bytes));
    assert_eq!((back.as_ptr(), calls), (ptr, 0));
}

fn a_shared_handle_copies_and_leaves_the_other_intact() {
    let bytes = Bytes::from(payload());
    let other = bytes.clone();
    let ((calls, largest), mut copy) = cost_of(|| Vec::from(bytes));
    assert_ne!(copy.as_ptr(), other.as_ptr(), "a shared buffer is copied, not taken");
    assert_eq!((calls, largest), (1, LEN as u64), "exactly the payload, once");
    copy[0] ^= 0xFF;
    assert_eq!(other, payload(), "the surviving handle still reads the original bytes");

    // A partial view never takes the buffer, shared or not.
    let bytes = Bytes::from(payload());
    let ptr = bytes.as_ptr();
    let tail = Vec::from(bytes.slice(1..));
    assert_ne!(tail.as_ptr(), ptr.wrapping_add(1));
    assert_eq!(tail, payload()[1..]);
}

fn clone_slice_and_split_share_one_buffer() {
    let mut bytes = Bytes::from(payload());
    let base = bytes.as_ptr();
    let ((calls, _), (clone, middle, head)) =
        cost_of(|| (bytes.clone(), bytes.slice(100..200), bytes.split_to(4096)));
    assert_eq!(calls, 0, "views are reference-count bumps");
    assert_eq!(clone.as_ptr(), base);
    assert_eq!((middle.as_ptr(), middle.len()), (base.wrapping_add(100), 100));
    assert_eq!((head.as_ptr(), head.len()), (base, 4096));
    assert_eq!((bytes.as_ptr(), bytes.len()), (base.wrapping_add(4096), LEN - 4096));
    assert_eq!(middle, payload()[100..200]);
    assert_eq!([&head[..], &bytes[..]].concat(), payload());
}

fn empty_and_full_range_slices_are_sound() {
    let bytes = Bytes::from(payload());
    assert_eq!(bytes.slice(..), bytes);
    assert_eq!(bytes.slice(0..LEN).as_ptr(), bytes.as_ptr());
    for at in [0, 1, LEN / 2, LEN] {
        let empty = bytes.slice(at..at);
        assert!(empty.is_empty());
        assert_eq!(Vec::from(empty), Vec::<u8>::new());
    }
    let empty = Bytes::from(Vec::new());
    assert!(empty.is_empty() && empty.slice(..).is_empty());
    assert_eq!(Vec::from(Bytes::new()), Vec::<u8>::new());
    let mut whole = bytes.clone();
    assert_eq!(whole.split_to(LEN), bytes);
    assert!(whole.is_empty());
}
