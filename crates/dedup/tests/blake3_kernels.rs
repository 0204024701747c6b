//! The BLAKE3 kernels: the official test vectors on every kernel, and
//! every forced kernel bit-identical with the portable one on
//! `subtree_cvs` — 1 to 16 subtrees, each of a length on or either side
//! of the 64 B block, 1 KiB chunk and 4 KiB subtree edges, at scattered
//! subtree indices (chunk counters past 2³² included), misaligned in
//! memory. A forced kernel this CPU lacks prints "skipped". On top: a
//! table of subtree values folds to the hash, and a call allocates
//! nothing.
//!
//! Std-only and seeded (splitmix64). Build it optimised, as the
//! workspace's dev profile does for this package: the kernels are
//! intrinsics, and unoptimised every intrinsic is a call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hyrd_dedup::blake3::{
    hash, hash_with, parent, subtree_cvs, subtree_cvs_with, Digest, Kernel, MAX_SUBTREES,
    SUBTREE_LEN,
};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counted per thread, so the other tests in this binary cannot bill
/// theirs to the one that counts.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KERNELS: [Kernel; 3] = [Kernel::Avx512, Kernel::Avx2, Kernel::Portable];

/// The kernels this CPU runs; the others are reported as skipped.
fn kernels(test: &str) -> Vec<Kernel> {
    KERNELS
        .into_iter()
        .filter(|k| {
            let supported = k.supported();
            if !supported {
                eprintln!("{test}: {} skipped, this CPU lacks it", k.name());
            }
            supported
        })
        .collect()
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

fn hex(digest: &Digest) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The official test vectors' input: byte `i` is `i mod 251`.
fn vector_input(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// The values of every subtree of a non-empty `object`, in groups of
/// the most one call takes.
fn table(kernel: Kernel, object: &[u8]) -> Vec<Digest> {
    let subtrees: Vec<(u64, &[u8])> =
        object.chunks(SUBTREE_LEN).enumerate().map(|(i, s)| (i as u64, s)).collect();
    let mut out = vec![[0; 32]; subtrees.len()];
    for (group, out) in subtrees.chunks(MAX_SUBTREES).zip(out.chunks_mut(MAX_SUBTREES)) {
        subtree_cvs_with(kernel, group, out);
    }
    out
}

/// The root over a table of subtree values: BLAKE3's left-balanced tree,
/// the left side always the largest power of two that leaves the right
/// one some, `ROOT` on the top node.
fn fold(table: &[Digest]) -> Digest {
    fn node(table: &[Digest], root: bool) -> Digest {
        if table.len() == 1 {
            return table[0];
        }
        let left = 1 << (table.len() - 1).ilog2();
        parent(&node(&table[..left], false), &node(&table[left..], false), root)
    }
    assert!(table.len() > 1, "a one-entry table is no root");
    node(table, true)
}

#[test]
fn known_answers_on_every_kernel() {
    const VECTORS: [(usize, &str); 7] = [
        (0, "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"),
        (1, "2d3adedff11b61f14c886e35afa036736dcd87a74d27b5c1510225d0f592e213"),
        (1023, "10108970eeda3eb932baac1428c7a2163b0e924c9a9e25b35bba72b28f70bd11"),
        (1024, "42214739f095a406f3fc83deb889744ac00df831c10daa55189b5d121c855af7"),
        (1025, "d00278ae47eb27b34faecf67b4fe263f82d5412916c1ffd97c8cb7fb814b8444"),
        (4096, "015094013f57a5277b59d8475c0501042c0b642e531b0a1c8f58d2163229e969"),
        (8192, "aae792484c8efe4f19e2ca7d371d8c467ffb10748d8a5a1ae579948f718a2a63"),
    ];
    const ABC: &str = "6437b3ac38465133ffb63b75273a8db548c558465d79db03fd359c6cd5bd9d85";
    assert_eq!(hex(&hash(b"abc")), ABC);
    for kernel in kernels("known_answers_on_every_kernel") {
        assert_eq!(hex(&hash_with(kernel, b"abc")), ABC, "{}", kernel.name());
        for (len, want) in VECTORS {
            let input = vector_input(len);
            assert_eq!(hex(&hash_with(kernel, &input)), want, "{} at {len} B", kernel.name());
            if len > SUBTREE_LEN {
                let root = fold(&table(kernel, &input));
                assert_eq!(hex(&root), want, "{} table at {len} B", kernel.name());
            }
        }
    }
}

/// Lengths on and either side of every edge a subtree has: empty, the
/// 64-byte block, each 1 KiB chunk and the full 4 KiB.
const LENGTHS: [usize; 17] =
    [0, 1, 63, 64, 65, 1023, 1024, 1025, 2047, 2048, 2049, 3071, 3072, 3073, 4031, 4095, 4096];

/// A subtree index: small, or far enough out that its chunk counters
/// need the high word.
fn index(rng: &mut SplitMix64) -> u64 {
    match rng.below(3) {
        0 => rng.below(64) as u64,
        1 => (1 << 30) - 2 + rng.below(4) as u64,
        _ => rng.next() >> 3,
    }
}

#[test]
fn every_kernel_is_the_portable_kernel_bit_for_bit() {
    let mut rng = SplitMix64(0xb1a4e3);
    let content = rng.bytes(MAX_SUBTREES * SUBTREE_LEN + 64);
    let forced: Vec<Kernel> = kernels("every_kernel_is_the_portable_kernel_bit_for_bit")
        .into_iter()
        .filter(|&k| k != Kernel::Portable)
        .collect();
    let check = |subtrees: &[(u64, &[u8])], what: &str| {
        let mut want = vec![[0; 32]; subtrees.len()];
        subtree_cvs_with(Kernel::Portable, subtrees, &mut want);
        for &kernel in &forced {
            let mut got = vec![[0xa5; 32]; subtrees.len()];
            subtree_cvs_with(kernel, subtrees, &mut got);
            assert_eq!(got, want, "{} on {what}", kernel.name());
        }
    };
    for count in 1..=MAX_SUBTREES {
        // Every subtree one length: each lane count a pass can have.
        for len in LENGTHS {
            let at = rng.below(64);
            let subtrees: Vec<(u64, &[u8])> = (0..count)
                .map(|s| (index(&mut rng), &content[at + s * SUBTREE_LEN..][..len]))
                .collect();
            check(&subtrees, &format!("{count} subtrees of {len} B at +{at}"));
        }
        // Mixed lengths, anywhere in the content.
        for _ in 0..40 {
            let subtrees: Vec<(u64, &[u8])> = (0..count)
                .map(|_| {
                    let len = LENGTHS[rng.below(LENGTHS.len())];
                    let at = rng.below(content.len() - len + 1);
                    (index(&mut rng), &content[at..at + len])
                })
                .collect();
            let lens: Vec<usize> = subtrees.iter().map(|s| s.1.len()).collect();
            check(&subtrees, &format!("subtrees of {lens:?}"));
        }
    }
}

#[test]
fn a_table_folds_to_the_hash_on_every_kernel() {
    let mut rng = SplitMix64(0xf01d);
    let content = rng.bytes(300 * 1024);
    let mut lens = vec![SUBTREE_LEN + 1, 2 * SUBTREE_LEN, 17 * SUBTREE_LEN, 33 * SUBTREE_LEN - 1];
    lens.extend((0..20).map(|_| SUBTREE_LEN + 1 + rng.below(content.len() - SUBTREE_LEN)));
    for kernel in kernels("a_table_folds_to_the_hash_on_every_kernel") {
        for &len in &lens {
            let object = &content[..len];
            assert_eq!(fold(&table(kernel, object)), hash(object), "{} at {len} B", kernel.name());
        }
    }
}

#[test]
fn a_call_allocates_nothing() {
    let content = SplitMix64(7).bytes(MAX_SUBTREES * SUBTREE_LEN);
    let subtrees: Vec<(u64, &[u8])> = content
        .chunks(SUBTREE_LEN)
        .enumerate()
        .map(|(i, s)| (i as u64, &s[..s.len() - i]))
        .collect();
    let mut out = vec![[0; 32]; subtrees.len()];
    for kernel in kernels("a_call_allocates_nothing") {
        let before = ALLOCS.with(Cell::get);
        // One call of each size class the work lists are sized for.
        for n in [1, 4, 16] {
            subtree_cvs_with(kernel, &subtrees[..n], &mut out[..n]);
        }
        assert_eq!(ALLOCS.with(Cell::get) - before, 0, "{} allocated", kernel.name());
    }
    let before = ALLOCS.with(Cell::get);
    subtree_cvs(&subtrees, &mut out);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "the detected kernel allocated");
}

#[test]
fn no_subtrees_are_no_values() {
    for kernel in kernels("no_subtrees_are_no_values") {
        subtree_cvs_with(kernel, &[], &mut []);
    }
}

#[test]
#[should_panic(expected = "subtree_cvs: 1 values for 2 subtrees, at most 16")]
fn too_few_values_is_a_panic_not_a_short_write() {
    subtree_cvs(&[(0, &[1; 64]), (1, &[2; 64])], &mut [[0; 32]; 1]);
}

#[test]
#[should_panic(expected = "subtree_cvs: 3 values for 2 subtrees, at most 16")]
fn too_many_values_is_a_panic_not_a_stale_entry() {
    subtree_cvs(&[(0, &[1; 64]), (1, &[2; 64])], &mut [[0; 32]; 3]);
}

#[test]
#[should_panic(expected = "subtree_cvs: 17 values for 17 subtrees, at most 16")]
fn seventeen_subtrees_is_a_panic() {
    subtree_cvs(&[(0, &[][..]); 17], &mut [[0; 32]; 17]);
}

#[test]
#[should_panic(expected = "subtree_cvs: a subtree of 4097 bytes")]
fn a_subtree_over_4_kib_is_a_panic() {
    subtree_cvs(&[(0, &[0; 4097][..])], &mut [[0; 32]; 1]);
}
