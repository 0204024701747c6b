//! The borrowed decode core and `split_encode` against the owning paths
//! they replaced (`tests/oracle`): same bytes for every erasure pattern
//! a code tolerates, at the object lengths where trimming, padding and
//! block boundaries bite, and the same `GfecError` for every malformed
//! input. The column decode also against the shard-major one it
//! replaced, on every kernel, and its allocations counted.

mod oracle;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hyrd_testkit::{check, Gen};

use hyrd_gfec::gf256::{Kernel, FUSED_BLOCK};
use hyrd_gfec::parallel::reconstruct_parallel;
use hyrd_gfec::{
    decode_object, decode_object_with, rebuild_fragment, ErasureCode, Fragment, FragmentLayout,
    Raid5, Raid6, ReedSolomon, StripePlanner, INLINE,
};
use oracle::OwningDecode;

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

/// This thread's allocator calls while `op` runs.
fn allocs_of<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = op();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Every implementation the lockstep loop has; one the CPU lacks runs
/// the next one down.
const KERNELS: [Kernel; 3] = [Kernel::Portable, Kernel::Avx2, Kernel::Avx512];

/// Every way of losing at most `max_lost` of `n` fragments.
fn erasure_patterns(n: usize, max_lost: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize <= max_lost)
        .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
        .collect()
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(167).wrapping_add((i >> 8) as u8) ^ seed).collect()
}

/// New path ≡ oracle on `object`, for every tolerated erasure pattern.
fn check_against_oracle<C: OwningDecode>(code: &C, object: &[u8]) {
    let (m, n) = (code.data_fragments(), code.total_fragments());
    let planner = StripePlanner::new(m, n).unwrap();

    let (layout, frags) = planner.split_encode(code, object).unwrap();
    let (oracle_layout, oracle_frags) = oracle::encode_object(&planner, code, object).unwrap();
    assert_eq!(layout, oracle_layout);
    for (got, want) in frags.iter().zip(&oracle_frags) {
        assert_eq!(got, &want.data, "fragment {} of a {}-byte object", want.index, object.len());
        assert_eq!(got.capacity(), layout.shard_len, "fragments are exactly sized");
    }

    for lost in erasure_patterns(n, n - m) {
        let owned: Vec<Fragment> =
            oracle_frags.iter().filter(|f| !lost.contains(&f.index)).cloned().collect();
        let views = oracle::without(&frags, &lost);

        let got = decode_object(code, &layout, &views).unwrap();
        assert_eq!(&got, &oracle::decode_object(code, &layout, &owned).unwrap());
        assert_eq!(&got[..], object, "len={} lost={:?}", object.len(), &lost);
        assert_eq!(got.capacity(), object.len(), "one exact allocation");

        assert_eq!(
            reconstruct_parallel(code, &owned, layout.shard_len).unwrap(),
            code.reconstruct(&owned, layout.shard_len).unwrap()
        );
        for &target in &lost {
            let rebuilt = rebuild_fragment(code, layout.shard_len, &views, target).unwrap();
            assert_eq!(&rebuilt, &frags[target], "rebuild {} after {:?}", target, &lost);
        }
    }
}

fn check_all_codes(object: &[u8]) {
    check_against_oracle(&Raid5::new(3).unwrap(), object);
    check_against_oracle(&Raid6::new(3).unwrap(), object);
    check_against_oracle(&ReedSolomon::new(4, 6).unwrap(), object);
}

/// The lengths where the layout changes shape: empty, one byte, one
/// byte either side of a whole shard (64 is the alignment, so these are
/// `shard_len - 1`, `shard_len`, `shard_len + 1` of the planned
/// layout), the same around two shards, a length no `m` divides, and
/// one whose shards span many 16 KiB kernel blocks.
#[test]
fn boundary_lengths_match_the_oracle_for_every_erasure_pattern() {
    for len in [0, 1, 63, 64, 65, 127, 128, 129, 1_000, 4 * 256 * 1024 + 4_321] {
        check_all_codes(&payload(len, len as u8));
    }
}

/// Every single loss, for 2 to 6 data fragments (so 2 to 6 terms under
/// the lockstep kernel, unit and general coefficients alike), at shard
/// lengths around its 64-byte step and the encode's 16 KiB block: the
/// shards and the rebuilt fragment are what each code's own hand-written
/// reconstruct — XOR rebuild, the P/Q solve, invert-and-multiply, all on
/// the byte-at-a-time kernels — makes of the same survivors.
#[test]
fn every_single_loss_decodes_as_the_oracle_reconstructs() {
    fn check_single_losses<C: OwningDecode>(code: &C, shard_len: usize) {
        let (m, n) = (code.data_fragments(), code.total_fragments());
        let shards: Vec<Vec<u8>> = (0..m).map(|i| payload(shard_len, 31 * i as u8 + 1)).collect();
        let views: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let parity = code.encode(&views).unwrap();
        let frags: Vec<Vec<u8>> = shards.iter().cloned().chain(parity).collect();
        for lost in 0..n {
            let owned: Vec<Fragment> =
                (0..n).filter(|&i| i != lost).map(|i| Fragment::new(i, frags[i].clone())).collect();
            let want = code.reconstruct(&owned, shard_len).unwrap();
            assert_eq!(want, shards, "the oracle itself, m={m} lost={lost}");
            assert_eq!(reconstruct_parallel(code, &owned, shard_len).unwrap(), want);
            let survivors = oracle::without(&frags, &[lost]);
            let rebuilt = rebuild_fragment(code, shard_len, &survivors, lost).unwrap();
            assert_eq!(rebuilt, frags[lost], "m={m} len={shard_len} lost={lost}");
            assert_eq!(rebuilt.capacity(), shard_len, "one exact allocation");
        }
    }
    for m in 2..=6 {
        for shard_len in [0, 1, 63, 64, 65, 129, 16 * 1024 - 1, 16 * 1024 + 65] {
            check_single_losses(&Raid5::new(m).unwrap(), shard_len);
            check_single_losses(&Raid6::new(m).unwrap(), shard_len);
            check_single_losses(&ReedSolomon::new(m, m + 2).unwrap(), shard_len);
        }
    }
}

/// The decode plan lives inline up to `INLINE` fragments and on the heap
/// past that: the same bytes either way. Every erasure pattern of
/// RAID5(3+1), of RAID6 up to n = 16, of Reed-Solomon codes up to
/// n = 16, and of RS(15, 18), whose plan does not fit inline.
#[test]
fn inline_decode_plans_match_the_oracle_up_to_sixteen_fragments_and_beyond() {
    let object = |m: usize| payload(m * 128 + 77, m as u8);
    check_against_oracle(&Raid5::new(3).unwrap(), &object(3));
    for m in [2, 7, 14] {
        check_against_oracle(&Raid6::new(m).unwrap(), &object(m));
    }
    for (m, n) in [(2, 5), (4, 8), (8, 12), (13, 16), (15, 18)] {
        assert_eq!(n > INLINE, m == 15, "one code past the inline capacity");
        check_against_oracle(&ReedSolomon::new(m, n).unwrap(), &object(m));
    }
}

/// What a hostile or buggy caller can hand the decoder.
#[derive(Debug, Clone)]
enum Defect {
    TooFew,
    Duplicate(usize),
    OutOfRange(usize),
    WrongLength(usize, usize),
}

fn defect(g: &mut Gen) -> Defect {
    match g.range(0..4u8) {
        0 => Defect::TooFew,
        1 => Defect::Duplicate(g.range(0usize..8)),
        2 => Defect::OutOfRange(g.range(0usize..300)),
        _ => Defect::WrongLength(g.range(0usize..8), g.range(0usize..200)),
    }
}

/// Applies `defect` to a fragment list.
fn corrupt(avail: &mut Vec<Fragment>, defect: &Defect, m: usize, n: usize) {
    match *defect {
        Defect::TooFew => avail.truncate(m - 1),
        Defect::Duplicate(at) => {
            let at = at % avail.len();
            let copy = avail[at].clone();
            avail.insert((at * 7) % avail.len(), copy);
        }
        Defect::OutOfRange(by) => {
            let at = by % avail.len();
            avail[at].index = n + by;
        }
        Defect::WrongLength(at, len) => {
            let at = at % avail.len();
            avail[at].data.resize(len, 0xEE);
        }
    }
}

fn check_error_parity<C: OwningDecode>(code: &C, object: &[u8], defects: &[Defect]) {
    let (m, n) = (code.data_fragments(), code.total_fragments());
    let planner = StripePlanner::new(m, n).unwrap();
    let (layout, frags) = oracle::encode_object(&planner, code, object).unwrap();
    let mut avail = frags;
    for defect in defects {
        corrupt(&mut avail, defect, m, n);
    }
    let views: Vec<(usize, &[u8])> = avail.iter().map(|f| (f.index, f.data.as_slice())).collect();
    // Two defects can cancel (a length changed and changed back).
    let Err(want) = oracle::decode_object(code, &layout, &avail) else {
        return;
    };
    assert_eq!(decode_object(code, &layout, &views).unwrap_err(), want.clone());
    assert_eq!(rebuild_fragment(code, layout.shard_len, &views, 0).unwrap_err(), want.clone());
    assert_eq!(reconstruct_parallel(code, &avail, layout.shard_len).unwrap_err(), want);
}

#[test]
fn arbitrary_objects_match_the_oracle_for_every_erasure_pattern() {
    check(
        24,
        |g| g.bytes(0..3_000),
        |object| {
            check_all_codes(&object);
        },
    );
}

/// One or two defects at once: the first one met in input order is
/// the one reported, exactly as the per-code decoders did.
#[test]
fn malformed_inputs_get_the_oracles_error() {
    check(
        24,
        |g| (g.bytes(0..600), g.vec(1..3, defect)),
        |(object, defects)| {
            check_error_parity(&Raid5::new(3).unwrap(), &object, &defects);
            check_error_parity(&Raid6::new(3).unwrap(), &object, &defects);
            check_error_parity(&ReedSolomon::new(4, 6).unwrap(), &object, &defects);
        },
    );
}

/// The column decode ≡ the shard-major decode it replaced
/// (`oracle::shard_major_decode`) on every kernel, for every loss
/// pattern of RAID5(3+1), RAID6(4+2) and RS(4,6), where the columns meet
/// the shards: shards shorter than one column, `k·FUSED_BLOCK` and
/// `k·FUSED_BLOCK ± 64`; objects that fill the stripe, miss it by a byte,
/// end in a tail shard shorter than one column, or are one byte long.
#[test]
fn column_decode_matches_the_shard_major_decode_on_every_kernel() {
    fn check_code<C: ErasureCode>(code: &C) {
        let (m, n) = (code.data_fragments(), code.total_fragments());
        let k = FUSED_BLOCK;
        for shard_len in [64, 1_000, k - 64, k, k + 64, 2 * k - 64, 2 * k + 64] {
            let shards: Vec<Vec<u8>> =
                (0..m).map(|i| payload(shard_len, 57 * i as u8 + 3)).collect();
            let views: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
            let parity = code.encode(&views).unwrap();
            let frags: Vec<Vec<u8>> = shards.iter().cloned().chain(parity).collect();
            let whole = shards.concat();
            let tail = (m - 1) * shard_len + 100.min(shard_len - 1);
            for object_len in [m * shard_len, m * shard_len - 1, tail, 1] {
                let layout = FragmentLayout { object_len, m, n, shard_len };
                for lost in erasure_patterns(n, n - m) {
                    let views = oracle::without(&frags, &lost);
                    let want = oracle::shard_major_decode(Kernel::detect(), code, &layout, &views)
                        .unwrap();
                    assert_eq!(want, whole[..object_len], "the oracle itself");
                    for kernel in KERNELS {
                        let got = decode_object_with(kernel, code, &layout, &views).unwrap();
                        assert!(
                            got == want,
                            "{kernel:?} m={m} shard_len={shard_len} len={object_len} lost={lost:?}"
                        );
                    }
                }
            }
        }
    }
    check_code(&Raid5::new(3).unwrap());
    check_code(&Raid6::new(4).unwrap());
    check_code(&ReedSolomon::new(4, 6).unwrap());
}

/// `decode_object` allocates no more than the shard-major decode did —
/// which allocated the object once, the decoder's index and basis, and,
/// only when a data shard was absent, its term lists and the inverted
/// basis. Now the plan is inline, so the object is the one allocation,
/// and a rebuilt fragment is the one allocation of `rebuild_fragment`.
/// The counts beside are what the shard-major decode made of the same
/// inputs.
#[test]
fn decode_allocates_no_more_than_the_shard_major_decode() {
    fn allocs<C: ErasureCode>(code: &C, lost: &[usize]) -> u64 {
        let (m, n) = (code.data_fragments(), code.total_fragments());
        let planner = StripePlanner::new(m, n).unwrap();
        let object = payload(3 * FUSED_BLOCK + 777, 9);
        let (layout, frags) = planner.split_encode(code, &object).unwrap();
        let views = oracle::without(&frags, lost);
        let (allocs, got) = allocs_of(|| decode_object(code, &layout, &views));
        assert_eq!(got.unwrap(), object);
        for &target in lost {
            let (rebuild, got) =
                allocs_of(|| rebuild_fragment(code, layout.shard_len, &views, target));
            assert_eq!(got.unwrap(), frags[target]);
            assert_eq!(rebuild, 1, "allocations of a rebuild of fragment {target}");
        }
        allocs
    }
    let raid5 = Raid5::new(3).unwrap();
    let raid6 = Raid6::new(4).unwrap();
    let rs = ReedSolomon::new(4, 6).unwrap();
    // (allocations here, at the shard-major decode) per loss pattern.
    let cases = [
        (allocs(&raid5, &[]), SHARD_MAJOR[0], "RAID5 healthy"),
        (allocs(&raid5, &[3]), SHARD_MAJOR[1], "RAID5 parity lost"),
        (allocs(&raid5, &[1]), SHARD_MAJOR[2], "RAID5 data lost"),
        (allocs(&raid6, &[0, 2]), SHARD_MAJOR[3], "RAID6 two data lost"),
        (allocs(&raid6, &[1, 5]), SHARD_MAJOR[4], "RAID6 data and Q lost"),
        (allocs(&rs, &[0, 3]), SHARD_MAJOR[5], "RS two data lost"),
        (allocs(&rs, &[2]), SHARD_MAJOR[6], "RS one data lost"),
    ];
    for (now, then, case) in cases {
        println!("{case}: {now} allocations (shard-major: {then})");
        assert!(now <= then, "{case}: {now} allocations, the shard-major decode made {then}");
        assert_eq!(now, 1, "{case}: allocations besides the object");
    }
}

/// What the shard-major decode allocated for the cases above, in order.
const SHARD_MAJOR: [u64; 7] = [3, 3, 13, 16, 15, 16, 15];
