//! Block digests (DESIGN.md §7): re-hashing the blocks a patch overlaps
//! is the same as re-recording the patched object, detection power is
//! what a whole-object SHA-256 had, and an object of at most one block
//! *has* the whole-object SHA-256.

use hyrd_testkit::{check, Gen};

use hyrd::{IntegrityIndex, Verdict, DIGEST_BLOCK};
use hyrd_dedup::sha256::sha256;

const B: usize = DIGEST_BLOCK;

/// Object lengths around everything the block arithmetic can get wrong:
/// empty, tiny, one byte either side of one and of several blocks, a
/// short last block.
fn len_strategy(g: &mut Gen) -> usize {
    match g.range(0..6u8) {
        0 => 0,
        1 => g.range(1usize..200),
        2 => g.range(B - 1..=B + 1),
        3 => g.range(2 * B - 1..=2 * B + 1),
        4 => g.range(B + 1..4 * B),
        _ => 4 * B,
    }
}

/// Deterministic, position-dependent content (so moved or repeated
/// blocks cannot cancel out).
fn content(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// `(len, offset, patch_len)` with the patch inside the object: empty,
/// within a block, straddling blocks, or the whole object.
fn patch_strategy(g: &mut Gen) -> (usize, usize, usize) {
    let (len, at, span) = (len_strategy(g), g.unit_inclusive(), g.unit_inclusive());
    let offset = (len as f64 * at) as usize;
    let room = len - offset;
    match g.range(0..4u8) {
        0 => (len, offset, 0),
        1 => (len, 0, len),
        2 => (len, offset, room.min(1 + (span * 4096.0) as usize)),
        _ => (len, offset, (room as f64 * span) as usize),
    }
}

/// `record_patch` after an in-place overwrite leaves exactly the
/// digest a full `record` of the patched object would.
#[test]
fn patch_rehash_equals_full_record() {
    check(
        64,
        |g| (patch_strategy(g), g.u64()),
        |((len, offset, patch_len), salt)| {
            let base = content(len, salt);
            let mut patched = base.clone();
            patched[offset..offset + patch_len].copy_from_slice(&content(patch_len, !salt));

            let mut incremental = IntegrityIndex::new();
            incremental.record("o", &base);
            incremental.record_patch("o", &patched, offset, patch_len);
            let mut full = IntegrityIndex::new();
            full.record("o", &patched);

            assert_eq!(incremental.digest("o"), full.digest("o"));
            assert_eq!(incremental.verify("o", &patched), Verdict::Verified);
            if patched != base {
                assert_eq!(incremental.verify("o", &base), Verdict::Corrupt);
            }
        },
    );
}

/// With nothing on record, or an object of another length, there is
/// nothing to patch: the object is recorded whole.
#[test]
fn patching_an_unknown_or_resized_object_records_it_whole() {
    check(
        64,
        |g| (patch_strategy(g), len_strategy(g)),
        |((len, offset, patch_len), other_len)| {
            let object = content(len, 7);
            let mut full = IntegrityIndex::new();
            full.record("o", &object);

            let mut unknown = IntegrityIndex::new();
            unknown.record_patch("o", &object, offset, patch_len);
            assert_eq!(unknown.digest("o"), full.digest("o"));

            let mut resized = IntegrityIndex::new();
            resized.record("o", &content(other_len, 9));
            resized.record_patch("o", &object, offset, patch_len);
            if other_len != len {
                assert_eq!(resized.digest("o"), full.digest("o"));
            }
        },
    );
}

/// Any single-bit flip, any truncation and any extension of a
/// recorded object is `Corrupt` — every bit is under one block hash
/// and the length is part of the digest.
#[test]
fn any_flip_truncation_or_extension_is_corrupt() {
    check(
        64,
        |g| (len_strategy(g), g.unit(), g.range(0..8u8), g.range(1usize..(B + 2))),
        |(len, at, bit, by)| {
            let object = content(len, 3);
            let mut idx = IntegrityIndex::new();
            idx.record("o", &object);
            assert_eq!(idx.verify("o", &object), Verdict::Verified);

            if len > 0 {
                // Flips at a random position and at every block edge.
                let mut positions = vec![(len as f64 * at) as usize, 0, len - 1];
                positions.extend((1..=len / B).flat_map(|k| [k * B - 1, (k * B).min(len - 1)]));
                for pos in positions {
                    let mut flipped = object.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_eq!(idx.verify("o", &flipped), Verdict::Corrupt, "flip at {}", pos);
                }
                // Truncations by a random amount and to every block edge
                // (where the surviving blocks all still hash right).
                for cut in
                    std::iter::once(len - by.min(len)).chain((0..len.div_ceil(B)).map(|k| k * B))
                {
                    assert_eq!(idx.verify("o", &object[..cut]), Verdict::Corrupt, "cut to {}", cut);
                }
            }
            let mut longer = object.clone();
            longer.extend(content(by, 5));
            assert_eq!(idx.verify("o", &longer), Verdict::Corrupt, "extended by {}", by);
            longer.truncate(len);
            longer.resize(len + by, 0);
            assert_eq!(idx.verify("o", &longer), Verdict::Corrupt, "zero-extended by {}", by);
        },
    );
}

/// The layout: one SHA-256 per block of the object, so an object of
/// at most one block is digested exactly as before blocks existed —
/// plain `sha256(bytes)`.
#[test]
fn digest_is_the_sha256_of_each_block() {
    check(64, len_strategy, |len| {
        let object = content(len, 11);
        let mut idx = IntegrityIndex::new();
        idx.record("o", &object);
        let digest = idx.digest("o").expect("just recorded");
        assert_eq!(digest.len(), len);
        let blocks: Vec<_> = digest.blocks().copied().collect();
        if len <= B {
            assert_eq!(blocks, vec![sha256(&object)]);
        } else {
            assert_eq!(blocks, object.chunks(B).map(sha256).collect::<Vec<_>>());
        }
    });
}

/// The grain the block size is chosen for: a 4 KiB patch of a 512 KiB
/// replica, wherever it lands, changes at most two of the object's 128
/// block digests, and the table is the one a fresh `record` builds.
#[test]
fn a_4k_patch_of_a_512k_object_rehashes_at_most_two_blocks() {
    const LEN: usize = 512 * 1024;
    const PATCH: usize = 4096;
    let mut object = content(LEN, 13);
    let mut idx = IntegrityIndex::new();
    idx.record("o", &object);
    let blocks = |idx: &IntegrityIndex| -> Vec<_> {
        idx.digest("o").expect("recorded").blocks().copied().collect()
    };
    assert_eq!(blocks(&idx).len(), 128);
    // Unaligned, aligned, one byte either side of a block edge, the tail.
    for (round, offset) in
        [100_000, 7 * B, 9 * B - 1, 9 * B + 1, LEN - PATCH].into_iter().enumerate()
    {
        let before = blocks(&idx);
        object[offset..offset + PATCH].copy_from_slice(&content(PATCH, round as u64));
        idx.record_patch("o", &object, offset, PATCH);
        let changed = before.iter().zip(blocks(&idx)).filter(|(old, new)| *old != new).count();
        assert!((1..=2).contains(&changed), "patch at {offset} changed {changed} block digests");
        let mut fresh = IntegrityIndex::new();
        fresh.record("o", &object);
        assert_eq!(idx.digest("o"), fresh.digest("o"), "patch at {offset}");
    }
}
