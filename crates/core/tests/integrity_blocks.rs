//! The digest table at the sizes where its hashing changes hands:
//! `record` and `verify` go through `blake3::subtree_cvs` in groups of
//! 16 blocks, whose full chunks fill 16- and 8-lane passes and whose
//! leftover and short chunks go row-wise, up to four chains at a time. Whatever path a
//! block takes, its value is the portable kernel's subtree value of it at
//! its position, a flipped bit in it is `Corrupt`, and `record_patch` of
//! it ≡ `record`.
//!
//! Std-only and seeded, like `log_rule_model.rs`. The property suite
//! beside it (`integrity_proptests.rs`) covers the small sizes.
//!
//! Last, where the time goes: the dispatcher times every `record`,
//! `record_patch` and `verify` it makes into the registry — and only
//! there; and what a metadata compaction hashes: the blocks its
//! directory changed, not the directory.

use std::slice::from_ref;

use hyrd::config::HyrdConfig;
use hyrd::telemetry::{Collector, SharedBuf};
use hyrd::{Hyrd, IntegrityIndex, Verdict, DIGEST_BLOCK};
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_dedup::blake3::{subtree_cvs_with, Kernel};
use hyrd_metastore::shard::COMPACT_EVERY;

const B: usize = DIGEST_BLOCK;

/// Block counts whose chunks take mixes of 16- and 8-lane passes and
/// row-wise leftovers (7 blocks: 16 + 8 + 4 chunks; 9: 16 + 16 + 4), of
/// one full group (16) and of two (33 = 16 + 16 + 1).
const BLOCKS: [usize; 7] = [7, 8, 9, 15, 16, 17, 33];
/// `len % 4096`: a full, a one-byte and an all-but-one-byte last block.
const LAST: [usize; 3] = [0, 1, B - 1];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn content(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Every `(blocks, len)` of the grid: `blocks` blocks, the last one
/// `last` bytes long (a full block for `last == 0`).
fn objects() -> impl Iterator<Item = (usize, usize)> {
    BLOCKS.into_iter().flat_map(|blocks| {
        LAST.into_iter()
            .map(move |last| (blocks, (blocks - 1) * B + if last == 0 { B } else { last }))
    })
}

fn table(idx: &IntegrityIndex) -> Vec<[u8; 32]> {
    idx.digest("o").expect("recorded").blocks().copied().collect()
}

/// Each block's value as the portable kernel computes it, one at a time.
fn values(object: &[u8]) -> Vec<[u8; 32]> {
    object
        .chunks(B)
        .enumerate()
        .map(|(i, block)| {
            let mut value = [[0; 32]];
            subtree_cvs_with(Kernel::Portable, &[(i as u64, block)], &mut value);
            value[0]
        })
        .collect()
}

#[test]
fn record_then_verify_round_trips_and_the_table_is_a_subtree_value_per_block() {
    let mut rng = SplitMix64(21);
    for (blocks, len) in objects() {
        let object = rng.content(len);
        let mut idx = IntegrityIndex::new();
        assert_eq!(idx.record("o", &object), len, "record hashes the object once");
        assert_eq!(idx.verify("o", &object), Verdict::Verified, "{blocks} blocks, {len} bytes");
        assert_eq!(table(&idx), values(&object), "{len} bytes");
        assert_eq!(table(&idx).len(), blocks);
        // The length is part of the digest at these sizes too.
        assert_eq!(idx.verify("o", &object[..len - 1]), Verdict::Corrupt);
    }
}

#[test]
fn one_flipped_bit_in_each_block_of_a_17_block_object_is_corrupt() {
    // The chunks of blocks 0..16 fill four 16-lane passes; block 16, one
    // byte long, goes row-wise.
    let mut rng = SplitMix64(17);
    let object = rng.content(16 * B + 1);
    let mut idx = IntegrityIndex::new();
    idx.record("o", &object);
    for block in 0..17 {
        let span = B.min(object.len() - block * B);
        for at in [0, rng.below(span), span - 1] {
            let mut flipped = object.clone();
            flipped[block * B + at] ^= 1 << rng.below(8);
            assert_eq!(idx.verify("o", &flipped), Verdict::Corrupt, "block {block}, byte {at}");
        }
    }
    assert_eq!(idx.verify("o", &object), Verdict::Verified);
}

#[test]
fn record_patch_is_record_at_every_size() {
    let mut rng = SplitMix64(19);
    for (blocks, len) in objects() {
        let mut object = rng.content(len);
        let mut idx = IntegrityIndex::new();
        idx.record("o", &object);
        // A patch inside one block, one over a block edge, one wide
        // enough to fill a pass (when the object is), one to the end.
        let wide = (9 * B).min(len);
        for (offset, patch) in [
            (rng.below(len - 16), 16),
            ((1 + rng.below(blocks - 1)) * B - 8, 16.min(len - (blocks - 1) * B + 8)),
            (rng.below(len - wide + 1), wide),
            (len - 1, 1),
        ] {
            let fresh = rng.content(patch);
            object[offset..offset + patch].copy_from_slice(&fresh);
            let hashed = idx.record_patch("o", &object, len, from_ref(&(offset..offset + patch)));
            assert!((patch..patch + 2 * B).contains(&hashed), "{patch}-byte patch hashed {hashed}");
            let mut whole = IntegrityIndex::new();
            whole.record("o", &object);
            assert_eq!(idx.digest("o"), whole.digest("o"), "{len} bytes, patch {offset}+{patch}");
            assert_eq!(idx.verify("o", &object), Verdict::Verified);
        }
    }
}

#[test]
fn a_patch_range_past_the_end_is_clamped_to_the_object() {
    // Used to index past the end of the 2-block table and panic.
    let object = [0u8; 8192];
    let mut whole = IntegrityIndex::new();
    whole.record("o", &object);

    let mut idx = whole.clone();
    assert_eq!(
        idx.record_patch("o", &object, 8192, from_ref(&(8000..13_000))),
        B,
        "block 1 is all the range names"
    );
    assert_eq!(idx.digest("o"), whole.digest("o"));
    // Wholly outside, and a range that runs to `usize::MAX`: no block
    // to hash past the end, nothing changed.
    assert_eq!(idx.record_patch("o", &object, 8192, from_ref(&(8192..8193))), 0);
    assert_eq!(idx.record_patch("o", &object, 8192, from_ref(&(1 << 40..(1 << 40) + 4096))), 0);
    assert_eq!(idx.record_patch("o", &object, 8192, from_ref(&(4096..usize::MAX))), B);
    assert_eq!(idx.digest("o"), whole.digest("o"));
    assert_eq!(idx.verify("o", &object), Verdict::Verified);

    // The clamped part is still re-hashed.
    let mut changed = object;
    changed[8191] = 1;
    idx.record_patch("o", &changed, 8192, from_ref(&(8191..13_191)));
    assert_eq!(idx.verify("o", &changed), Verdict::Verified);
    assert_eq!(idx.verify("o", &object), Verdict::Corrupt);
}

#[test]
fn the_dispatcher_times_hashing_in_the_registry_and_never_in_the_trace() {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let trace = SharedBuf::new();
    let telemetry = Collector::builder(clock).jsonl(trace.clone()).build();
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
    let payload = SplitMix64(23).content(2 * 1024 * 1024);

    h.create_file("/big", &payload).expect("fleet up");
    let created = telemetry.metrics();
    // Every fragment of the file (n/m of it, 4/3 by default) and the
    // metadata block that names it were recorded.
    let hashed = created.counter("integrity.hashed_bytes");
    assert!(hashed as usize >= payload.len() * 4 / 3, "create hashed {hashed} B");
    assert!(created.histograms["integrity.hash_wall_ns"].count >= 4, "one sample per fragment");

    // A read verifies the m fragments it fetched: the payload again.
    assert_eq!(&h.read_file("/big").expect("fleet up").0[..], &payload[..]);
    let verified = telemetry.metrics().counter("integrity.hashed_bytes") - hashed;
    assert!(verified as usize >= payload.len(), "read hashed {verified} B");

    // Wall time is not a deterministic quantity: none of it in the trace.
    telemetry.flush();
    let text = trace.text();
    assert!(text.contains("create_file"), "the trace is on");
    assert!(!text.contains("integrity.hash"), "hashing leaked into the trace");
}

/// The compaction of a 4,096-entry directory (a ≈ 250 KB block, 60
/// digest blocks) after its chain changed k entries in place hashes the
/// header's block and at most two blocks per changed entry — at most
/// (k + 1) · 2 · 4 KiB, against the whole block before.
#[test]
fn a_compaction_hashes_the_blocks_its_directory_changed() {
    const FILES: usize = 4096;
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    let telemetry = Collector::builder(clock).build();
    let h = Hyrd::with_telemetry(&fleet, HyrdConfig::default(), telemetry.clone()).expect("valid");
    let file = |i: usize| format!("/dir/f{i:04}");
    for i in 0..FILES {
        h.create_file(&file(i), &[1]).expect("fleet up");
    }
    let counter = |name: &str| telemetry.metrics().counter(name);
    // Run to the next compaction, so the chain starts empty.
    while counter("meta.flush.diffs") % COMPACT_EVERY as u64 != 0 {
        h.update_file(&file(0), 0, &[2]).expect("fleet up");
    }
    for k in [1, 3, COMPACT_EVERY] {
        // COMPACT_EVERY diffs over k entries, then the compacting write
        // to one of them: a 1-byte file, so its own patch hashes 1 byte.
        let entry = |j: usize| file((j % k) * (FILES / k) + 7);
        for j in 0..COMPACT_EVERY {
            h.update_file(&entry(j), 0, &[j as u8]).expect("fleet up");
        }
        let (compacts, hashed) =
            (counter("meta.flush.compacts"), counter("integrity.hashed_bytes"));
        h.update_file(&entry(COMPACT_EVERY), 0, &[3]).expect("fleet up");
        assert_eq!(
            counter("meta.flush.compacts"),
            compacts + 1,
            "the write after k = {k} compacts"
        );
        let hashed = counter("integrity.hashed_bytes") - hashed - 1;
        println!("compaction after {k} changed entries hashed {hashed} B");
        assert!(hashed as usize <= (k + 1) * 2 * B, "after {k} changed entries: {hashed} B");
    }
}
