//! Block digests (DESIGN.md §7): re-hashing the blocks a patch overlaps
//! is the same as re-recording the patched object, any flip, truncation,
//! extension or swap of blocks is caught, and the table of an object
//! longer than one block folds to the object's BLAKE3 hash. The same
//! holds for the digest of a directory's metadata block, which a
//! compaction patches by the ranges the metastore reports (DESIGN.md
//! §15).

use std::time::Duration;

use std::slice::from_ref;

use hyrd_testkit::{check, Gen};

use hyrd::{IntegrityIndex, ObjectDigest, Verdict, DIGEST_BLOCK};
use hyrd_dedup::blake3::{self, subtree_cvs_with, Digest, Kernel};
use hyrd_gcsapi::ProviderId;
use hyrd_metastore::{
    resolve_chain, DiffBlock, FlushKind, MetadataBlock, NormPath, Placement, ShardedMetaStore,
};

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
            incremental.record_patch("o", &patched, len, from_ref(&(offset..offset + patch_len)));
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
            unknown.record_patch("o", &object, len, from_ref(&(offset..offset + patch_len)));
            assert_eq!(unknown.digest("o"), full.digest("o"));

            let mut resized = IntegrityIndex::new();
            resized.record("o", &content(other_len, 9));
            resized.record_patch("o", &object, len, from_ref(&(offset..offset + patch_len)));
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

/// Block `i`'s value as the portable kernel computes it, alone.
fn subtree_value(i: usize, block: &[u8]) -> Digest {
    let mut value = [[0; 32]];
    subtree_cvs_with(Kernel::Portable, &[(i as u64, block)], &mut value);
    value[0]
}

/// The layout: one subtree value per block of the object, at its
/// position; an object of at most one block (the empty one included)
/// has the one value of block 0.
#[test]
fn digest_is_the_subtree_value_of_each_block() {
    check(64, len_strategy, |len| {
        let object = content(len, 11);
        let mut idx = IntegrityIndex::new();
        idx.record("o", &object);
        let digest = idx.digest("o").expect("just recorded");
        assert_eq!(digest.len(), len);
        let blocks: Vec<_> = digest.blocks().copied().collect();
        if len <= B {
            assert_eq!(blocks, vec![subtree_value(0, &object)]);
        } else {
            let values: Vec<_> =
                object.chunks(B).enumerate().map(|(i, b)| subtree_value(i, b)).collect();
            assert_eq!(blocks, values);
        }
    });
}

/// The root of a table: BLAKE3's left-balanced tree over the block
/// values — the left side the largest power of two that leaves the right
/// one some — in parent nodes, `ROOT` on the top one.
fn fold(digest: &ObjectDigest) -> Digest {
    fn node(values: &[Digest], root: bool) -> Digest {
        if values.len() == 1 {
            return values[0];
        }
        let left = 1 << (values.len() - 1).ilog2();
        blake3::parent(&node(&values[..left], false), &node(&values[left..], false), root)
    }
    let values: Vec<Digest> = digest.blocks().copied().collect();
    assert!(values.len() > 1, "a one-block table is no root");
    node(&values, true)
}

/// An edit of the object [`a_table_folds_to_the_blake3_hash_of_its_object`]
/// builds: an overwrite in place, or a new length.
#[derive(Debug, Clone)]
enum Edit {
    Patch { at: f64, len: usize },
    Resize(usize),
}

/// The table an object reaches through `record`, patches and resizes —
/// and a directory's block through `record_flush_item` deltas — folds to
/// `blake3::hash` of the bytes whenever they are longer than one block:
/// the table is BLAKE3's own tree, cut at 4 KiB.
#[test]
fn a_table_folds_to_the_blake3_hash_of_its_object() {
    check(
        48,
        |g| {
            let edit = |g: &mut Gen| match g.range(0..3u8) {
                0 => Edit::Resize(B + 1 + g.range(0..12 * B)),
                _ => Edit::Patch { at: g.unit(), len: g.range(1..2 * B) },
            };
            (B + 1 + g.range(0..12 * B), g.u64(), g.vec(1..12, edit))
        },
        |(len, salt, edits)| {
            let mut object = content(len, salt);
            let mut idx = IntegrityIndex::new();
            idx.record("o", &object);
            for (round, edit) in edits.iter().enumerate() {
                let base_len = object.len();
                let changed = match *edit {
                    Edit::Patch { at, len } => {
                        let offset = ((object.len() - 1) as f64 * at) as usize;
                        let end = object.len().min(offset + len);
                        object[offset..end].copy_from_slice(&content(end - offset, round as u64));
                        offset..end
                    }
                    Edit::Resize(len) => {
                        object.resize(len, round as u8);
                        base_len.min(len)..len
                    }
                };
                idx.record_patch("o", &object, base_len, from_ref(&changed));
                let digest = idx.digest("o").expect("recorded");
                assert_eq!(fold(digest), blake3::hash(&object), "after {edit:?}");
            }
        },
    );
    // A directory's metadata block, patched by compaction deltas.
    let mut model = DirModel::new(400);
    let name = MetadataBlock::object_name(&model.dir);
    let mut g = Gen::new(31, 64);
    for _ in 0..400 {
        model.apply(&dir_op(&mut g, 800, 5));
        if let Some(digest) = model.index.digest(&name).filter(|_| model.block.len() > B) {
            assert_eq!(
                fold(digest),
                blake3::hash(&model.block),
                "block of {} B",
                model.block.len()
            );
        }
    }
    assert!(model.compactions > 0 && model.block.len() > B, "the run reached a patched block");
}

/// Two blocks of an object trading places is `Corrupt`: each value is
/// bound to its block's position by the chunk counters.
#[test]
fn swapping_two_blocks_is_corrupt() {
    check(
        48,
        |g| (2 + g.range(0usize..14), g.u64(), g.range(0usize..B), g.u64()),
        |(blocks, salt, tail, pick)| {
            let object = content(blocks * B + tail, salt);
            let mut idx = IntegrityIndex::new();
            idx.record("o", &object);
            let i = pick as usize % blocks;
            let j = (i + 1 + (pick >> 32) as usize % (blocks - 1)) % blocks;
            let mut swapped = object.clone();
            swapped[i * B..(i + 1) * B].copy_from_slice(&object[j * B..(j + 1) * B]);
            swapped[j * B..(j + 1) * B].copy_from_slice(&object[i * B..(i + 1) * B]);
            assert_eq!(idx.verify("o", &swapped), Verdict::Corrupt, "blocks {i} and {j}");
            assert_eq!(idx.verify("o", &object), Verdict::Verified);
        },
    );
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
        idx.record_patch("o", &object, LEN, from_ref(&(offset..offset + PATCH)));
        let changed = before.iter().zip(blocks(&idx)).filter(|(old, new)| *old != new).count();
        assert!((1..=2).contains(&changed), "patch at {offset} changed {changed} block digests");
        let mut fresh = IntegrityIndex::new();
        fresh.record("o", &object);
        assert_eq!(idx.digest("o"), fresh.digest("o"), "patch at {offset}");
    }
}

/// One op on the directory [`DirModel`] drives.
#[derive(Debug, Clone)]
enum DirOp {
    Create(u16),
    /// A placement change that keeps the entry's length: overwritten in
    /// place in the metastore's frame.
    Update(u16),
    /// A placement change to an object name `len` bytes long: usually a
    /// new length, so the frame is spliced.
    Resize(u16, u8),
    Remove(u16),
    Flush,
    /// `seed_flushed` at the version just flushed.
    Seed,
    /// A new client over what the flushes shipped: `attach` keeps the
    /// diff chain and starts with an empty index, a restart heals the
    /// resolved block and records it whole.
    Restart {
        attach: bool,
    },
}

/// An op on one of `names` names; `splices` weighs the ops that change
/// an entry's length against the 60 of an in-place update. A seed or a
/// restart makes the next compaction record its block whole, so they
/// come about once every 30 flushes: most compactions patch.
fn dir_op(g: &mut Gen, names: u16, splices: u32) -> DirOp {
    let name = g.range(0..names);
    match g.weighted(&[splices, 60, splices, splices, 30, 1, 1]) {
        0 => DirOp::Create(name),
        1 => DirOp::Update(name),
        2 => DirOp::Resize(name, g.range(1..48u8)),
        3 => DirOp::Remove(name),
        4 => DirOp::Flush,
        5 => DirOp::Seed,
        _ => DirOp::Restart { attach: g.bool() },
    }
}

/// One directory's metadata, flushed the way the dispatcher flushes it:
/// every item's digest goes through `IntegrityIndex::record_flush_item`
/// as the metastore makes it. `block` and `diffs` are what the providers
/// hold.
struct DirModel {
    dir: NormPath,
    store: ShardedMetaStore,
    index: IntegrityIndex,
    block: Vec<u8>,
    diffs: Vec<DiffBlock>,
    version: u64,
    tick: u64,
    compactions: usize,
}

impl DirModel {
    fn new(entries: u16) -> Self {
        let mut model = DirModel {
            dir: NormPath::parse("/dir").expect("well-formed"),
            store: ShardedMetaStore::with_shards(4),
            index: IntegrityIndex::new(),
            block: Vec::new(),
            diffs: Vec::new(),
            version: 0,
            tick: 0,
            compactions: 0,
        };
        for name in 0..entries {
            model.apply(&DirOp::Create(name));
        }
        model.flush();
        model
    }

    fn path(&self, name: u16) -> NormPath {
        self.dir.join(&format!("f{name:05}")).expect("well-formed")
    }

    fn apply(&mut self, op: &DirOp) {
        self.tick += 1;
        let now = Duration::from_secs(self.tick);
        let place = |name: u16, len: u8| Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId(1)],
            object: format!("{name:05}{}", "o".repeat(len as usize)).into(),
        };
        match *op {
            DirOp::Create(name) => {
                let path = self.path(name);
                if self.store.create_file(&path, 4096, now).is_ok() {
                    self.store.set_placement(&path, place(name, 8), 4096, now).expect("created");
                }
            }
            DirOp::Update(name) => {
                if let Ok(inode) = self.store.inode(&self.path(name)) {
                    let path = self.path(name);
                    self.store
                        .set_placement(&path, inode.placement, inode.size, now)
                        .expect("lives");
                }
            }
            DirOp::Resize(name, len) => {
                let _ = self.store.set_placement(&self.path(name), place(name, len), 4096, now);
            }
            DirOp::Remove(name) => {
                let _ = self.store.remove_file(&self.path(name));
            }
            DirOp::Flush => self.flush(),
            DirOp::Seed => {
                self.flush();
                self.store.seed_flushed(&self.dir, self.version);
            }
            DirOp::Restart { attach } => self.restart(attach),
        }
    }

    /// Flushes, then checks the property: the digest on record for the
    /// directory's block is the one a whole `record` of the block the
    /// providers hold makes.
    fn flush(&mut self) {
        let index = &mut self.index;
        let mut items = Vec::new();
        self.store.flush_dirty_with(&mut items, |item, delta| {
            index.record_flush_item(item, delta);
        });
        for item in items {
            self.version = item.version;
            match item.kind {
                FlushKind::Diff => {
                    self.diffs.push(DiffBlock::from_bytes(&item.bytes).expect("own"))
                }
                FlushKind::Block | FlushKind::Compact => {
                    self.compactions += (item.kind == FlushKind::Compact) as usize;
                    self.block = item.bytes;
                    self.diffs.clear();
                }
            }
        }
        let name = MetadataBlock::object_name(&self.dir);
        if let Some(digest) = self.index.digest(&name) {
            let mut whole = IntegrityIndex::new();
            whole.record(&*name, &self.block);
            assert_eq!(Some(digest), whole.digest(&name), "block at version {}", self.version);
            assert_eq!(self.index.verify(&name, &self.block), Verdict::Verified);
        }
    }

    /// What `Hyrd::attach` / `Hyrd::restart` do with the directory:
    /// load the resolved chain into a fresh store and seed it there.
    fn restart(&mut self, attach: bool) {
        let base = MetadataBlock::from_bytes(&self.block).expect("own block");
        let resolved = resolve_chain(base, self.diffs.clone());
        self.store = ShardedMetaStore::with_shards(4);
        self.store.load_block(&resolved.block).expect("a plain directory");
        self.store.seed_flushed(&self.dir, resolved.block.version);
        self.version = resolved.block.version;
        self.index = IntegrityIndex::new();
        if attach {
            self.store.seed_chain(&self.dir, resolved.applied);
        } else {
            self.block = resolved.block.to_bytes();
            self.diffs.clear();
            self.index.record(MetadataBlock::object_name(&self.dir), &self.block);
        }
    }
}

/// A compaction re-hashes only the digest blocks its ranges touch, and
/// the table it leaves is the one a whole `record` of the shipped block
/// builds — after in-place updates, splices that grow, shrink, insert
/// and remove entries, seeds, restarts and attaches, in directories of
/// 1 to 1,500 entries (up to ≈ 40 digest blocks).
#[test]
fn a_patched_block_digest_is_the_digest_of_the_shipped_block() {
    check(
        24,
        |g| {
            let entries = g.len(1..1501) as u16;
            // No splices at all in some cases, so that chains of in-place
            // updates alone reach their compactions.
            let splices = g.pick(&[0, 5, 15]);
            let ops = g.vec(60..300, |g| dir_op(g, 2 * entries, splices));
            (entries, ops)
        },
        |(entries, ops)| {
            let mut model = DirModel::new(entries);
            for op in &ops {
                model.apply(op);
            }
            model.flush();
        },
    );
}
