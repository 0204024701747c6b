//! Client-side integrity: BLAKE3 digests for every object HyRD writes.
//!
//! Cloud storage returns whatever bytes it holds; it does not promise they
//! are the bytes you stored. The dispatcher records a digest at write time
//! (kept client-side, *never* stored next to the payload — a provider that
//! corrupts data could corrupt a co-located checksum just as easily) and
//! verifies every whole-object Get against it. A mismatch is treated as an
//! erasure: the read fails over to another replica or to erasure-coded
//! reconstruction, and the scrub pass rewrites the damaged copy.
//!
//! A digest is the object's length plus one value per
//! [`DIGEST_BLOCK`]-sized block of it: block `i`'s is the chaining value
//! of BLAKE3's subtree over the object's chunks `4i..4i + 4`, counted
//! from the object's start and never root-flagged. Blocks stay
//! independent, so a change re-hashes the blocks it touched instead of
//! the object ([`IntegrityIndex::record_patch`]): a ranged update the
//! blocks it overlaps, a metadata compaction the blocks of its
//! directory's block that differ from the one before it. Verification
//! hashes the same bytes once, block by block, and every bit of the
//! object is under exactly one block value: a flipped bit fails its
//! block, a truncation or extension fails the length, and since the chunk
//! counters are the block's position, a block moved to another position
//! fails too. Each value is a node of the object's own BLAKE3 tree, so
//! for any object longer than one block the table folds, parent by
//! parent, to `blake3(object)`.
//!
//! The index is a hash map from object name to digest, and the name is
//! the one the writer's key already shares. Nothing iterates the index,
//! so its order can reach no trace and no report.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use hyrd_dedup::blake3::{self, Digest};
use hyrd_metastore::{BlockDelta, FlushItem};

/// Bytes under one block value: the paper's small-file class and the
/// unit both workload generators update in, so a 4 KiB patch re-hashes
/// what it changed (at most two blocks when unaligned) whatever the
/// object's size. The table costs 32 B per 4 KiB indexed, 0.78 %. A
/// block is four BLAKE3 chunks, and `blake3::subtree_cvs` hashes the
/// chunks of sixteen blocks side by side in AVX-512 lanes (DESIGN.md §7
/// item 3, §10).
pub const DIGEST_BLOCK: usize = blake3::SUBTREE_LEN;

/// Outcome of verifying fetched bytes against the recorded digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bytes match the digest recorded at write time.
    Verified,
    /// Bytes differ from the recorded digest.
    Corrupt,
    /// No digest on record (e.g. object predates the index, or the
    /// provider runs in ghost mode and returns synthetic zeroes).
    Unknown,
}

/// What is on record for one object: its length and a value per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDigest {
    len: usize,
    /// Block 0 — the whole object when it fits one block. Inline, so the
    /// small objects that dominate the index cost no second allocation.
    head: Digest,
    /// Blocks 1.. (the last one may be short).
    tail: Vec<Digest>,
}

impl ObjectDigest {
    /// Length of the recorded object.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the recorded object is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block values in order; at least one (an empty object has the
    /// value of one empty chunk).
    pub fn blocks(&self) -> impl Iterator<Item = &Digest> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    fn block_mut(&mut self, index: usize) -> &mut Digest {
        match index {
            0 => &mut self.head,
            i => &mut self.tail[i - 1],
        }
    }

    /// Re-hashes the blocks of `bytes` that `indices` names, each index
    /// once and ascending, a group at a time: wherever the blocks lie,
    /// the kernels take a group side by side as they would a run.
    /// Returns the bytes hashed.
    fn rehash(&mut self, bytes: &[u8], indices: impl IntoIterator<Item = usize>) -> usize {
        let (mut group, mut queued, mut hashed) = ([0; GROUP], 0, 0);
        for index in indices {
            group[queued] = index;
            queued += 1;
            if queued == GROUP {
                hashed += self.rehash_group(bytes, &group);
                queued = 0;
            }
        }
        hashed + self.rehash_group(bytes, &group[..queued])
    }

    /// [`Self::rehash`] of at most [`GROUP`] blocks.
    fn rehash_group(&mut self, bytes: &[u8], indices: &[usize]) -> usize {
        let mut fresh = [[0; 32]; GROUP];
        let hashed = hash_blocks(bytes, indices.iter().copied(), &mut fresh[..indices.len()]);
        for (&index, digest) in indices.iter().zip(&fresh) {
            *self.block_mut(index) = *digest;
        }
        hashed
    }

    /// Grows or shrinks the table to `bytes`' block count.
    fn resize(&mut self, bytes: &[u8]) {
        self.len = bytes.len();
        self.tail.resize(last_block(bytes.len()), [0; 32]);
    }

    /// Whether `bytes` is the recorded object: the length, then every
    /// block, a group at a time, stopping at the first group that differs.
    fn matches(&self, bytes: &[u8]) -> bool {
        let blocks = last_block(self.len) + 1;
        let mut group = [[0; 32]; GROUP];
        bytes.len() == self.len
            && (0..blocks).step_by(GROUP).all(|start| {
                let fresh = &mut group[..GROUP.min(blocks - start)];
                hash_blocks(bytes, start.., fresh);
                self.blocks().skip(start).zip(fresh.iter()).all(|(on_record, now)| on_record == now)
            })
    }
}

/// Blocks hashed per call into a table on the stack — the most one
/// `blake3::subtree_cvs` call takes — so neither recording, patching nor
/// verifying allocates.
const GROUP: usize = blake3::MAX_SUBTREES;

/// Writes the value of each block of `bytes` that `indices` names —
/// `out.len()` of them, at most [`GROUP`] — into `out`, the blocks side
/// by side wherever they lie; an empty object is one empty block.
/// Returns the bytes hashed.
fn hash_blocks(
    bytes: &[u8],
    indices: impl IntoIterator<Item = usize>,
    out: &mut [Digest],
) -> usize {
    let mut blocks: [(u64, &[u8]); GROUP] = [(0, &[]); GROUP];
    for (block, index) in blocks[..out.len()].iter_mut().zip(indices) {
        let end = bytes.len().min((index + 1) * DIGEST_BLOCK);
        *block = (index as u64, &bytes[index * DIGEST_BLOCK..end]);
    }
    let blocks = &blocks[..out.len()];
    blake3::subtree_cvs(blocks, out);
    blocks.iter().map(|(_, block)| block.len()).sum()
}

/// Index of the last block of a `len`-byte object.
fn last_block(len: usize) -> usize {
    len.saturating_sub(1) / DIGEST_BLOCK
}

/// Object-name → digest map, hashed. A name is kept by reference count:
/// an insert shares the `Arc<str>` of the caller's key, and a name given
/// as a plain string is copied once, when it is new.
#[derive(Debug, Clone, Default)]
pub struct IntegrityIndex {
    digests: HashMap<Arc<str>, ObjectDigest>,
}

impl IntegrityIndex {
    /// An empty index.
    pub fn new() -> Self {
        IntegrityIndex::default()
    }

    /// Records the digest of `bytes` under `name`, replacing any previous
    /// entry. Returns the bytes hashed.
    pub fn record(&mut self, name: impl AsRef<str> + Into<Arc<str>>, bytes: &[u8]) -> usize {
        let last = last_block(bytes.len());
        match self.digests.get_mut(name.as_ref()) {
            Some(digest) => {
                digest.resize(bytes);
                digest.rehash(bytes, 0..=last)
            }
            None => {
                let mut fresh = ObjectDigest { len: 0, head: [0; 32], tail: Vec::new() };
                fresh.resize(bytes);
                let hashed = fresh.rehash(bytes, 0..=last);
                self.digests.insert(name.into(), fresh);
                hashed
            }
        }
    }

    /// Brings `name`'s digest up to date after the object changed from
    /// `base_len` bytes to `bytes`, where every byte of `bytes` that may
    /// differ from the old object's byte at the same offset — or has none
    /// there — lies in one of `changed`: only the blocks those ranges
    /// touch are hashed again, each once, and the table grows or shrinks
    /// to the new length (the block that held the shorter object's last
    /// byte is hashed again too, since its length may have changed).
    /// Ranges must ascend by start; parts past the end of `bytes` name no
    /// block.
    ///
    /// An in-place overwrite of `len` bytes at `offset` is one range,
    /// `offset..offset + len`, with `base_len` the length of `bytes`.
    /// With nothing on record for `name`, a recorded length other than
    /// `base_len`, or ranges out of order, there is nothing to patch
    /// against and the object is recorded whole. Returns the bytes
    /// hashed.
    pub fn record_patch(
        &mut self,
        name: impl AsRef<str> + Into<Arc<str>>,
        bytes: &[u8],
        base_len: usize,
        changed: &[Range<usize>],
    ) -> usize {
        let ordered = changed.windows(2).all(|pair| pair[0].start <= pair[1].start);
        let patchable = self.digests.get(name.as_ref()).is_some_and(|d| d.len == base_len);
        if !(patchable && ordered) || bytes.is_empty() {
            return self.record(name, bytes);
        }
        let digest = self.digests.get_mut(name.as_ref()).expect("on record");
        digest.resize(bytes);
        // A length change re-hashes everything from the block that held
        // the shorter object's last byte, which subsumes the ranges past it.
        let tail = (base_len != bytes.len())
            .then(|| base_len.min(bytes.len()).saturating_sub(1)..usize::MAX);
        let cut = tail.as_ref().map_or(usize::MAX, |tail| tail.start);
        // The blocks the ranges touch, each once: those before `next`
        // are named already.
        let mut next = 0;
        let touched = changed.iter().take_while(|r| r.start < cut).chain(&tail).flat_map(|range| {
            let end = range.end.min(bytes.len());
            let blocks = if range.start < end {
                next.max(range.start / DIGEST_BLOCK)..end.div_ceil(DIGEST_BLOCK)
            } else {
                0..0
            };
            next = next.max(blocks.end);
            blocks
        });
        digest.rehash(bytes, touched)
    }

    /// Records the digest of a metadata flush item under its object name:
    /// patched by `delta` when the metastore handed one over with the
    /// item — a compaction, which re-hashes the blocks its directory
    /// changed since the full block shipped before it — and whole
    /// otherwise. Items of one directory must come in the order they
    /// were made, as [`ShardedMetaStore::flush_dirty_with`] hands them
    /// out. Returns the bytes hashed.
    ///
    /// [`ShardedMetaStore::flush_dirty_with`]: hyrd_metastore::ShardedMetaStore::flush_dirty_with
    pub fn record_flush_item(&mut self, item: &FlushItem, delta: Option<&BlockDelta>) -> usize {
        let name = Arc::clone(&item.object);
        match delta {
            Some(delta) => self.record_patch(name, &item.bytes, delta.base_len, &delta.ranges),
            None => self.record(name, &item.bytes),
        }
    }

    /// Drops the entry for `name` (object deleted or rewritten opaquely).
    pub fn forget(&mut self, name: &str) {
        self.digests.remove(name);
    }

    /// Verifies `bytes` against the recorded digest for `name`: the
    /// length and every block.
    pub fn verify(&self, name: &str, bytes: &[u8]) -> Verdict {
        match self.digests.get(name) {
            None => Verdict::Unknown,
            Some(expected) if expected.matches(bytes) => Verdict::Verified,
            Some(_) => Verdict::Corrupt,
        }
    }

    /// The recorded digest for `name`, if any.
    pub fn digest(&self, name: &str) -> Option<&ObjectDigest> {
        self.digests.get(name)
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_lifecycle() {
        let mut idx = IntegrityIndex::new();
        assert_eq!(idx.verify("o1", b"payload"), Verdict::Unknown);

        idx.record("o1", b"payload");
        assert_eq!(idx.verify("o1", b"payload"), Verdict::Verified);
        assert_eq!(idx.verify("o1", b"payloaD"), Verdict::Corrupt);
        assert_eq!(idx.verify("o2", b"payload"), Verdict::Unknown);

        idx.record("o1", b"new payload");
        assert_eq!(idx.verify("o1", b"payload"), Verdict::Corrupt);
        assert_eq!(idx.verify("o1", b"new payload"), Verdict::Verified);

        idx.forget("o1");
        assert_eq!(idx.verify("o1", b"new payload"), Verdict::Unknown);
        assert!(idx.is_empty());
    }

    #[test]
    fn single_bit_flip_is_caught() {
        let mut idx = IntegrityIndex::new();
        let data = vec![0xABu8; 4096];
        idx.record("frag", &data);
        let mut flipped = data.clone();
        flipped[2048] ^= 0x01;
        assert_eq!(idx.verify("frag", &flipped), Verdict::Corrupt);
        assert_eq!(idx.verify("frag", &data), Verdict::Verified);
    }

    #[test]
    fn empty_objects_verify_too() {
        let mut idx = IntegrityIndex::new();
        idx.record("empty", b"");
        assert_eq!(idx.verify("empty", b""), Verdict::Verified);
        assert_eq!(idx.verify("empty", b"x"), Verdict::Corrupt);
        assert_eq!(idx.len(), 1);
        assert!(idx.digest("empty").is_some());
    }
}
