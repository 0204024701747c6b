//! Incremental metadata **state diffs** — the `HYD2` wire frame.
//!
//! A full metadata block re-encodes every entry in a directory on every
//! flush; at many-writer scale that is quadratic in directory size. A
//! diff ships only what changed since the previous flush: typed
//! upsert/remove records against a named base version. Chains of diffs
//! are periodically folded back into a full block by compaction (see
//! [`crate::ShardedMetaStore`]), and the restart path reconstructs the
//! directory state from the highest intact full block plus every intact
//! diff that links onto it ([`resolve_chain`]).
//!
//! The frame extends the block codec's `HYM3` convention: the same
//! [`codec::frame_checksum`] over everything after the 12-byte header,
//! so a **torn diff** — truncated or bit-flipped mid-flush — fails
//! validation deterministically and the reader falls back to the last
//! full block (dropping the torn suffix of the chain) instead of
//! decoding garbage.
//!
//! Layout (all integers little-endian, `str`/`inode` as in HYM3):
//!
//! ```text
//! diff := MAGIC("HYD2") checksum:u64 dir:str base:u64 version:u64
//!         count:u32 op*
//! op   := 0x00 name:str inode     (upsert: create or update)
//!       | 0x01 name:str           (remove)
//! ```

use std::sync::Arc;

use crate::codec::{self, MetadataBlock};
use crate::inode::Inode;
use crate::path::NormPath;
use crate::{MetaError, Result};

/// Leading bytes of a binary-encoded metadata diff.
pub const DIFF_MAGIC: &[u8; 4] = b"HYD2";

/// Object-name prefix for diff objects (`metad:<dir>:<version>`).
pub const DIFF_PREFIX: &str = "metad:";

/// One typed change to a directory's entry table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryOp {
    /// Create or update `name` with the given inode.
    Upsert(String, Inode),
    /// Remove `name`.
    Remove(String),
}

impl EntryOp {
    /// The entry name the op applies to.
    pub fn name(&self) -> &str {
        match self {
            EntryOp::Upsert(name, _) | EntryOp::Remove(name) => name,
        }
    }
}

/// Wire tag of an upsert op; the entry encoding follows.
pub(crate) const OP_UPSERT: u8 = 0;
/// Wire tag of a remove op; the name follows.
pub(crate) const OP_REMOVE: u8 = 1;

/// Starts a `HYD2` frame in `out` (empty): the header, with the checksum
/// and the op count left for [`end_diff`]. The caller appends the ops
/// straight after it — the flush path writes each changed entry's
/// encoding once, into the buffer that ships.
pub(crate) fn begin_diff(out: &mut Vec<u8>, dir: &NormPath, base: u64, version: u64) {
    debug_assert!(out.is_empty());
    out.extend_from_slice(DIFF_MAGIC);
    out.extend_from_slice(&[0u8; 8]); // checksum, patched by `end_diff`
    codec::put_str(out, dir.as_str());
    codec::put_u64(out, base);
    codec::put_u64(out, version);
    codec::put_u32(out, 0); // op count, patched by `end_diff`
}

/// Completes a frame [`begin_diff`] started and `count` ops followed.
pub(crate) fn end_diff(out: &mut [u8], count: usize) {
    // The count sits right after the directory, base and version.
    let dir_len = u32::from_le_bytes(out[12..16].try_into().expect("4 bytes")) as usize;
    let at = 16 + dir_len + 16;
    out[at..at + 4].copy_from_slice(&(count as u32).to_le_bytes());
    codec::seal(out);
}

/// A directory's changes between flushed versions `base` → `version`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffBlock {
    /// The directory this diff describes.
    pub dir: NormPath,
    /// The flushed version this diff applies on top of.
    pub base: u64,
    /// The flushed version the directory reaches after applying it.
    pub version: u64,
    /// The changes, in sorted name order.
    pub ops: Vec<EntryOp>,
}

impl DiffBlock {
    /// The object name a diff at `version` for `dir` is stored under.
    /// Unlike full blocks (one object per directory, overwritten in
    /// place), every diff version is its own object — the chain must
    /// stay individually addressable for restart to walk it.
    pub fn object_name(dir: &NormPath, version: u64) -> Arc<str> {
        codec::flat_name(DIFF_PREFIX, dir, Some(version))
    }

    /// Whether a provider object name is a metadata diff.
    pub fn is_diff_object(name: &str) -> bool {
        name.starts_with(DIFF_PREFIX)
    }

    /// Serializes to the checksummed `HYD2` wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.ops.len() * 128);
        begin_diff(&mut out, &self.dir, self.base, self.version);
        for op in &self.ops {
            match op {
                EntryOp::Upsert(name, inode) => {
                    out.push(OP_UPSERT);
                    codec::encode_entry(&mut out, name, inode);
                }
                EntryOp::Remove(name) => {
                    out.push(OP_REMOVE);
                    codec::put_str(&mut out, name);
                }
            }
        }
        end_diff(&mut out, self.ops.len());
        out
    }

    /// Parses a diff fetched from a provider. A torn or bit-flipped
    /// frame fails the checksum/length validation with
    /// [`MetaError::CorruptBlock`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = codec::Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != DIFF_MAGIC {
            return Err(MetaError::CorruptBlock("bad diff magic".to_string()));
        }
        let stored = r.u64()?;
        let computed = codec::frame_checksum(&bytes[codec::HEADER..]);
        if stored != computed {
            return Err(MetaError::CorruptBlock(format!(
                "diff checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let dir = NormPath::parse(r.str()?).map_err(|e| MetaError::CorruptBlock(e.to_string()))?;
        let base = r.u64()?;
        let version = r.u64()?;
        if version <= base {
            return Err(MetaError::CorruptBlock(format!(
                "diff version {version} does not advance base {base}"
            )));
        }
        let count = r.u32()? as usize;
        let mut ops = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            match r.take(1)?[0] {
                OP_UPSERT => {
                    let name = r.str()?.to_string();
                    let inode = r.inode()?;
                    ops.push(EntryOp::Upsert(name, inode));
                }
                OP_REMOVE => ops.push(EntryOp::Remove(r.str()?.to_string())),
                t => return Err(MetaError::CorruptBlock(format!("bad diff op tag {t}"))),
            }
        }
        if r.pos != bytes.len() {
            return Err(MetaError::CorruptBlock(format!(
                "{} trailing bytes after diff",
                bytes.len() - r.pos
            )));
        }
        Ok(DiffBlock { dir, base, version, ops })
    }
}

/// The outcome of folding a diff chain onto a base block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainResolution {
    /// The reconstructed directory state: the base with every linking
    /// diff applied, at the version of the last applied diff.
    pub block: MetadataBlock,
    /// Object names of the diffs applied, in version order — the live
    /// chain a reader that keeps the diffs on the providers must record.
    pub applied: Vec<Arc<str>>,
    /// Diffs ignored: superseded by the base version, duplicates, or
    /// stranded past a gap/torn link in the chain.
    pub stale: usize,
}

/// Folds `diffs` onto `base`: sorts by version, drops anything at or
/// below the base version, then applies diffs as long as each one's
/// `base` equals the version reached so far. A gap — a lost or torn
/// diff in the middle — stops the walk there, so the result is always a
/// consistent prefix of the chain (the durability model treats the
/// unreachable suffix like any torn block: the journal re-drives the
/// operations that produced it).
pub fn resolve_chain(base: MetadataBlock, mut diffs: Vec<DiffBlock>) -> ChainResolution {
    diffs.sort_by_key(|d| d.version);
    let mut block = base;
    let mut applied = Vec::new();
    let mut stale = 0;
    for diff in diffs {
        // The one place the "diff links onto version" rule is written.
        if diff.version <= block.version || diff.base != block.version {
            stale += 1;
            continue;
        }
        for op in diff.ops {
            match op {
                EntryOp::Upsert(name, inode) => {
                    block.entries.insert(name, inode);
                }
                EntryOp::Remove(name) => {
                    block.entries.remove(&name);
                }
            }
        }
        block.version = diff.version;
        applied.push(DiffBlock::object_name(&diff.dir, diff.version));
    }
    ChainResolution { block, applied, stale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::{FileId, Placement};
    use hyrd_gcsapi::ProviderId;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn p(s: &str) -> NormPath {
        NormPath::parse(s).unwrap()
    }

    fn inode(id: u64, size: u64, version: u64) -> Inode {
        let mut i = Inode::new(FileId(id), size, Duration::from_secs(id));
        i.version = version;
        i.placement = Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId(1)],
            object: format!("o{id}").into(),
        };
        i
    }

    fn sample_diff() -> DiffBlock {
        DiffBlock {
            dir: p("/docs/deep"),
            base: 4,
            version: 5,
            ops: vec![
                EntryOp::Remove("gone.txt".into()),
                EntryOp::Upsert("new.bin".into(), inode(7, 4096, 2)),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let d = sample_diff();
        assert_eq!(DiffBlock::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn empty_diff_roundtrips() {
        let d = DiffBlock { dir: NormPath::root(), base: 0, version: 1, ops: vec![] };
        assert_eq!(DiffBlock::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn every_truncation_is_caught() {
        let bytes = sample_diff().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(DiffBlock::from_bytes(&bytes[..cut]), Err(MetaError::CorruptBlock(_))),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let bytes = sample_diff().to_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(
                matches!(DiffBlock::from_bytes(&flipped), Err(MetaError::CorruptBlock(_))),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn block_bytes_are_not_a_diff() {
        let block = MetadataBlock { dir: p("/d"), version: 1, entries: BTreeMap::new() };
        assert!(DiffBlock::from_bytes(&block.to_bytes()).is_err());
    }

    #[test]
    fn object_names_are_flat_and_version_unique() {
        let a = DiffBlock::object_name(&p("/a/b"), 3);
        let b = DiffBlock::object_name(&p("/a/b"), 4);
        let c = DiffBlock::object_name(&p("/a"), 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(!a.contains('/'));
        assert!(DiffBlock::is_diff_object(&a));
        assert!(!DiffBlock::is_diff_object(&MetadataBlock::object_name(&p("/a/b"))));
    }

    #[test]
    fn resolve_chain_applies_linked_diffs_in_order() {
        let mut entries = BTreeMap::new();
        entries.insert("a".to_string(), inode(1, 10, 0));
        entries.insert("b".to_string(), inode(2, 20, 0));
        let base = MetadataBlock { dir: p("/d"), version: 3, entries };
        let diffs = vec![
            DiffBlock {
                dir: p("/d"),
                base: 4,
                version: 5,
                ops: vec![EntryOp::Upsert("c".into(), inode(3, 30, 1))],
            },
            DiffBlock { dir: p("/d"), base: 3, version: 4, ops: vec![EntryOp::Remove("b".into())] },
        ];
        let r = resolve_chain(base, diffs);
        assert_eq!(
            r.applied,
            [DiffBlock::object_name(&p("/d"), 4), DiffBlock::object_name(&p("/d"), 5)]
        );
        assert_eq!(r.stale, 0);
        assert_eq!(r.block.version, 5);
        assert_eq!(r.block.entries.keys().collect::<Vec<_>>(), vec!["a", "c"]);
    }

    #[test]
    fn a_gap_strands_the_chain_suffix() {
        let base = MetadataBlock { dir: p("/d"), version: 1, entries: BTreeMap::new() };
        let diffs = vec![
            DiffBlock {
                dir: p("/d"),
                base: 1,
                version: 2,
                ops: vec![EntryOp::Upsert("x".into(), inode(1, 1, 0))],
            },
            // version 3 lost/torn — version 4 cannot link.
            DiffBlock {
                dir: p("/d"),
                base: 3,
                version: 4,
                ops: vec![EntryOp::Upsert("y".into(), inode(2, 2, 0))],
            },
        ];
        let r = resolve_chain(base, diffs);
        assert_eq!((r.applied.len(), r.stale), (1, 1));
        assert_eq!(r.block.version, 2);
        assert!(r.block.entries.contains_key("x"));
        assert!(!r.block.entries.contains_key("y"));
    }

    #[test]
    fn stale_and_duplicate_diffs_are_ignored() {
        let base = MetadataBlock { dir: p("/d"), version: 5, entries: BTreeMap::new() };
        let fresh = DiffBlock {
            dir: p("/d"),
            base: 5,
            version: 6,
            ops: vec![EntryOp::Upsert("x".into(), inode(1, 1, 0))],
        };
        let diffs = vec![
            // Already folded into the base by an earlier compaction.
            DiffBlock { dir: p("/d"), base: 2, version: 3, ops: vec![EntryOp::Remove("x".into())] },
            fresh.clone(),
            fresh, // a duplicate replica of the same diff
        ];
        let r = resolve_chain(base, diffs);
        assert_eq!((r.applied.len(), r.stale), (1, 2));
        assert_eq!(r.block.version, 6);
        assert!(r.block.entries.contains_key("x"));
    }

    #[test]
    fn non_advancing_diff_is_corrupt() {
        let mut d = sample_diff();
        d.version = d.base;
        // Hand-assemble since to_bytes would happily frame it.
        let bytes = d.to_bytes();
        assert!(matches!(DiffBlock::from_bytes(&bytes), Err(MetaError::CorruptBlock(_))));
    }
}
