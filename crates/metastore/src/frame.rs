//! A directory's flushed state as one `HYM3` frame — what a compaction
//! ships without walking a single entry.
//!
//! [`Frame`] holds the full block of a directory's entries as of its
//! last flush, header included: the frame a compaction ships is this
//! one with the version and entry count rewritten and the checksum
//! resealed. A flush edits it entry by entry through an [`Editor`]: an
//! encoding of the same length is overwritten where it lies, any other
//! change (an insert, a removal, a longer or shorter encoding) is
//! spliced in, moving the bytes after it in place.
//!
//! The frame also remembers where it differs from the block it last
//! shipped, so that whoever keeps a digest of those bytes re-hashes only
//! what changed ([`BlockDelta`]): the header, every entry overwritten in
//! place, and — since a splice moves every byte after it — everything
//! from the first splice on.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use crate::codec;
use crate::inode::Inode;
use crate::path::NormPath;

/// Where a full block differs from the full block shipped before it
/// under the same object name: every byte of the new block that may
/// differ from the old block's byte at the same offset lies in one of
/// `ranges`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDelta {
    /// Length of the previous block.
    pub base_len: usize,
    /// Byte ranges of the new block, ascending by start and disjoint.
    pub ranges: Vec<Range<usize>>,
}

/// What changed in a frame since it last shipped.
#[derive(Debug, Default)]
struct Edits {
    /// Length of the frame when it shipped.
    shipped_len: usize,
    /// Entries overwritten in place, each once; those that do not end at
    /// or below `moved_from` are stale.
    overwritten: Vec<Range<usize>>,
    /// Offset of the first splice: every byte from here on may have
    /// moved. `usize::MAX` while nothing was spliced.
    moved_from: usize,
}

/// One directory's last flushed full block (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Header, directory, version, entry count, then each entry's
    /// encoding in name order. The version, the count and the checksum
    /// are those of the last shipped block, rewritten by [`Frame::ship`].
    /// Empty before the directory's first flush.
    bytes: Vec<u8>,
    /// Offset of each entry in `bytes`, in name order.
    offsets: Vec<usize>,
    /// Offset of the first entry, just past the entry count.
    body: usize,
    /// Changes since the frame last shipped; `None` when it was built
    /// from state rather than shipped, so no digest of it can be on
    /// record.
    edits: Option<Edits>,
    /// Where the block last shipped differs from the one shipped before
    /// it; `None` when it was the first since the frame was built. Its
    /// buffer is reused from one compaction to the next.
    delta: Option<BlockDelta>,
}

impl Frame {
    /// The frame of `files` at `version` — the one O(directory) step, at
    /// a directory's first flush and when its flush state is seeded.
    pub(crate) fn build(dir: &NormPath, version: u64, files: &BTreeMap<Arc<str>, Inode>) -> Frame {
        // Entries run ≈ 100 B plus the name; the headroom leaves room
        // for the splices of the flushes to come.
        let dir_len = dir.as_str().len();
        let mut bytes = Vec::with_capacity(codec::HEADER + 16 + dir_len + 128 * files.len());
        codec::begin_block(&mut bytes, dir, version, files.len());
        let body = bytes.len();
        let mut offsets = Vec::with_capacity(files.len());
        for (name, inode) in files {
            offsets.push(bytes.len());
            codec::encode_entry(&mut bytes, name, inode);
        }
        Frame { bytes, offsets, body, edits: None, delta: None }
    }

    /// Number of entries.
    pub(crate) fn entries(&self) -> usize {
        self.offsets.len()
    }

    /// An editor for one flush's changes, which must come in ascending
    /// name order.
    pub(crate) fn editor(&mut self) -> Editor<'_> {
        Editor { frame: self, next: 0, shift: 0 }
    }

    /// The block to ship at `version`: the version and entry count are
    /// rewritten, the checksum resealed, and a copy of the frame comes
    /// out; [`Frame::delta`] says where it differs from the block shipped
    /// before it. From here on the frame counts changes against this
    /// block.
    pub(crate) fn ship(&mut self, version: u64) -> Vec<u8> {
        let count_at = self.body - 4;
        self.bytes[count_at - 8..count_at].copy_from_slice(&version.to_le_bytes());
        self.bytes[count_at..self.body].copy_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        codec::seal(&mut self.bytes);
        let len = self.bytes.len();
        let mut ranges = self.delta.take().map(|delta| delta.ranges).unwrap_or_default();
        ranges.clear();
        if let Some(edits) = &mut self.edits {
            ranges.reserve(edits.overwritten.len() + 2);
            ranges.push(0..self.body);
            // An overwrite at or past the first splice may have moved
            // since; the last range covers it.
            let moved_from = edits.moved_from;
            edits.overwritten.sort_unstable_by_key(|r| r.start);
            ranges.extend(edits.overwritten.drain(..).filter(|r| r.end <= moved_from));
            if moved_from < len {
                ranges.push(moved_from..len);
            }
            self.delta = Some(BlockDelta { base_len: edits.shipped_len, ranges });
        }
        let edits = self.edits.get_or_insert_with(Edits::default);
        edits.shipped_len = len;
        edits.moved_from = usize::MAX;
        self.bytes.clone()
    }

    /// Where the block last shipped differs from the one shipped before
    /// it (see [`BlockDelta`]); `None` when no block went before since
    /// the frame was built.
    pub(crate) fn delta(&self) -> Option<&BlockDelta> {
        self.delta.as_ref()
    }
}

/// The name of the entry encoded at `at`.
fn name_at(bytes: &[u8], at: usize) -> &[u8] {
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    &bytes[at + 4..at + 4 + len]
}

/// Replaces `bytes[range]` with `new`, moving the tail once.
fn splice(bytes: &mut Vec<u8>, range: Range<usize>, new: &[u8]) {
    let (old_len, tail) = (bytes.len(), range.end);
    if new.len() > range.len() {
        bytes.resize(old_len + new.len() - range.len(), 0);
    }
    bytes.copy_within(tail..old_len, range.start + new.len());
    bytes.truncate(old_len + new.len() - range.len());
    bytes[range.start..range.start + new.len()].copy_from_slice(new);
}

/// One flush's edits to a [`Frame`]. The offsets of the entries after
/// the latest splice are brought up to date lazily — each one once,
/// when the next edit or the end of the flush passes it — so a flush
/// with k changes costs k lookups, k splices and one pass over the
/// offsets behind the first splice; one without a splice touches no
/// offset.
pub(crate) struct Editor<'a> {
    frame: &'a mut Frame,
    /// Entries before this index are at their final offsets; the offsets
    /// from it on are stale by `shift`.
    next: usize,
    shift: isize,
}

impl Editor<'_> {
    fn offset(&self, index: usize) -> usize {
        match self.frame.offsets.get(index) {
            Some(&at) => at.wrapping_add_signed(self.shift),
            None => self.frame.bytes.len(),
        }
    }

    /// Makes `name`'s entry encode as `entry` — absent for `None`.
    /// Names must come in strictly ascending order. Returns whether a
    /// byte of the frame changed.
    pub(crate) fn set(&mut self, name: &str, entry: Option<&[u8]>) -> bool {
        let Editor { frame, next, shift } = self;
        let found = frame.offsets[*next..].binary_search_by(|&at| {
            name_at(&frame.bytes, at.wrapping_add_signed(*shift)).cmp(name.as_bytes())
        });
        let (index, exists) = match found {
            Ok(i) => (*next + i, true),
            Err(i) => (*next + i, false),
        };
        if *shift != 0 {
            for at in &mut frame.offsets[*next..index] {
                *at = at.wrapping_add_signed(*shift);
            }
        }
        *next = index;
        let start = self.offset(index);
        let end = if exists { self.offset(index + 1) } else { start };
        let new = entry.unwrap_or_default();
        let frame = &mut *self.frame;
        if exists {
            frame.offsets[index] = start;
            self.next += 1;
        }
        if frame.bytes[start..end] == *new {
            return false;
        }
        if new.len() == end - start {
            frame.bytes[start..end].copy_from_slice(new);
            if let Some(edits) = &mut frame.edits {
                if end <= edits.moved_from && !edits.overwritten.contains(&(start..end)) {
                    edits.overwritten.push(start..end);
                }
            }
            return true;
        }
        if let Some(edits) = &mut frame.edits {
            edits.moved_from = edits.moved_from.min(start);
        }
        splice(&mut frame.bytes, start..end, new);
        self.shift += new.len() as isize - (end - start) as isize;
        match (exists, entry.is_some()) {
            (true, false) => {
                frame.offsets.remove(index);
                self.next -= 1;
            }
            (false, true) => {
                frame.offsets.insert(index, start);
                self.next += 1;
            }
            _ => {}
        }
        true
    }
}

impl Drop for Editor<'_> {
    fn drop(&mut self) {
        let shift = self.shift;
        if shift != 0 {
            for at in &mut self.frame.offsets[self.next..] {
                *at = at.wrapping_add_signed(shift);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::codec::MetadataBlock;
    use crate::inode::{FileId, Placement};
    use hyrd_gcsapi::ProviderId;

    fn inode(id: u64, object: &str) -> Inode {
        let mut inode = Inode::new(FileId(id), id * 10, Duration::from_secs(id));
        if !object.is_empty() {
            inode.placement =
                Placement::Replicated { providers: vec![ProviderId(1)], object: object.into() };
        }
        inode
    }

    fn encoded(name: &str, inode: &Inode) -> Vec<u8> {
        let mut out = Vec::new();
        codec::encode_entry(&mut out, name, inode);
        out
    }

    /// Every edit shape — overwrite, grow, shrink, insert at either end
    /// and between, remove — leaves the frame `encode_block` makes of
    /// the edited table, and the delta covers every byte that differs.
    #[test]
    fn edits_keep_the_frame_the_encoding_of_the_table() {
        let dir = NormPath::parse("/d").unwrap();
        let mut files: BTreeMap<Arc<str>, Inode> = BTreeMap::new();
        for (i, name) in ["b", "d", "f", "h"].into_iter().enumerate() {
            files.insert(name.into(), inode(i as u64, "obj"));
        }
        let mut frame = Frame::build(&dir, 3, &files);
        let first = frame.ship(3);
        assert_eq!(frame.delta(), None, "a built frame was never shipped");
        let block = |files: &BTreeMap<Arc<str>, Inode>, version| {
            let entries = files.iter().map(|(n, i)| (n.to_string(), i.clone())).collect();
            MetadataBlock { dir: dir.clone(), version, entries }.to_bytes()
        };
        assert_eq!(first, block(&files, 3));

        let rounds: [&[(&str, Option<&str>)]; 4] = [
            &[("d", Some("obj2"))],
            &[("a", Some("x")), ("d", Some("longer-object")), ("f", None), ("z", Some(""))],
            &[("b", None), ("c", Some("c")), ("h", Some("obj9")), ("z", None)],
            &[("a", None), ("c", None), ("d", None), ("h", None), ("q", None)],
        ];
        let mut previous = first;
        for (version, round) in (4..).zip(rounds) {
            let mut editor = frame.editor();
            for &(name, object) in round {
                let entry = object.map(|o| inode(name.len() as u64 + 7, o));
                let enc = entry.as_ref().map(|i| encoded(name, i));
                let changed = editor.set(name, enc.as_deref());
                let before = match &entry {
                    Some(i) => files.insert(name.into(), i.clone()),
                    None => files.remove(name),
                };
                assert_eq!(changed, before != entry, "{name} in round {version}");
            }
            drop(editor);
            let shipped = frame.ship(version);
            assert_eq!(shipped, block(&files, version), "round {version}");
            let delta = frame.delta().expect("shipped before");
            assert_eq!(delta.base_len, previous.len());
            assert!(delta.ranges.windows(2).all(|w| w[0].end <= w[1].start), "{delta:?}");
            for (at, byte) in shipped.iter().enumerate() {
                if previous.get(at) != Some(byte) {
                    assert!(delta.ranges.iter().any(|r| r.contains(&at)), "byte {at} uncovered");
                }
            }
            previous = shipped;
        }
    }
}
