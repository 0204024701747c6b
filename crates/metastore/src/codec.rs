//! The metadata block and its `HYM3` wire format — the flush hot path.
//!
//! The replication unit is the **metadata block**: one record per
//! directory holding that directory's file entries and their inodes
//! ("groups the metadata in a directory together to exploit the access
//! locality", §III-C). It ships as a compact fixed-layout little-endian
//! framing, and that framing is the only encoding this crate reads or
//! writes.
//!
//! The frame carries a [`frame_checksum`] over everything after the
//! 12-byte header, so a **torn block** — a write truncated or
//! bit-flipped by a crash or fault mid-flush — fails validation
//! deterministically instead of decoding into garbage (the reader's
//! length framing alone already catches most truncations; the checksum
//! closes the rest, including bit flips and torn tails that happen to
//! land on a frame boundary). A change confined to one 8-byte word of
//! the checksummed bytes always fails it.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! block   := MAGIC("HYM3") checksum:u64 dir:str version:u64 body
//! body    := count:u32 entry*
//! entry   := name:str inode
//! inode   := id:u64 size:u64 version:u64 created:time modified:time place
//! time    := secs:u64 nanos:u32                    (nanos < 10^9)
//! place   := 0x00
//!          | 0x01 providers:u32 provider:u16* object:str
//!          | 0x02 object_len:u64 m:u32 n:u32 shard_len:u64
//!                 frags:u32 (provider:u16 object:str)* hot:u8 (provider:u16 object:str)?
//! str     := len:u32 utf8*
//! checksum := frame_checksum of every byte after the checksum field
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use hyrd_gcsapi::ProviderId;
use hyrd_gfec::FragmentLayout;

use crate::inode::{FileId, Inode, Placement};
use crate::path::NormPath;
use crate::{MetaError, Result};

/// Leading bytes of a binary-encoded block.
pub const MAGIC: &[u8; 4] = b"HYM3";

/// Bytes before the checksummed part of a frame: the magic and the
/// checksum itself.
pub(crate) const HEADER: usize = 12;

/// One directory's replicable metadata record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataBlock {
    /// The directory this block describes.
    pub dir: NormPath,
    /// Block version (max inode version inside, plus structural bumps).
    pub version: u64,
    /// File entries: name → inode.
    pub entries: BTreeMap<String, Inode>,
}

impl MetadataBlock {
    /// Serializes to the `HYM3` frame the dispatcher ships to providers.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_block(self)
    }

    /// Parses a block fetched from a provider. Anything that is not an
    /// intact `HYM3` frame — wrong magic, torn, bit-flipped — is a
    /// [`MetaError::CorruptBlock`], never garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        decode_block(bytes)
    }

    /// The object name this block is stored under on every replica.
    pub fn object_name(dir: &NormPath) -> Arc<str> {
        flat_name("meta:", dir, None)
    }
}

/// `prefix` + `dir` with its slashes encoded, so the path is a legal flat
/// object name, then `:version` where one is given — made in one
/// allocation, the shared string itself: the name is assembled on the
/// stack and copied once (a name longer than the stack buffer is built
/// in a `String` first).
pub(crate) fn flat_name(prefix: &str, dir: &NormPath, version: Option<u64>) -> Arc<str> {
    use std::io::Write;
    // A `/` is one byte that no multi-byte UTF-8 sequence contains, so
    // rewriting it byte by byte keeps the string valid.
    let flat = |b: u8| if b == b'/' { 1 } else { b };
    let (prefix, dir) = (prefix.as_bytes(), dir.as_str().as_bytes());
    let mut buf = [0u8; 160];
    let path_end = prefix.len() + dir.len();
    if let Some(mut rest) = buf.get_mut(path_end..) {
        let room = rest.len();
        if version.is_none_or(|version| write!(rest, ":{version}").is_ok()) {
            let end = path_end + room - rest.len();
            let (head, tail) = buf.split_at_mut(prefix.len());
            head.copy_from_slice(prefix);
            tail.iter_mut().zip(dir).for_each(|(out, &b)| *out = flat(b));
            return Arc::from(std::str::from_utf8(&buf[..end]).expect("UTF-8 in, UTF-8 out"));
        }
    }
    let mut name: Vec<u8> = prefix.iter().copied().chain(dir.iter().map(|&b| flat(b))).collect();
    if let Some(version) = version {
        write!(name, ":{version}").expect("writing to a Vec");
    }
    Arc::from(String::from_utf8(name).expect("UTF-8 in, UTF-8 out"))
}

/// The multiplier of every checksum step. Odd, so multiplying by it is a
/// bijection of `u64`.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The checksum of `HYM3` blocks and `HYD2` diffs, over every byte after
/// the header.
///
/// Four independent 64-bit lanes take the little-endian words in turn —
/// word `i` goes to lane `i % 4` — each step
/// `lane = ((lane ^ word) * K).rotate_left(31)`; the short tail is
/// zero-padded into one last step of all four. The lanes then fold, in
/// order, into a state seeded with the byte count, each fold
/// `h = mix(h ^ lane)`.
///
/// Every step is a bijection of the value it updates (XOR with a word,
/// multiplying by an odd constant, a rotation, [`mix`]), so a change
/// confined to one 8-byte word changes its lane's final value and hence
/// the checksum: such a change **always** fails validation, where
/// byte-serial FNV-1a guaranteed that for one byte. The rotation is there
/// because a product's high bits never reach its low ones: without it,
/// flipping the same top bit of two words of one lane would cancel out.
/// Not a MAC — whoever can change a frame can recompute its checksum.
///
/// Public so that tests can reseal a frame they tampered with.
#[doc(hidden)]
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut groups = bytes.chunks_exact(32);
    for group in &mut groups {
        absorb(&mut lanes, group.try_into().expect("32-byte group"));
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 32];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &last);
    }
    lanes.into_iter().fold(bytes.len() as u64, |h, lane| mix(h ^ lane))
}

/// One step of every lane, over four consecutive words.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], group: &[u8; 32]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let word = u64::from_le_bytes(group[8 * i..8 * i + 8].try_into().expect("8-byte word"));
        *lane = (*lane ^ word).wrapping_mul(K).rotate_left(31);
    }
}

/// A bijective mixer: multiply, then fold the high half down.
#[inline(always)]
fn mix(h: u64) -> u64 {
    let h = h.wrapping_mul(K);
    h ^ (h >> 32)
}

/// Starts an `HYM3` frame in `out` (empty): the header, with the checksum
/// left for [`seal`], then the directory, the version and the entry
/// count. The caller appends exactly `count` entry encodings.
pub(crate) fn begin_block(out: &mut Vec<u8>, dir: &NormPath, version: u64, count: usize) {
    debug_assert!(out.is_empty());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[0u8; 8]); // checksum, patched by `seal`
    put_str(out, dir.as_str());
    put_u64(out, version);
    put_u32(out, count as u32);
}

/// Patches a finished frame's checksum into its header.
pub(crate) fn seal(frame: &mut [u8]) {
    let checksum = frame_checksum(&frame[HEADER..]);
    frame[4..HEADER].copy_from_slice(&checksum.to_le_bytes());
}

/// Encodes one `name → inode` entry exactly as it appears inside a block
/// body — the unit the diff codec reuses so a diff's upsert bytes equal
/// the bytes the same entry would occupy in a full block.
pub(crate) fn encode_entry(out: &mut Vec<u8>, name: &str, inode: &Inode) {
    put_str(out, name);
    put_inode(out, inode);
}

/// Encodes a whole block.
pub fn encode_block(block: &MetadataBlock) -> Vec<u8> {
    // Entries dominate: ~90 bytes each plus names; headroom avoids
    // doubling mid-encode.
    let dir = block.dir.as_str();
    let mut out = Vec::with_capacity(HEADER + 16 + dir.len() + block.entries.len() * 128);
    begin_block(&mut out, &block.dir, block.version, block.entries.len());
    for (name, inode) in &block.entries {
        encode_entry(&mut out, name, inode);
    }
    seal(&mut out);
    out
}

/// Decodes a checksum-validated `HYM3` block.
pub fn decode_block(bytes: &[u8]) -> Result<MetadataBlock> {
    if !bytes.starts_with(MAGIC) {
        return Err(MetaError::CorruptBlock("bad magic".to_string()));
    }
    let mut r = Reader { bytes, pos: MAGIC.len() };
    let stored = r.u64()?;
    let computed = frame_checksum(&bytes[HEADER..]);
    if stored != computed {
        return Err(MetaError::CorruptBlock(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let dir = NormPath::parse(r.str()?).map_err(|e| MetaError::CorruptBlock(e.to_string()))?;
    let version = r.u64()?;
    let count = r.u32()? as usize;
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let name = r.str()?.to_string();
        let inode = r.inode()?;
        entries.insert(name, inode);
    }
    if r.pos != bytes.len() {
        return Err(MetaError::CorruptBlock(format!(
            "{} trailing bytes after block",
            bytes.len() - r.pos
        )));
    }
    Ok(MetadataBlock { dir, version, entries })
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_time(out: &mut Vec<u8>, t: Duration) {
    put_u64(out, t.as_secs());
    put_u32(out, t.subsec_nanos());
}

fn put_inode(out: &mut Vec<u8>, inode: &Inode) {
    put_u64(out, inode.id.0);
    put_u64(out, inode.size);
    put_u64(out, inode.version);
    put_time(out, inode.created);
    put_time(out, inode.modified);
    match &inode.placement {
        Placement::Pending => out.push(0),
        Placement::Replicated { providers, object } => {
            out.push(1);
            put_u32(out, providers.len() as u32);
            for p in providers {
                out.extend_from_slice(&p.0.to_le_bytes());
            }
            put_str(out, object);
        }
        Placement::ErasureCoded { layout, fragments, hot_copy } => {
            out.push(2);
            put_u64(out, layout.object_len as u64);
            put_u32(out, layout.m as u32);
            put_u32(out, layout.n as u32);
            put_u64(out, layout.shard_len as u64);
            put_u32(out, fragments.len() as u32);
            for (p, object) in fragments {
                out.extend_from_slice(&p.0.to_le_bytes());
                put_str(out, object);
            }
            match hot_copy {
                None => out.push(0),
                Some((p, object)) => {
                    out.push(1);
                    out.extend_from_slice(&p.0.to_le_bytes());
                    put_str(out, object);
                }
            }
        }
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(MetaError::CorruptBlock("truncated block".to_string()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| MetaError::CorruptBlock(format!("bad utf8: {e}")))
    }

    fn time(&mut self) -> Result<Duration> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        // `Duration::new` panics when the nanosecond carry overflows
        // `secs`; canonical encodings never carry at all.
        if nanos >= 1_000_000_000 {
            return Err(MetaError::CorruptBlock(format!("timestamp nanos {nanos} out of range")));
        }
        Ok(Duration::new(secs, nanos))
    }

    fn provider(&mut self) -> Result<ProviderId> {
        Ok(ProviderId(self.u16()?))
    }

    pub(crate) fn inode(&mut self) -> Result<Inode> {
        let id = FileId(self.u64()?);
        let size = self.u64()?;
        let version = self.u64()?;
        let created = self.time()?;
        let modified = self.time()?;
        let placement = match self.take(1)?[0] {
            0 => Placement::Pending,
            1 => {
                let n = self.u32()? as usize;
                let mut providers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    providers.push(self.provider()?);
                }
                let object = Arc::from(self.str()?);
                Placement::Replicated { providers, object }
            }
            2 => {
                let layout = FragmentLayout {
                    object_len: self.u64()? as usize,
                    m: self.u32()? as usize,
                    n: self.u32()? as usize,
                    shard_len: self.u64()? as usize,
                };
                let nf = self.u32()? as usize;
                let mut fragments = Vec::with_capacity(nf.min(1024));
                for _ in 0..nf {
                    let p = self.provider()?;
                    fragments.push((p, Arc::from(self.str()?)));
                }
                let hot_copy = match self.take(1)?[0] {
                    0 => None,
                    1 => {
                        let p = self.provider()?;
                        Some((p, Arc::from(self.str()?)))
                    }
                    t => {
                        return Err(MetaError::CorruptBlock(format!("bad hot-copy tag {t}")));
                    }
                };
                Placement::ErasureCoded { layout, fragments, hot_copy }
            }
            t => return Err(MetaError::CorruptBlock(format!("bad placement tag {t}"))),
        };
        Ok(Inode { id, size, placement, version, created, modified })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NormPath {
        NormPath::parse(s).unwrap()
    }

    fn sample_block() -> MetadataBlock {
        let mut entries = BTreeMap::new();
        let mut a = Inode::new(FileId(3), 1234, Duration::from_millis(1500));
        a.placement = Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId(2)],
            object: "obj-a".into(),
        };
        a.touch(Duration::from_millis(2750));
        entries.insert("a.txt".to_string(), a);
        let mut b = Inode::new(FileId(9), 4 << 20, Duration::from_secs(40));
        b.placement = Placement::ErasureCoded {
            layout: FragmentLayout { object_len: 4 << 20, m: 3, n: 5, shard_len: 1398112 },
            fragments: (0..5).map(|i| (ProviderId(i), format!("frag{i}").into())).collect(),
            hot_copy: Some((ProviderId(1), "hot".into())),
        };
        entries.insert("b.bin".to_string(), b);
        entries.insert("pending".to_string(), Inode::new(FileId(11), 0, Duration::ZERO));
        MetadataBlock { dir: p("/docs/deep"), version: 7, entries }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let block = sample_block();
        let bytes = encode_block(&block);
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(decode_block(&bytes).unwrap(), block);
    }

    #[test]
    fn every_truncation_of_a_checksummed_block_is_caught() {
        let bytes = encode_block(&sample_block());
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_block(&bytes[..cut]), Err(MetaError::CorruptBlock(_))),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let bytes = encode_block(&sample_block());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(
                matches!(decode_block(&flipped), Err(MetaError::CorruptBlock(_))),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn empty_directory_roundtrips() {
        let block = MetadataBlock { dir: NormPath::root(), version: 0, entries: BTreeMap::new() };
        assert_eq!(decode_block(&encode_block(&block)).unwrap(), block);
    }

    #[test]
    fn truncation_and_garbage_are_corrupt_errors() {
        let bytes = encode_block(&sample_block());
        for cut in [0, 3, 4, 10, bytes.len() - 1] {
            assert!(
                matches!(decode_block(&bytes[..cut]), Err(MetaError::CorruptBlock(_))),
                "cut={cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode_block(&trailing), Err(MetaError::CorruptBlock(_))));
        assert!(matches!(decode_block(MAGIC), Err(MetaError::CorruptBlock(_))));
    }

    /// The current magic only: `HYM1` and `HYM2` (the FNV-1a-checked
    /// format) included.
    #[test]
    fn anything_but_the_hym3_magic_is_bad_magic() {
        let (mut hym1, mut hym2) = (encode_block(&sample_block()), encode_block(&sample_block()));
        hym1[3] = b'1';
        hym2[3] = b'2';
        for bytes in [&hym1[..], &hym2[..], b"", b"HYM", b"not a block", br#"{"dir":"/"}"#] {
            assert_eq!(
                MetadataBlock::from_bytes(bytes),
                Err(MetaError::CorruptBlock("bad magic".to_string()))
            );
        }
    }

    /// Re-checksums a frame after tampering — what a hostile provider
    /// can do, since the checksum is not a MAC.
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        seal(&mut frame);
        frame
    }

    #[test]
    fn overflowing_timestamp_is_corrupt_not_a_panic() {
        // The largest canonical timestamp decodes; one more nanosecond
        // would carry out of `secs` inside `Duration::new`.
        let latest = Duration::new(u64::MAX, 999_999_999);
        let inode = Inode::new(FileId(1), 1, latest);
        let block = MetadataBlock {
            dir: p("/d"),
            version: 1,
            entries: BTreeMap::from([("f".to_string(), inode.clone())]),
        };
        let diff = crate::diff::DiffBlock {
            dir: p("/d"),
            base: 1,
            version: 2,
            ops: vec![crate::diff::EntryOp::Upsert("f".to_string(), inode)],
        };
        assert_eq!(MetadataBlock::from_bytes(&block.to_bytes()).unwrap(), block);

        let mut needle = [0xFFu8; 12];
        needle[8..].copy_from_slice(&999_999_999u32.to_le_bytes());
        let overflow = |mut frame: Vec<u8>| {
            let at = frame.windows(12).position(|w| w == needle).expect("created timestamp");
            frame[at + 8..at + 12].copy_from_slice(&1_000_000_000u32.to_le_bytes());
            reseal(frame)
        };
        assert!(matches!(
            MetadataBlock::from_bytes(&overflow(block.to_bytes())),
            Err(MetaError::CorruptBlock(_))
        ));
        assert!(matches!(
            crate::diff::DiffBlock::from_bytes(&overflow(diff.to_bytes())),
            Err(MetaError::CorruptBlock(_))
        ));
    }

    #[test]
    fn object_names_are_flat_and_unique() {
        let a = MetadataBlock::object_name(&p("/a/b"));
        let b = MetadataBlock::object_name(&p("/a"));
        let r = MetadataBlock::object_name(&NormPath::root());
        assert_ne!(a, b);
        assert_ne!(b, r);
        assert!(!a.contains('/'));
        assert_eq!(&*a, "meta:\u{1}a\u{1}b");
        assert_eq!(&*r, "meta:\u{1}");
        // Past the stack buffer, the same bytes.
        let long = format!("/{}/ü", "d".repeat(300));
        let name = MetadataBlock::object_name(&p(&long));
        assert_eq!(*name, format!("meta:\u{1}{}\u{1}ü", "d".repeat(300)));
        let diff = crate::DiffBlock::object_name(&p(&long), 17);
        assert!(diff.ends_with(&format!("\u{1}{}\u{1}ü:17", "d".repeat(300))));
    }

    /// A frame assembled the way a directory's flushed frame is built —
    /// the header, then entry encodings one by one, then the checksum
    /// patched in — is the frame `encode_block` makes.
    #[test]
    fn assemble_matches_encode() {
        let block = sample_block();
        let cached: Vec<Vec<u8>> = block
            .entries
            .iter()
            .map(|(name, inode)| {
                let mut enc = Vec::new();
                encode_entry(&mut enc, name, inode);
                enc
            })
            .collect();
        let mut frame = Vec::new();
        begin_block(&mut frame, &block.dir, block.version, cached.len());
        cached.iter().for_each(|enc| frame.extend_from_slice(enc));
        seal(&mut frame);
        assert_eq!(frame, encode_block(&block));
    }

    /// Zero bytes appended change only the length the fold is seeded
    /// with, and the same top bit flipped in two words of one lane (32
    /// bytes apart) — which a multiply alone would carry unchanged to the
    /// lane's end, cancelling — is caught.
    #[test]
    fn the_checksum_sees_the_length_and_high_bits() {
        let zeros = [0u8; 70];
        let sums: Vec<u64> = (0..=zeros.len()).map(|n| frame_checksum(&zeros[..n])).collect();
        for (i, sum) in sums.iter().enumerate() {
            assert!(!sums[i + 1..].contains(sum), "{i} zero bytes collide with more");
        }
        let mut both = zeros;
        both[7] ^= 0x80;
        both[39] ^= 0x80;
        assert_ne!(frame_checksum(&both), frame_checksum(&zeros));
    }
}
