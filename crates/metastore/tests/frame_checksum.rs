//! What the `HYM3` / `HYD2` frame checksum guarantees, on random frames.
//!
//! Every one of these must fail with `CorruptBlock`: every single-byte
//! change at every offset, for several XOR masks; every change confined
//! to one 8-byte word of the checksummed bytes (the word grid starts
//! right after the 12-byte header); every truncation and a one-byte
//! extension; random damage to several bytes at once. Frames under the
//! old magics are bad magic, and one block and one diff are pinned byte
//! for byte, so that any later format change is a deliberate one.

use std::collections::BTreeMap;
use std::time::Duration;

use hyrd_testkit::{check, Gen};

use hyrd_gcsapi::ProviderId;
use hyrd_gfec::FragmentLayout;
use hyrd_metastore::codec::{frame_checksum, MAGIC};
use hyrd_metastore::diff::DIFF_MAGIC;
use hyrd_metastore::{
    DiffBlock, EntryOp, FileId, Inode, MetaError, MetadataBlock, NormPath, Placement,
};

/// The magic and the checksum: the bytes the checksum does not cover.
const HEADER: usize = 12;

fn inode(g: &mut Gen) -> Inode {
    let (id, size) = (g.u64(), g.range(0..1u64 << 40));
    let created = Duration::new(g.range(0..1u64 << 40), g.range(0..1_000_000_000u32));
    let mut inode = Inode::new(FileId(id), size, created);
    inode.version = g.u64();
    let n = g.range(1..6usize);
    let at = |i: usize| -> (ProviderId, std::sync::Arc<str>) {
        (ProviderId(i as u16), format!("o{id:x}.{i}").into())
    };
    inode.placement = match g.range(0..3u8) {
        0 => Placement::Pending,
        1 => Placement::Replicated {
            providers: (0..n).map(|i| at(i).0).collect(),
            object: format!("o{id:x}").into(),
        },
        _ => Placement::ErasureCoded {
            layout: FragmentLayout { object_len: size as usize, m: n, n: n + 1, shard_len: 64 * n },
            fragments: (0..=n).map(at).collect(),
            hot_copy: g.bool().then(|| at(n)),
        },
    };
    inode
}

fn dir(g: &mut Gen) -> NormPath {
    let depth = g.range(0..4usize);
    let path: String = (0..depth).map(|_| format!("/d{}", g.range(0..1000u32))).collect();
    NormPath::parse(if path.is_empty() { "/" } else { &path }).expect("well-formed")
}

/// A random `HYM3` block and a random `HYD2` diff, as frames.
fn frames(g: &mut Gen) -> (Vec<u8>, Vec<u8>) {
    let entries: BTreeMap<String, Inode> =
        g.vec(0..6, |g| (format!("f{}", g.range(0..100u32)), inode(g))).into_iter().collect();
    let block = MetadataBlock { dir: dir(g), version: g.u64(), entries };
    let ops = g.vec(0..6, |g| {
        let name = format!("f{}", g.range(0..100u32));
        if g.bool() {
            EntryOp::Upsert(name, inode(g))
        } else {
            EntryOp::Remove(name)
        }
    });
    let base = g.range(0..u64::MAX - 1);
    let diff = DiffBlock { dir: dir(g), base, version: base + 1, ops };
    (block.to_bytes(), diff.to_bytes())
}

/// Both decoders refuse `frame`: it is only ever one of the two kinds,
/// and neither may take it.
fn refused(frame: &[u8]) -> bool {
    matches!(MetadataBlock::from_bytes(frame), Err(MetaError::CorruptBlock(_)))
        && matches!(DiffBlock::from_bytes(frame), Err(MetaError::CorruptBlock(_)))
}

fn assert_guarantee(frame: &[u8], g: &mut Gen) {
    assert!(
        MetadataBlock::from_bytes(frame).is_ok() || DiffBlock::from_bytes(frame).is_ok(),
        "the intact frame decodes"
    );
    let random_mask = g.range(1..=255u8);
    for at in 0..frame.len() {
        for mask in [0x01, 0x80, 0xFF, random_mask] {
            let mut changed = frame.to_vec();
            changed[at] ^= mask;
            assert!(refused(&changed), "byte {at} ^ {mask:#04x} of {} decoded", frame.len());
        }
    }
    for word in (HEADER..frame.len()).step_by(8) {
        let end = (word + 8).min(frame.len());
        for _ in 0..4 {
            let mut changed = frame.to_vec();
            let mask = g.u64().to_le_bytes();
            changed[word..end].iter_mut().zip(mask).for_each(|(b, m)| *b ^= m);
            if changed != frame {
                assert!(refused(&changed), "word at {word} ^ {mask:02x?} decoded");
            }
        }
    }
    for cut in 0..frame.len() {
        assert!(refused(&frame[..cut]), "truncation to {cut} of {} decoded", frame.len());
    }
    for extra in [0x00, g.range(..)] {
        let mut longer = frame.to_vec();
        longer.push(extra);
        assert!(refused(&longer), "a trailing {extra:#04x} decoded");
    }
    for _ in 0..64 {
        let mut changed = frame.to_vec();
        for _ in 0..g.range(2..12usize) {
            let at = g.range(0..frame.len());
            changed[at] ^= g.range(1..=255u8);
        }
        if changed != frame {
            assert!(refused(&changed), "multi-byte damage decoded");
        }
    }
}

#[test]
fn every_confined_change_truncation_and_random_damage_is_refused() {
    check(
        24,
        |g| {
            let seed = g.u64();
            (frames(g), seed)
        },
        |((block, diff), seed)| {
            let mut g = Gen::new(seed, 100);
            assert_guarantee(&block, &mut g);
            assert_guarantee(&diff, &mut g);
        },
    );
}

/// `HYM2` / `HYD1`, the FNV-1a-checked format, and `HYM1` before it, are
/// not read at all — even with a valid FNV-1a checksum in the header.
#[test]
fn frames_under_the_old_magics_are_bad_magic() {
    let fnv = |bytes: &[u8]| {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    };
    let (block, diff) = frames(&mut Gen::new(7, 100));
    for (frame, old, current, error) in [
        (&block, &b"HYM2"[..], MAGIC, "bad magic"),
        (&block, b"HYM1", MAGIC, "bad magic"),
        (&diff, b"HYD1", DIFF_MAGIC, "bad diff magic"),
    ] {
        assert_eq!(&frame[..4], current);
        let mut older = frame.clone();
        older[..4].copy_from_slice(old);
        let sum = fnv(&older[HEADER..]);
        older[4..HEADER].copy_from_slice(&sum.to_le_bytes());
        let got = if current == MAGIC {
            MetadataBlock::from_bytes(&older).map(|_| ())
        } else {
            DiffBlock::from_bytes(&older).map(|_| ())
        };
        assert_eq!(got, Err(MetaError::CorruptBlock(error.to_string())));
    }
}

/// The checksum is the header's: recomputing it over a frame's body
/// reproduces bytes 4..12.
#[test]
fn the_header_holds_the_frame_checksum_of_the_body() {
    let (block, diff) = frames(&mut Gen::new(11, 100));
    for frame in [block, diff] {
        assert_eq!(frame[4..HEADER], frame_checksum(&frame[HEADER..]).to_le_bytes());
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_inode() -> Inode {
    let mut inode = Inode::new(FileId(42), 1_966_080, Duration::new(1_700_000_000, 5));
    inode.version = 3;
    inode.modified = Duration::new(1_700_000_100, 999_999_999);
    inode.placement = Placement::ErasureCoded {
        layout: FragmentLayout { object_len: 1_966_080, m: 3, n: 4, shard_len: 655_360 },
        fragments: (0..4).map(|i| (ProviderId(i), format!("big.f{i}").into())).collect(),
        hot_copy: Some((ProviderId(2), "big.hot".into())),
    };
    inode
}

/// One `HYM3` block, byte for byte.
#[test]
fn golden_hym3_block() {
    let mut small = Inode::new(FileId(7), 4096, Duration::from_secs(9));
    small.placement =
        Placement::Replicated { providers: vec![ProviderId(0), ProviderId(3)], object: "s".into() };
    let block = MetadataBlock {
        dir: NormPath::parse("/pool/a").expect("well-formed"),
        version: 5,
        entries: BTreeMap::from([
            ("big.bin".to_string(), golden_inode()),
            ("s.txt".to_string(), small),
            ("new".to_string(), Inode::new(FileId(8), 0, Duration::ZERO)),
        ]),
    };
    assert_eq!(hex(&block.to_bytes()), GOLDEN_BLOCK);
    assert_eq!(MetadataBlock::from_bytes(&block.to_bytes()).expect("decodes"), block);
}

/// One `HYD2` diff, byte for byte.
#[test]
fn golden_hyd2_diff() {
    let diff = DiffBlock {
        dir: NormPath::parse("/pool/a").expect("well-formed"),
        base: 5,
        version: 6,
        ops: vec![
            EntryOp::Upsert("big.bin".to_string(), golden_inode()),
            EntryOp::Remove("s.txt".to_string()),
        ],
    };
    assert_eq!(hex(&diff.to_bytes()), GOLDEN_DIFF);
    assert_eq!(DiffBlock::from_bytes(&diff.to_bytes()).expect("decodes"), diff);
}

/// `golden_hym3_block`'s frame in hex; its first 24 digits are the
/// magic and the checksum.
const GOLDEN_BLOCK: &str = concat!(
    "48594d33d375ae326caf37a9070000002f706f6f6c2f61050000000000000003",
    "000000070000006269672e62696e2a0000000000000000001e00000000000300",
    "00000000000000f15365000000000500000064f1536500000000ffc99a3b0200",
    "001e0000000000030000000400000000000a0000000000040000000000060000",
    "006269672e66300100060000006269672e66310200060000006269672e663203",
    "00060000006269672e6633010200070000006269672e686f74030000006e6577",
    "0800000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000005000000732e747874070000000000",
    "0000001000000000000000000000000000000900000000000000000000000900",
    "000000000000000000000102000000000003000100000073",
);
/// `golden_hyd2_diff`'s frame in hex.
const GOLDEN_DIFF: &str = concat!(
    "48594432fcc461292e1c3bd7070000002f706f6f6c2f61050000000000000006",
    "000000000000000200000000070000006269672e62696e2a0000000000000000",
    "001e0000000000030000000000000000f15365000000000500000064f1536500",
    "000000ffc99a3b0200001e0000000000030000000400000000000a0000000000",
    "040000000000060000006269672e66300100060000006269672e663102000600",
    "00006269672e66320300060000006269672e6633010200070000006269672e68",
    "6f740105000000732e747874",
);
