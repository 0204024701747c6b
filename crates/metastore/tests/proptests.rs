//! Property-based tests for the metadata layer: a random operation
//! sequence applied both to the [`ShardedMetaStore`] and to a plain
//! `HashMap<String, u64>` model must always agree; the store's flush
//! output must be shard-count independent; replaying a block + diff
//! chain must reconstruct the exact flushed state, torn diffs stranding
//! only the chain suffix behind the tear; and neither wire decoder may
//! panic on hostile bytes.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use hyrd_testkit::{check, Gen};

use hyrd_gcsapi::ProviderId;
use hyrd_gfec::FragmentLayout;
use hyrd_metastore::codec::{frame_checksum, MAGIC};
use hyrd_metastore::diff::DIFF_MAGIC;
use hyrd_metastore::{
    resolve_chain, DiffBlock, DirEntry, EntryOp, FileId, FlushKind, Inode, MetadataBlock, NormPath,
    Placement, ShardedMetaStore,
};

#[derive(Debug, Clone)]
enum Op {
    Create { dir: u8, name: u8, size: u64 },
    Remove { dir: u8, name: u8 },
    Lookup { dir: u8, name: u8 },
}

fn op_strategy(g: &mut Gen) -> Op {
    let (dir, name) = (g.range(0..4u8), g.range(0..6u8));
    match g.range(0..3u8) {
        0 => Op::Create { dir, name, size: g.range(1..1_000_000u64) },
        1 => Op::Remove { dir, name },
        _ => Op::Lookup { dir, name },
    }
}

fn path_of(dir: u8, name: u8) -> NormPath {
    NormPath::parse(&format!("/d{dir}/f{name}")).expect("well-formed")
}

/// Applies `ops` to a sharded store, advancing a shared tick counter so
/// parallel stores see identical timestamps (and thus inode versions).
fn apply_sharded(store: &ShardedMetaStore, ops: &[Op], t: &mut u64) {
    for op in ops {
        *t += 1;
        match op {
            Op::Create { dir, name, size } => {
                let _ = store.create_file(&path_of(*dir, *name), *size, Duration::from_secs(*t));
            }
            Op::Remove { dir, name } => {
                let _ = store.remove_file(&path_of(*dir, *name));
            }
            Op::Lookup { .. } => {}
        }
    }
}

/// Inodes covering every placement arm of the wire format.
fn inode_strategy(g: &mut Gen) -> Inode {
    let (id, size, version) = (g.u64(), g.u64(), g.u64());
    let (tag, n) = (g.range(0..3u8), g.range(0..5usize));
    let nanos = (version % 1_000_000_000) as u32;
    let mut inode = Inode::new(FileId(id), size, Duration::new(size, nanos));
    inode.version = version;
    let at = |i: usize| -> (ProviderId, std::sync::Arc<str>) {
        (ProviderId(i as u16), format!("o{id}.{i}").into())
    };
    inode.placement = match tag {
        0 => Placement::Pending,
        1 => Placement::Replicated {
            providers: (0..n).map(|i| at(i).0).collect(),
            object: format!("o{id}").into(),
        },
        _ => Placement::ErasureCoded {
            layout: FragmentLayout { object_len: size as usize, m: n, n: n + 1, shard_len: n },
            fragments: (0..=n).map(at).collect(),
            hot_copy: (n % 2 == 0).then(|| at(n)),
        },
    };
    inode
}

/// `(name, inode)` tables; duplicate names are fine (later ones win in
/// a block, and a diff may legitimately touch a name twice).
fn entries_strategy(g: &mut Gen) -> Vec<(String, Inode)> {
    g.vec(0..6, |g| (format!("f{}", g.range(0..12u8)), inode_strategy(g)))
}

/// Overwrites body bytes of a valid frame, optionally truncates it, and
/// then **re-checksums** it: the frame checksum is not a MAC, so this is
/// what a hostile provider can serve — and it gets past the checksum gate
/// to the body parser, which plain bit flips never do.
fn mutate_and_reseal(mut frame: Vec<u8>, edits: &[(usize, u8)], cut: Option<usize>) -> Vec<u8> {
    const HEADER: usize = 12; // magic + checksum
    for &(at, byte) in edits {
        let body = frame.len() - HEADER;
        frame[HEADER + at % body] = byte;
    }
    if let Some(cut) = cut {
        frame.truncate(HEADER + cut % (frame.len() - HEADER + 1));
    }
    let checksum = frame_checksum(&frame[HEADER..]);
    frame[4..HEADER].copy_from_slice(&checksum.to_le_bytes());
    frame
}

/// Neither decoder panics on arbitrary bytes, with or without the
/// right magic in front.
#[test]
fn decoders_never_panic_on_arbitrary_bytes() {
    check(
        64,
        |g| (g.bytes(0..256), g.range(0..3u8)),
        |(bytes, magic)| {
            let mut frame = match magic {
                0 => Vec::new(),
                1 => MAGIC.to_vec(),
                _ => DIFF_MAGIC.to_vec(),
            };
            frame.extend_from_slice(&bytes);
            let _ = MetadataBlock::from_bytes(&frame);
            let _ = DiffBlock::from_bytes(&frame);
            // Same bytes behind a valid checksum reach the body parsers.
            if frame.len() > 12 {
                let sealed = mutate_and_reseal(frame, &[], None);
                let _ = MetadataBlock::from_bytes(&sealed);
                let _ = DiffBlock::from_bytes(&sealed);
            }
        },
    );
}

/// Valid `HYM3` and `HYD2` frames, mutated in the body and
/// re-checksummed, decode or fail with an error — never a panic.
#[test]
fn decoders_never_panic_on_resealed_mutations() {
    check(
        64,
        |g| {
            (
                entries_strategy(g),
                g.u64(),
                g.vec(0..6, |g| (g.range::<usize>(..), g.range::<u8>(..))),
                g.option(|g| g.range::<usize>(..)),
            )
        },
        |(entries, version, edits, cut)| {
            let dir = NormPath::parse("/some/dir").expect("well-formed");
            let block = MetadataBlock {
                dir: dir.clone(),
                version,
                entries: entries.iter().cloned().collect(),
            };
            let ops = entries
                .into_iter()
                .map(|(name, inode)| {
                    if inode.size % 4 == 0 {
                        EntryOp::Remove(name)
                    } else {
                        EntryOp::Upsert(name, inode)
                    }
                })
                .collect();
            let diff = DiffBlock { dir, base: version / 2, version: version / 2 + 1, ops };

            // Unmutated frames round-trip (the generators are honest)...
            assert_eq!(&MetadataBlock::from_bytes(&block.to_bytes()).expect("own bytes"), &block);
            assert_eq!(&DiffBlock::from_bytes(&diff.to_bytes()).expect("own bytes"), &diff);
            // ...and whatever the mutation did, the parsers return.
            let _ = MetadataBlock::from_bytes(&mutate_and_reseal(block.to_bytes(), &edits, cut));
            let _ = DiffBlock::from_bytes(&mutate_and_reseal(diff.to_bytes(), &edits, cut));
        },
    );
}

#[test]
fn store_agrees_with_a_map_model() {
    check(
        64,
        |g| g.vec(1..80, op_strategy),
        |ops| {
            let store = ShardedMetaStore::with_shards(4);
            let mut model: HashMap<String, u64> = HashMap::new();
            let mut t = 0u64;

            for op in ops {
                t += 1;
                match op {
                    Op::Create { dir, name, size } => {
                        let p = path_of(dir, name);
                        let created = store.create_file(&p, size, Duration::from_secs(t)).is_ok();
                        assert_eq!(
                            created,
                            !model.contains_key(p.as_str()),
                            "create {} must succeed iff absent",
                            p
                        );
                        if created {
                            model.insert(p.as_str().to_string(), size);
                        }
                    }
                    Op::Remove { dir, name } => {
                        let p = path_of(dir, name);
                        let removed = store.remove_file(&p).is_ok();
                        assert_eq!(removed, model.remove(p.as_str()).is_some());
                    }
                    Op::Lookup { dir, name } => {
                        let p = path_of(dir, name);
                        match model.get(p.as_str()) {
                            Some(&size) => {
                                let inode = store.inode(&p).expect("model says present");
                                assert_eq!(inode.size, size);
                            }
                            None => assert!(store.inode(&p).is_err()),
                        }
                    }
                }
            }

            // Global invariants at the end.
            assert_eq!(store.file_count(), model.len());
            let logical: u64 = model.values().sum();
            assert_eq!(store.logical_bytes(), logical);
        },
    );
}

#[test]
fn flush_and_reload_reconstructs_the_namespace() {
    check(
        64,
        |g| g.vec(1..60, op_strategy),
        |ops| {
            // Apply ops, flush (every directory's first flush is a full
            // block), load the shipped bytes into a fresh store: file sets
            // and sizes must match.
            let store = ShardedMetaStore::with_shards(4);
            apply_sharded(&store, &ops, &mut 0);

            let fresh = ShardedMetaStore::with_shards(4);
            for item in store.flush_dirty_encoded() {
                assert_eq!(item.kind, FlushKind::Block);
                let parsed = MetadataBlock::from_bytes(&item.bytes).expect("own serialization");
                fresh.load_block(&parsed).expect("well-formed block");
            }

            assert_eq!(fresh.file_count(), store.file_count());
            assert_eq!(fresh.logical_bytes(), store.logical_bytes());
            for dir in store.all_dirs() {
                let a = store.list(&dir).expect("exists");
                let b = fresh.list(&dir).expect("reloaded");
                // Compare names (ids are preserved by load_block, but compare
                // structurally to stay robust).
                let names = |v: &[DirEntry]| -> Vec<String> {
                    v.iter()
                        .map(|e| match e {
                            DirEntry::Dir(n) => format!("d:{n}"),
                            DirEntry::File(n, _) => format!("f:{n}"),
                        })
                        .collect()
                };
                assert_eq!(names(&a), names(&b), "dir {}", dir);
            }
        },
    );
}

/// Shard assignment is a pure, stable function of the path: always
/// in range, identical across calls, and degenerate at one shard.
#[test]
fn shard_assignment_is_stable_and_in_range() {
    check(
        64,
        |g| (g.range(0..64u8), g.range(0..64u8), g.range(1..32usize)),
        |(dir, name, shards)| {
            let p = path_of(dir, name);
            let s = ShardedMetaStore::shard_of(&p, shards);
            assert!(s < shards);
            assert_eq!(s, ShardedMetaStore::shard_of(&p, shards));
            assert_eq!(ShardedMetaStore::shard_of(&p, 1), 0);
        },
    );
}

/// The DESIGN §15 determinism contract: the shard count is purely a
/// concurrency knob. The same op sequence with flushes at the same
/// points must produce byte-identical flush items (names, versions,
/// kinds, wire bytes) at 1, 5 and 16 shards.
#[test]
fn flush_output_is_shard_count_independent() {
    check(
        64,
        |g| g.vec(1..4, |g| g.vec(1..40, op_strategy)),
        |rounds| {
            assert_flush_shard_independent(&rounds);
        },
    );
}

/// Replaying the shipped block + diff chain through
/// [`resolve_chain`] (with a wire round-trip on every frame)
/// reconstructs exactly the state the store last flushed.
#[test]
fn diff_chain_replay_matches_full_state() {
    check(
        64,
        |g| g.vec(2..5, |g| g.vec(1..30, op_strategy)),
        |rounds| {
            assert_diff_chain_replay(&rounds);
        },
    );
}

/// A torn diff mid-chain fails validation and strands only the
/// suffix behind the tear: resolution stops at the last version
/// that still links onto the base.
#[test]
fn torn_diff_strands_the_chain_suffix() {
    check(
        64,
        |g| (g.range(2..7usize), g.range::<usize>(..)),
        |(links, victim_seed)| {
            assert_torn_diff(links, victim_seed % links);
        },
    );
}

/// Shared body: identical op rounds at 1, 5 and 16 shards must flush
/// identical items.
fn assert_flush_shard_independent(rounds: &[Vec<Op>]) {
    let a = ShardedMetaStore::with_shards(1);
    let b = ShardedMetaStore::with_shards(5);
    let c = ShardedMetaStore::with_shards(16);
    let (mut ta, mut tb, mut tc) = (0u64, 0u64, 0u64);
    for round in rounds {
        apply_sharded(&a, round, &mut ta);
        apply_sharded(&b, round, &mut tb);
        apply_sharded(&c, round, &mut tc);
        let fa = a.flush_dirty_encoded();
        let fb = b.flush_dirty_encoded();
        let fc = c.flush_dirty_encoded();
        assert_eq!(fa, fb, "flush diverged between 1 and 5 shards");
        assert_eq!(fb, fc, "flush diverged between 5 and 16 shards");
    }
}

/// Shared body: resolve the shipped block + diff chain and compare the
/// reconstruction against the store's live state, entry by entry.
fn assert_diff_chain_replay(rounds: &[Vec<Op>]) {
    let store = ShardedMetaStore::with_shards(4);
    let mut t = 0u64;
    let mut bases: BTreeMap<NormPath, MetadataBlock> = BTreeMap::new();
    let mut chains: BTreeMap<NormPath, Vec<DiffBlock>> = BTreeMap::new();
    for round in rounds {
        apply_sharded(&store, round, &mut t);
        for item in store.flush_dirty_encoded() {
            match item.kind {
                FlushKind::Block | FlushKind::Compact => {
                    let block = MetadataBlock::from_bytes(&item.bytes).expect("own serialization");
                    chains.remove(&item.dir);
                    bases.insert(item.dir, block);
                }
                FlushKind::Diff => {
                    let diff = DiffBlock::from_bytes(&item.bytes).expect("own serialization");
                    chains.entry(item.dir).or_default().push(diff);
                }
            }
        }
    }

    let fresh = ShardedMetaStore::with_shards(1);
    for (dir, base) in bases {
        let diffs = chains.remove(&dir).unwrap_or_default();
        let expected = diffs.last().map_or(base.version, |d| d.version);
        let resolved = resolve_chain(base, diffs);
        assert_eq!(resolved.block.version, expected, "chain resolution for {dir}");
        let parsed =
            MetadataBlock::from_bytes(&resolved.block.to_bytes()).expect("resolved round-trips");
        fresh.load_block(&parsed).expect("well-formed block");
    }

    assert_eq!(fresh.file_count(), store.file_count());
    assert_eq!(fresh.logical_bytes(), store.logical_bytes());
    for dir in store.all_dirs() {
        for (name, inode) in store.inodes_in(&dir).expect("dir exists") {
            let path = dir.join(&name).expect("well-formed");
            let reloaded = fresh.inode(&path).expect("entry survives replay");
            assert_eq!(reloaded.size, inode.size, "size of {path}");
            assert_eq!(reloaded.version, inode.version, "version of {path}");
        }
    }
}

/// Shared body: build a chain of `links` diffs on one directory, tear
/// diff `victim`, and verify resolution stops exactly at the tear.
fn assert_torn_diff(links: usize, victim: usize) {
    let store = ShardedMetaStore::with_shards(2);
    let dir = NormPath::parse("/solo").expect("well-formed");
    let mut base: Option<MetadataBlock> = None;
    let mut diffs: Vec<DiffBlock> = Vec::new();
    for i in 0..=links {
        let path = dir.join(&format!("f{i}")).expect("well-formed");
        store.create_file(&path, 64, Duration::from_secs(i as u64 + 1)).expect("create");
        for item in store.flush_dirty_encoded() {
            if item.dir != dir {
                continue; // "/" structure-only flushes
            }
            match item.kind {
                FlushKind::Block => {
                    base = Some(MetadataBlock::from_bytes(&item.bytes).expect("own bytes"));
                }
                FlushKind::Diff => {
                    diffs.push(DiffBlock::from_bytes(&item.bytes).expect("own bytes"));
                }
                FlushKind::Compact => unreachable!("chain stays below the compaction bound"),
            }
        }
    }
    let base = base.expect("first flush ships a block");
    assert_eq!(diffs.len(), links);

    // Tear one diff: any bit flip in the payload must fail the
    // checksum, so the reader never sees the frame at all.
    let mut torn = diffs[victim].to_bytes();
    let last = torn.len() - 1;
    torn[last] ^= 0xFF;
    assert!(DiffBlock::from_bytes(&torn).is_err(), "torn diff must fail validation");

    // Resolve with the torn frame missing: every diff before the tear
    // applies, the suffix is stranded.
    let intact: Vec<DiffBlock> =
        diffs.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, d)| d.clone()).collect();
    let expected_version = if victim == 0 { base.version } else { diffs[victim - 1].version };
    let resolved = resolve_chain(base, intact);
    assert_eq!(resolved.applied.len(), victim);
    assert_eq!(resolved.block.version, expected_version);

    let fresh = ShardedMetaStore::with_shards(1);
    fresh.load_block(&resolved.block).expect("well-formed block");
    // The block holds f0; diff i adds f{i+1}; `victim` applied diffs
    // leave exactly 1 + victim files visible.
    assert_eq!(fresh.file_count(), 1 + victim);
}

/// Deterministic scripts exercising the same properties, so the suite
/// still covers them when the property harness is unavailable.
mod deterministic {
    use super::*;

    /// Tiny LCG so the scripts are diverse but fixed.
    fn scripted_rounds(seed: u64, rounds: usize, ops_per_round: usize) -> Vec<Vec<Op>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..rounds)
            .map(|_| {
                (0..ops_per_round)
                    .map(|_| {
                        let (dir, name) = ((next() % 4) as u8, (next() % 6) as u8);
                        match next() % 3 {
                            0 | 1 => Op::Create { dir, name, size: 1 + next() % 1_000_000 },
                            _ => Op::Remove { dir, name },
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn flush_is_shard_count_independent_on_scripted_runs() {
        for seed in [3, 17, 2026] {
            assert_flush_shard_independent(&scripted_rounds(seed, 3, 30));
        }
    }

    #[test]
    fn diff_chain_replay_matches_full_state_on_scripted_runs() {
        for seed in [5, 23, 808] {
            assert_diff_chain_replay(&scripted_rounds(seed, 4, 25));
        }
    }

    #[test]
    fn torn_diff_strands_the_suffix_for_every_victim() {
        for links in [2usize, 4, 6] {
            for victim in 0..links {
                assert_torn_diff(links, victim);
            }
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for dir in 0..16u8 {
            for name in 0..8u8 {
                let p = path_of(dir, name);
                for shards in 1..24usize {
                    let s = ShardedMetaStore::shard_of(&p, shards);
                    assert!(s < shards);
                    assert_eq!(s, ShardedMetaStore::shard_of(&p, shards));
                }
                assert_eq!(ShardedMetaStore::shard_of(&p, 1), 0);
            }
        }
    }
}
