//! The O(changed) flush against its specification.
//!
//! [`ShardedMetaStore::flush_dirty_encoded`] visits only the names a
//! mutation touched. Its specification is the flush it replaced: walk
//! **every** entry of every dirty directory, re-encode it and compare it
//! with the encoding at the last flush. That full walk lives on here, as
//! [`Oracle`], written against the crate's public API only. For random
//! op sequences the two must emit identical [`FlushItem`]s — object
//! names, versions, wire bytes, kinds, `records`, `supersedes`,
//! compaction cadence — and the shipped objects must resolve back to the
//! store's live state. A compaction also says where its bytes differ
//! from the block shipped before it ([`BlockDelta`]); the oracle checks
//! that every differing byte is inside a reported range.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use hyrd_testkit::{check, Gen};

use hyrd_gcsapi::ProviderId;
use hyrd_gfec::FragmentLayout;
use hyrd_metastore::shard::COMPACT_EVERY;
use hyrd_metastore::{
    resolve_chain, BlockDelta, DiffBlock, EntryOp, FileId, FlushItem, FlushKind, Inode,
    MetadataBlock, NormPath, Placement, ShardedMetaStore,
};

/// One directory's flush bookkeeping, as the store kept it before it
/// tracked names.
#[derive(Default)]
struct OracleDir {
    flushed_version: Option<u64>,
    flushed_entries: BTreeMap<String, Vec<u8>>,
    chain: Vec<Arc<str>>,
    /// The last full block the store shipped, while the store can know
    /// it: cleared by `seed_flushed`.
    shipped: Option<Vec<u8>>,
}

/// The full-walk flush, fed from the store's public read surface.
#[derive(Default)]
struct Oracle {
    dirs: BTreeMap<NormPath, OracleDir>,
}

/// `name + inode` exactly as inside a block body: a one-entry block of
/// the root directory after its header, directory, version and count.
fn encode_entry(name: &str, inode: &Inode) -> Vec<u8> {
    const BEFORE_ENTRIES: usize = 12 + (4 + "/".len()) + 8 + 4;
    let entries = BTreeMap::from([(name.to_string(), inode.clone())]);
    let one = MetadataBlock { dir: NormPath::root(), version: 0, entries };
    one.to_bytes()[BEFORE_ENTRIES..].to_vec()
}

impl Oracle {
    /// What `store.flush_dirty_encoded()` must return when called next.
    fn flush(&mut self, store: &ShardedMetaStore) -> Vec<FlushItem> {
        let mut items = Vec::new();
        for dir in store.dirty_dirs() {
            let files: BTreeMap<String, Inode> =
                store.inodes_in(&dir).expect("dirty directories exist").into_iter().collect();
            let state = self.dirs.entry(dir.clone()).or_default();

            let mut upserts: Vec<(String, Vec<u8>)> = Vec::new();
            for (name, inode) in &files {
                let enc = encode_entry(name, inode);
                if state.flushed_entries.get(name) != Some(&enc) {
                    upserts.push((name.clone(), enc));
                }
            }
            let removals: Vec<String> = state
                .flushed_entries
                .keys()
                .filter(|name| !files.contains_key(*name))
                .cloned()
                .collect();

            let first = state.flushed_version.is_none();
            if !first && upserts.is_empty() && removals.is_empty() {
                continue;
            }

            if first || state.chain.len() >= COMPACT_EVERY {
                for name in &removals {
                    state.flushed_entries.remove(name);
                }
                for (name, enc) in upserts {
                    state.flushed_entries.insert(name, enc);
                }
                let version = match state.flushed_version {
                    None => files.values().map(|i| i.version).max().unwrap_or(0),
                    Some(v) => v + 1,
                };
                // The cached encodings are now those of `files`, so the
                // block is the full encode of `files`.
                state.flushed_version = Some(version);
                let bytes =
                    MetadataBlock { dir: dir.clone(), version, entries: files.clone() }.to_bytes();
                state.shipped = Some(bytes.clone());
                items.push(FlushItem {
                    dir: dir.clone(),
                    version,
                    object: MetadataBlock::object_name(&dir),
                    bytes,
                    kind: if first { FlushKind::Block } else { FlushKind::Compact },
                    records: state.flushed_entries.len(),
                    supersedes: std::mem::take(&mut state.chain),
                });
                continue;
            }

            let base = state.flushed_version.expect("not first");
            let version = base + 1;
            let mut ops = Vec::new();
            for name in removals {
                state.flushed_entries.remove(&name);
                ops.push(EntryOp::Remove(name));
            }
            for (name, enc) in upserts {
                ops.push(EntryOp::Upsert(name.clone(), files[&name].clone()));
                state.flushed_entries.insert(name, enc);
            }
            ops.sort_by(|a, b| a.name().cmp(b.name()));
            let records = ops.len();
            let object = DiffBlock::object_name(&dir, version);
            state.chain.push(object.clone());
            state.flushed_version = Some(version);
            items.push(FlushItem {
                dir: dir.clone(),
                version,
                object,
                bytes: DiffBlock { dir, base, version, ops }.to_bytes(),
                kind: FlushKind::Diff,
                records,
                supersedes: Vec::new(),
            });
        }
        items
    }

    fn seed_flushed(&mut self, store: &ShardedMetaStore, dir: &NormPath, version: u64) {
        let state = self.dirs.entry(dir.clone()).or_default();
        state.flushed_entries = store
            .inodes_in(dir)
            .expect("seeded directories exist")
            .iter()
            .map(|(name, inode)| (name.clone(), encode_entry(name, inode)))
            .collect();
        state.flushed_version = Some(version);
        state.chain.clear();
        state.shipped = None;
    }

    /// The last full block shipped for `dir`, if the store can know it.
    fn shipped(&self, dir: &NormPath) -> Option<&[u8]> {
        self.dirs.get(dir)?.shipped.as_deref()
    }

    fn seed_chain(&mut self, dir: &NormPath, chain: Vec<Arc<str>>) {
        self.dirs.entry(dir.clone()).or_default().chain = chain;
    }
}

/// Every byte of `new` that differs from `old`'s at the same offset (or
/// has none there) lies in one of `delta`'s ranges, which ascend, do not
/// overlap and stay inside `new`.
fn assert_covers(old: &[u8], new: &[u8], delta: &BlockDelta) {
    assert_eq!(delta.base_len, old.len());
    let ranges = &delta.ranges;
    assert!(ranges.windows(2).all(|w| w[0].end <= w[1].start), "{ranges:?}");
    assert!(ranges.iter().all(|r| r.start < r.end && r.end <= new.len()), "{ranges:?}");
    let mut ranges = ranges.iter().peekable();
    for (at, byte) in new.iter().enumerate() {
        while ranges.next_if(|r| r.end <= at).is_some() {}
        if old.get(at) != Some(byte) {
            assert!(ranges.peek().is_some_and(|r| r.contains(&at)), "byte {at} changed, uncovered");
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create {
        dir: u8,
        name: u8,
        size: u64,
    },
    Place {
        dir: u8,
        name: u8,
        size: u64,
        erasure: bool,
    },
    /// CAS flip at the current version (`hit`) or at a stale one.
    CasPlace {
        dir: u8,
        name: u8,
        size: u64,
        hit: bool,
    },
    Remove {
        dir: u8,
        name: u8,
    },
    /// Create and remove inside one flush interval — also the shape of a
    /// failed create's rollback. Nets out unless the name was flushed.
    CreateThenRemove {
        dir: u8,
        name: u8,
    },
    /// Remove and re-create: same name, new id — a real change.
    RemoveThenCreate {
        dir: u8,
        name: u8,
        size: u64,
    },
    Mkdir {
        dir: u8,
    },
    /// `load_block` of entries newer than (`bump > 0`), as old as, or
    /// unknown to local state; `seed` follows it with `seed_flushed` +
    /// `seed_chain` the way attach/restart do, else the load is left for
    /// the next flush of that directory to pick up.
    Load {
        dir: u8,
        entries: Vec<(u8, u64)>,
        seed: bool,
    },
    Flush,
}

fn op_strategy(g: &mut Gen) -> Op {
    let (dir, name) = (g.range(0..3u8), g.range(0..6u8));
    let size = |g: &mut Gen| g.range(1..1_000_000u64);
    match g.weighted(&[3, 3, 2, 2, 2, 1, 1, 1, 3]) {
        0 => Op::Create { dir, name, size: size(g) },
        1 => Op::Place { dir, name, size: size(g), erasure: g.bool() },
        2 => Op::CasPlace { dir, name, size: size(g), hit: g.bool() },
        3 => Op::Remove { dir, name },
        4 => Op::CreateThenRemove { dir, name },
        5 => Op::RemoveThenCreate { dir, name, size: size(g) },
        6 => Op::Mkdir { dir },
        7 => Op::Load {
            dir,
            entries: g.vec(0..4, |g| (g.range(0..6u8), g.range(0..3u64))),
            seed: g.bool(),
        },
        _ => Op::Flush,
    }
}

fn dir_of(dir: u8) -> NormPath {
    NormPath::parse(&format!("/d{dir}")).expect("well-formed")
}

fn path_of(dir: u8, name: u8) -> NormPath {
    NormPath::parse(&format!("/d{dir}/f{name}")).expect("well-formed")
}

fn placement(size: u64, erasure: bool) -> Placement {
    if erasure {
        let at = |i: usize| (ProviderId(i as u16), format!("o{size}.f{i}").into());
        Placement::ErasureCoded {
            layout: FragmentLayout { object_len: size as usize, m: 2, n: 3, shard_len: 7 },
            fragments: (0..3).map(at).collect(),
            hot_copy: (size & 1 == 0).then(|| at(3)),
        }
    } else {
        Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId((size % 3) as u16 + 1)],
            object: format!("o{size}").into(),
        }
    }
}

/// One store under test with its oracle and a model of what its flushes
/// left on the providers.
struct Rig {
    store: ShardedMetaStore,
    oracle: Oracle,
    tick: u64,
    bases: BTreeMap<NormPath, MetadataBlock>,
    diffs: BTreeMap<NormPath, Vec<DiffBlock>>,
    flushes: usize,
    compactions: usize,
    /// Full blocks shipped with a delta against the block before them.
    patched: usize,
}

impl Rig {
    fn new(shards: usize) -> Self {
        Rig {
            store: ShardedMetaStore::with_shards(shards),
            oracle: Oracle::default(),
            tick: 0,
            bases: BTreeMap::new(),
            diffs: BTreeMap::new(),
            flushes: 0,
            compactions: 0,
            patched: 0,
        }
    }

    fn now(&mut self) -> Duration {
        self.tick += 1;
        Duration::from_secs(self.tick)
    }

    /// The equivalence itself, then the provider model.
    fn flush(&mut self) -> Vec<FlushItem> {
        let before: BTreeMap<NormPath, Vec<u8>> = self
            .store
            .dirty_dirs()
            .into_iter()
            .filter_map(|dir| Some((dir.clone(), self.oracle.shipped(&dir)?.to_vec())))
            .collect();
        let want = self.oracle.flush(&self.store);
        let mut deltas = BTreeMap::new();
        let mut got = Vec::new();
        self.store.flush_dirty_with(&mut got, |item, delta| {
            if let Some(delta) = delta {
                deltas.insert(item.dir.clone(), delta.clone());
            }
        });
        assert_eq!(got, want, "flush {} diverged from the full walk", self.flushes);
        // A full block reports where it differs from the block before it
        // exactly when this store shipped one since it was last seeded;
        // the ranges are the store's to choose, as long as they cover
        // every byte that differs.
        for item in got.iter().filter(|item| item.kind != FlushKind::Diff) {
            match (before.get(&item.dir), deltas.get(&item.dir)) {
                (Some(old), Some(delta)) => {
                    assert_covers(old, &item.bytes, delta);
                    self.patched += 1;
                }
                (None, None) => {}
                (old, delta) => {
                    panic!("{}: shipped before {}, delta {delta:?}", item.dir, old.is_some())
                }
            }
        }
        assert!(self.store.dirty_dirs().is_empty());
        self.flushes += 1;
        for item in &got {
            match item.kind {
                FlushKind::Block | FlushKind::Compact => {
                    self.compactions += (item.kind == FlushKind::Compact) as usize;
                    let block = MetadataBlock::from_bytes(&item.bytes).expect("own bytes");
                    self.diffs.remove(&item.dir);
                    self.bases.insert(item.dir.clone(), block);
                }
                FlushKind::Diff => {
                    let diff = DiffBlock::from_bytes(&item.bytes).expect("own bytes");
                    self.diffs.entry(item.dir.clone()).or_default().push(diff);
                }
            }
        }
        got
    }

    fn apply(&mut self, op: &Op) {
        let now = self.now();
        match op {
            Op::Create { dir, name, size } => {
                let _ = self.store.create_file(&path_of(*dir, *name), *size, now);
            }
            Op::Place { dir, name, size, erasure } => {
                let _ = self.store.set_placement(
                    &path_of(*dir, *name),
                    placement(*size, *erasure),
                    *size,
                    now,
                );
            }
            Op::CasPlace { dir, name, size, hit } => {
                let path = path_of(*dir, *name);
                if let Ok(inode) = self.store.inode(&path) {
                    let expect = if *hit { inode.version } else { inode.version + 1000 };
                    let landed = self
                        .store
                        .set_placement_if_version(
                            &path,
                            expect,
                            placement(*size, false),
                            *size,
                            now,
                        )
                        .expect("file exists");
                    assert_eq!(landed, *hit);
                }
            }
            Op::Remove { dir, name } => {
                let _ = self.store.remove_file(&path_of(*dir, *name));
            }
            Op::CreateThenRemove { dir, name } => {
                let path = path_of(*dir, *name);
                if self.store.create_file(&path, 1, now).is_ok() {
                    self.store.remove_file(&path).expect("just created");
                }
            }
            Op::RemoveThenCreate { dir, name, size } => {
                let path = path_of(*dir, *name);
                if self.store.remove_file(&path).is_ok() {
                    self.store.create_file(&path, *size, now).expect("just removed");
                }
            }
            Op::Mkdir { dir } => self.store.mkdir_all(&dir_of(*dir)).expect("plain directory"),
            Op::Load { dir, entries, seed } => {
                let entries: Vec<(String, u64)> =
                    entries.iter().map(|&(name, bump)| (format!("f{name}"), bump)).collect();
                self.load(&dir_of(*dir), &entries, *seed, now)
            }
            Op::Flush => {
                self.flush();
            }
        }
    }

    fn load(&mut self, dpath: &NormPath, entries: &[(String, u64)], seed: bool, now: Duration) {
        let dpath = dpath.clone();
        let mut block = MetadataBlock { dir: dpath.clone(), version: 0, entries: BTreeMap::new() };
        for (i, (name, bump)) in entries.iter().enumerate() {
            let inode = match self.store.inode(&dpath.join(name).expect("well-formed")) {
                Ok(mut local) => {
                    local.version += bump;
                    local.size += bump;
                    local
                }
                Err(_) => Inode::new(FileId(1_000_000 + self.tick * 8 + i as u64), *bump, now),
            };
            block.entries.insert(name.clone(), inode);
        }
        self.store.load_block(&block).expect("no name is a directory");
        if seed {
            // As attach does: the providers hold a full block of exactly
            // this state at `version`, plus diffs nobody folded yet.
            let version = self.bases.get(&dpath).map_or(0, |b| b.version)
                + self.diffs.get(&dpath).map_or(0, |d| d.len() as u64)
                + 3;
            let chain: Vec<Arc<str>> = (0..entries.len() as u64)
                .map(|i| DiffBlock::object_name(&dpath, 900 + i))
                .collect();
            self.store.seed_flushed(&dpath, version);
            self.store.seed_chain(&dpath, chain.clone());
            self.oracle.seed_flushed(&self.store, &dpath, version);
            self.oracle.seed_chain(&dpath, chain);
            let entries = self.store.inodes_in(&dpath).expect("loaded").into_iter().collect();
            self.bases
                .insert(dpath.clone(), MetadataBlock { dir: dpath.clone(), version, entries });
            self.diffs.remove(&dpath);
        }
    }

    /// What the flushes shipped resolves back to the live state. Every
    /// directory is dirtied first: an unseeded load waits for its
    /// directory's next flush, and this is it.
    fn assert_reload_state(&mut self) {
        for dir in self.store.all_dirs() {
            self.store.mkdir_all(&dir).expect("exists");
        }
        self.flush();
        for (dir, base) in &self.bases {
            let diffs = self.diffs.get(dir).cloned().unwrap_or_default();
            let links = diffs.len();
            let resolved = resolve_chain(base.clone(), diffs);
            assert_eq!(
                (resolved.applied.len(), resolved.stale),
                (links, 0),
                "chain of {dir} links up"
            );
            let live: BTreeMap<String, Inode> =
                self.store.inodes_in(dir).expect("flushed directories exist").into_iter().collect();
            assert_eq!(resolved.block.entries, live, "reload state of {dir}");
        }
    }
}

/// Shared body. Every round first re-places one anchor file in a
/// directory of its own, so that directory changes on every round and
/// its chain compacts on schedule whatever the random ops do.
fn assert_flush_equivalence(rounds: &[Vec<Op>]) {
    for shards in [1usize, 16] {
        let mut rig = Rig::new(shards);
        let anchor = NormPath::parse("/anchor/f").expect("well-formed");
        let now = rig.now();
        rig.store.create_file(&anchor, 1, now).expect("fresh store");
        for (i, round) in rounds.iter().enumerate() {
            let now = rig.now();
            rig.store
                .set_placement(&anchor, placement(i as u64, false), i as u64, now)
                .expect("anchor lives");
            for op in round {
                rig.apply(op);
            }
            rig.flush();
        }
        assert!(rig.flushes >= 2 * COMPACT_EVERY, "{} flushes", rig.flushes);
        assert!(rig.compactions >= 2, "{} compactions", rig.compactions);
        rig.assert_reload_state();
    }
}

#[test]
fn flush_matches_the_full_walk_oracle() {
    check(
        48,
        |g| {
            g.vec(2 * (COMPACT_EVERY + 1) + 1..4 * (COMPACT_EVERY + 1), |g| {
                g.vec(0..8, op_strategy)
            })
        },
        |rounds| {
            assert_flush_equivalence(&rounds);
        },
    );
}

/// The same property on fixed scripts, so the suite still covers it when
/// the property harness is unavailable.
#[test]
fn flush_matches_the_full_walk_oracle_on_scripted_runs() {
    for seed in [7u64, 41, 2026] {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let rounds: Vec<Vec<Op>> = (0..3 * (COMPACT_EVERY + 1))
            .map(|_| {
                (0..next(8))
                    .map(|_| {
                        let (dir, name) = (next(3) as u8, next(6) as u8);
                        let size = 1 + next(1_000_000);
                        match next(12) {
                            0 | 1 => Op::Create { dir, name, size },
                            2 | 3 => Op::Place { dir, name, size, erasure: next(2) == 0 },
                            4 | 5 => Op::CasPlace { dir, name, size, hit: next(2) == 0 },
                            6 => Op::Remove { dir, name },
                            7 => Op::CreateThenRemove { dir, name },
                            8 => Op::RemoveThenCreate { dir, name, size },
                            9 => Op::Mkdir { dir },
                            10 => Op::Load {
                                dir,
                                entries: (0..next(4)).map(|_| (next(6) as u8, next(3))).collect(),
                                seed: next(2) == 0,
                            },
                            _ => Op::Flush,
                        }
                    })
                    .collect()
            })
            .collect();
        assert_flush_equivalence(&rounds);
    }
}

/// The case the name tracking exists for, pinned: an unseeded
/// `load_block` dirties nothing, yet the next flush of that directory
/// ships what it wrote.
#[test]
fn an_unseeded_load_is_flushed_with_the_next_change() {
    let mut rig = Rig::new(4);
    let now = rig.now();
    rig.store.create_file(&path_of(1, 0), 10, now).unwrap();
    rig.store.create_file(&path_of(1, 1), 20, now).unwrap();
    rig.flush();

    rig.load(&dir_of(1), &[("f0".to_string(), 2), ("f5".to_string(), 0)], false, now);
    assert!(rig.store.dirty_dirs().is_empty(), "loads mark nothing dirty");
    assert!(rig.flush().is_empty());

    rig.store.mkdir_all(&dir_of(1)).unwrap();
    let items = rig.flush();
    assert_eq!(items.len(), 1);
    let diff = DiffBlock::from_bytes(&items[0].bytes).unwrap();
    let names: Vec<&str> = diff.ops.iter().map(EntryOp::name).collect();
    assert_eq!(names, ["f0", "f5"]);
    rig.assert_reload_state();
}

/// The frame at scale: a 1,024-entry directory through four
/// compactions, with long runs of in-place updates, splices that grow,
/// shrink, insert and remove entries, and loads with and without a seed
/// in between — every item what the full walk ships, every compaction's
/// delta covering every byte that differs from the block before it.
#[test]
fn a_large_directory_compacts_from_its_frame() {
    const FILES: usize = 1024;
    let dir = NormPath::parse("/big").expect("well-formed");
    let file = |i: usize| dir.join(&format!("f{i:04}")).expect("well-formed");
    let mut rig = Rig::new(4);
    for i in 0..FILES {
        let now = rig.now();
        rig.store.create_file(&file(i), 4096, now).expect("fresh name");
        rig.store.set_placement(&file(i), placement(i as u64, false), 4096, now).expect("created");
    }
    rig.flush();
    for round in 0..4 * (COMPACT_EVERY + 1) {
        let now = rig.now();
        // A run of 24 neighbours, each keeping its encoding's length.
        let start = (round * 379) % (FILES - 24);
        for i in start..start + 24 {
            if let Ok(inode) = rig.store.inode(&file(i)) {
                rig.store.set_placement(&file(i), inode.placement, inode.size, now).expect("lives");
            }
        }
        match round % 6 {
            // A placement of another length: the entry is spliced.
            1 => {
                let at = file((round * 131) % FILES);
                let _ = rig.store.set_placement(&at, placement(round as u64, true), 7, now);
            }
            // A new entry between two old ones, and one gone.
            2 => {
                let name = format!("f{:04}x", (round * 53) % FILES);
                rig.store.create_file(&dir.join(&name).expect("well-formed"), 1, now).expect("new");
                let _ = rig.store.remove_file(&file((round * 211) % FILES));
            }
            // Loaded entries, newer than local state: in place. Once
            // (a chain after the first compaction), seeded as attach does,
            // so that the next compaction has no block to patch.
            3 => {
                let entries: Vec<(String, u64)> = (0..6)
                    .map(|j| (format!("f{:04}", (round * 97 + j * 150) % FILES), 1))
                    .collect();
                rig.load(&dir, &entries, round == 15, now);
            }
            _ => {}
        }
        rig.flush();
    }
    assert!(rig.compactions >= 3, "{} compactions", rig.compactions);
    assert!(rig.patched >= 2, "{} compactions patched the block before", rig.patched);
    rig.assert_reload_state();
}
