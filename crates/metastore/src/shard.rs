//! The sharded, OCC-versioned metastore — [`ShardedMetaStore`].
//!
//! A single structure behind one mutex makes every metadata op convoy
//! on that stripe at many-writer scale, and re-encoding whole directory
//! blocks on every flush is quadratic in directory size. This store
//! has neither serialization point:
//!
//! * **Sharding.** The namespace is hash-partitioned *by directory*
//!   ([`ShardedMetaStore::shard_of`]: FNV-1a-64 of the directory path
//!   modulo the shard count — a pure function, so the same path lands
//!   on the same shard in every process and across restarts). A file's
//!   entry lives in its parent directory's state, so every op on one
//!   directory touches exactly one shard, and ops on different
//!   directories proceed in parallel under independent `RwLock`s.
//! * **Optimistic concurrency.** Each shard carries a version counter
//!   bumped on every committed mutation. Writers read-lock the shard,
//!   plan the mutation against that snapshot, then write-lock and
//!   commit only if the version is unchanged; a concurrent commit in
//!   between costs a bounded retry (counted in `meta.occ.retries` /
//!   `meta.occ.conflicts`; after [`MAX_OCC_RETRIES`] the plan is simply
//!   redone under the write lock, so progress is guaranteed). Under the
//!   deterministic multi-client engine ops are serialized, so conflict
//!   counts are zero and the committed state — and therefore every
//!   flushed byte — is a pure function of the op order.
//! * **Incremental flushes, O(changed).** Every mutation records the
//!   entry *name* it touched next to the directory's dirty mark. A
//!   flush visits only those names: it re-encodes each, byte-compares
//!   it with the entry's bytes in the directory's flushed frame — the
//!   full block as of the last flush, kept as one buffer — and ships a
//!   compact [`DiffBlock`] of just the entries that really changed — a
//!   rollback or a netted-out change ships nothing. A changed entry of
//!   the same length is overwritten in the frame where it lies, any
//!   other change is spliced in. Every [`COMPACT_EVERY`] diffs the chain
//!   is folded back into a full block (a [`FlushKind::Compact`] item: a
//!   copy of the frame with its header rewritten and resealed, naming
//!   the superseded diff objects so the dispatcher can delete them, and
//!   handed out with the byte ranges where it differs from the block
//!   before it, so the dispatcher re-hashes only those). Only a
//!   directory's first flush and [`ShardedMetaStore::seed_flushed`]
//!   walk the directory's entries; a compaction copies and checksums
//!   its frame, and a splice moves the bytes after it, without walking
//!   or allocating. Restart reconstructs state with
//!   [`crate::diff::resolve_chain`]: the highest intact full block plus
//!   every intact diff that links onto it. A flush locks only the shards
//!   marked as holding a dirty directory; the mark is set and cleared
//!   under the shard's own write lock, so it never disagrees with the
//!   shard's dirty list where anyone can look.
//!
//! Lock-contention telemetry (contended acquisitions and wall-clock
//! wait) is accumulated in atomics and published to the metrics
//! registry by the dispatcher — never into the byte-compared trace.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::Included;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::codec::{self, MetadataBlock};
use crate::diff::{self, DiffBlock};
use crate::frame::{BlockDelta, Frame};
use crate::inode::{FileId, Inode, Placement};
use crate::path::NormPath;
use crate::{MetaError, Result};

/// Diff-chain length at which a flush folds the chain back into a full
/// block. Short enough that restart never walks long chains, long
/// enough that steady-state flushes ship O(changes) instead of O(dir).
pub const COMPACT_EVERY: usize = 8;

/// OCC retries before a writer falls back to planning under the write
/// lock (guaranteed progress; still serializable).
pub const MAX_OCC_RETRIES: usize = 8;

/// An entry in a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirEntry {
    /// A subdirectory name.
    Dir(String),
    /// A file name with its id.
    File(String, FileId),
}

/// What one flush item is, for telemetry and supersede bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// A directory's first flush: a full block.
    Block,
    /// An incremental diff on top of the previous flushed version.
    Diff,
    /// A full block that folds a diff chain (which it supersedes).
    Compact,
}

/// One object to replicate on flush, pre-serialized for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushItem {
    /// The directory this item describes.
    pub dir: NormPath,
    /// The flushed version the directory reaches with this item.
    pub version: u64,
    /// Provider object name to store the bytes under — for a diff, the
    /// same shared string the directory's live chain records.
    pub object: Arc<str>,
    /// The exact bytes to ship to every replica.
    pub bytes: Vec<u8>,
    /// Full block, diff, or compaction.
    pub kind: FlushKind,
    /// Changed entries (diff ops, or entry count for full blocks).
    pub records: usize,
    /// Diff objects this item makes obsolete (compaction only).
    pub supersedes: Vec<Arc<str>>,
}

/// Counter snapshot for the metrics registry (monotone totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaOccStats {
    /// OCC commit attempts that found the shard version bumped.
    pub conflicts: u64,
    /// Bounded retries taken after a conflict.
    pub retries: u64,
    /// Shard lock acquisitions that had to block.
    pub contended: u64,
    /// Total wall-clock nanoseconds spent blocked on shard locks.
    pub wait_ns: u64,
}

/// Per-shard health gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauge {
    /// Directories dirty (unflushed) in this shard.
    pub dirty: usize,
    /// Longest live diff chain in this shard.
    pub chain_max: usize,
}

/// One directory's entries plus its flush bookkeeping. An entry's name
/// is allocated once, when the file is created or loaded, and shared by
/// `files` and `touched`.
#[derive(Debug, Default)]
struct DirState {
    /// Child directory names (structure only; not persisted in blocks).
    subdirs: BTreeSet<String>,
    /// File entries: name → inode.
    files: BTreeMap<Arc<str>, Inode>,
    /// Version reached by the last flush, `None` before the first.
    flushed_version: Option<u64>,
    /// The full block of the entries as of the last flush, kept as one
    /// frame — the unit of change detection, and what a compaction
    /// ships, so unchanged entries are never re-encoded or walked.
    frame: Frame,
    /// Live diff object names since the last full block, version order.
    chain: Vec<Arc<str>>,
    /// Names whose entry in `files` may differ from `frame` (created,
    /// re-placed, removed or loaded since the last flush), in the order
    /// they were touched, repeats included. Invariant: every name *not*
    /// in here has `files[name]` encoding to exactly its entry in
    /// `frame`, or is absent from both — so a flush need look at nothing
    /// else.
    touched: Vec<Arc<str>>,
}

impl DirState {
    fn max_inode_version(&self) -> u64 {
        self.files.values().map(|i| i.version).max().unwrap_or(0)
    }

    /// Makes `frame` the block of `files` as they stand at `version` —
    /// the O(directory) step of a first flush and of a seed.
    fn snapshot(&mut self, dir: &NormPath, version: u64) {
        self.frame = Frame::build(dir, version, &self.files);
        self.touched.clear();
    }
}

/// One shard: an independently versioned slice of the namespace.
#[derive(Debug, Default)]
struct Shard {
    /// OCC token: bumped on every committed mutation.
    version: u64,
    /// Directories assigned to this shard.
    dirs: BTreeMap<NormPath, DirState>,
    /// Directories with unflushed changes, each once, in the order they
    /// were first marked. A flush drains it and keeps the capacity; it is
    /// short, because every writer flushes what it marked.
    dirty: Vec<NormPath>,
}

impl Shard {
    /// Marks `dir` dirty and `name` inside it touched — what every
    /// mutation of a (plan-validated) directory's entry table ends with.
    /// `name` is the entry's own shared name, and the dirty mark shares
    /// the directory's path.
    fn touch(&mut self, dir: &str, name: Arc<str>) {
        let (dir, state) = self
            .dirs
            .range_mut::<str, _>((Included(dir), Included(dir)))
            .next()
            .expect("validated by plan");
        state.touched.push(name);
        if !self.dirty.contains(dir) {
            self.dirty.push(dir.clone());
        }
    }
}

/// The entry `name` of a file table, if any: its shared name and its
/// inode, found in one descent.
fn find_mut<'a>(
    files: &'a mut BTreeMap<Arc<str>, Inode>,
    name: &str,
) -> Option<(Arc<str>, &'a mut Inode)> {
    let (key, inode) = files.range_mut::<str, _>((Included(name), Included(name))).next()?;
    Some((Arc::clone(key), inode))
}

/// The sharded store. All methods take `&self`; synchronization is
/// internal (per-shard `RwLock` + OCC), so the dispatcher holds no
/// store-wide stripe at all.
#[derive(Debug)]
pub struct ShardedMetaStore {
    shards: Vec<RwLock<Shard>>,
    /// Per shard: set, under the shard's write lock, by every commit that
    /// leaves its dirty list non-empty, and cleared, under the same lock,
    /// by the flush that empties it — so a flush visits only the shards
    /// that hold a dirty directory and can lose no mark.
    marked: Vec<AtomicBool>,
    next_id: AtomicU64,
    occ_conflicts: AtomicU64,
    occ_retries: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
}

impl Default for ShardedMetaStore {
    fn default() -> Self {
        ShardedMetaStore::with_shards(16)
    }
}

impl ShardedMetaStore {
    /// An empty store over `shards` independently locked shards. The
    /// shard count only changes concurrency, never any flushed byte:
    /// versions and flush decisions are per-directory state.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        let store = ShardedMetaStore {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            marked: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            next_id: AtomicU64::new(0),
            occ_conflicts: AtomicU64::new(0),
            occ_retries: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        };
        // The root always exists.
        store
            .write_shard(Self::shard_of(&NormPath::root(), shards))
            .dirs
            .entry(NormPath::root())
            .or_default();
        store
    }

    /// The shard a directory's state lives in: FNV-1a-64 of the path
    /// modulo the shard count. Pure — same path ⇒ same shard in every
    /// process and across restarts.
    pub fn shard_of(dir: &NormPath, shards: usize) -> usize {
        Self::shard_of_str(dir.as_str(), shards)
    }

    fn shard_of_str(dir: &str, shards: usize) -> usize {
        // FNV-1a-64: it names a shard and verifies nothing (frames carry
        // `codec::frame_checksum`), so it stays byte-serial.
        let hash = dir
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        (hash % shards.max(1) as u64) as usize
    }

    fn idx(&self, dir: &str) -> usize {
        Self::shard_of_str(dir, self.shards.len())
    }

    fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, Shard> {
        if let Ok(g) = self.shards[idx].try_read() {
            return g;
        }
        let start = Instant::now();
        let g = self.shards[idx].read().expect("shard lock poisoned");
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        g
    }

    fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, Shard> {
        if let Ok(g) = self.shards[idx].try_write() {
            return g;
        }
        let start = Instant::now();
        let g = self.shards[idx].write().expect("shard lock poisoned");
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        g
    }

    /// The OCC commit protocol: plan against a read-locked snapshot at
    /// version `v`, then commit under the write lock only if the shard
    /// is still at `v`. A conflict retries (bounded); exhausted retries
    /// re-plan under the write lock, which cannot conflict.
    fn commit<T, R>(
        &self,
        idx: usize,
        plan: impl Fn(&Shard) -> Result<T>,
        apply: impl FnOnce(&mut Shard, T) -> R,
    ) -> Result<R> {
        let mut conflicts = 0usize;
        loop {
            let (seen, mut planned) = {
                let shard = self.read_shard(idx);
                (shard.version, plan(&shard)?)
            };
            let mut shard = self.write_shard(idx);
            if shard.version != seen {
                self.occ_conflicts.fetch_add(1, Ordering::Relaxed);
                conflicts += 1;
                if conflicts <= MAX_OCC_RETRIES {
                    self.occ_retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                planned = plan(&shard)?;
            }
            let out = apply(&mut shard, planned);
            shard.version += 1;
            if !shard.dirty.is_empty() {
                self.marked[idx].store(true, Ordering::Release);
            }
            return Ok(out);
        }
    }

    /// Ensures the directory chain exists without marking anything
    /// dirty (directory *structure* is not persisted in blocks). One
    /// shard lock at a time — no ordering, no deadlock. A component
    /// that names an existing file is [`MetaError::NotADirectory`].
    fn ensure_dir(&self, dir: &str) -> Result<()> {
        // A directory is only ever created under a parent that lists it,
        // so one that exists has its whole chain: the common case costs
        // one lookup.
        if self.read_shard(self.idx(dir)).dirs.contains_key(dir) {
            return Ok(());
        }
        let mut cur = NormPath::root();
        for comp in dir.split('/').filter(|c| !c.is_empty()) {
            let child = cur.join(comp).expect("normalized component");
            let parent_idx = self.idx(cur.as_str());
            let known = {
                let shard = self.read_shard(parent_idx);
                shard.dirs.get(&cur).is_some_and(|d| d.subdirs.contains(comp))
            };
            if !known {
                // First creation of this component: the only moment a
                // file of the same name can be in the way (`create_file`
                // refuses names in `subdirs` from here on).
                self.commit(
                    parent_idx,
                    |shard| match shard.dirs.get(&cur) {
                        Some(d) if d.files.contains_key(comp) => {
                            Err(MetaError::NotADirectory(child.as_str().to_string()))
                        }
                        _ => Ok(()),
                    },
                    |shard, ()| {
                        shard.dirs.entry(cur.clone()).or_default().subdirs.insert(comp.to_string());
                    },
                )?;
                self.commit(
                    self.idx(child.as_str()),
                    |_| Ok(()),
                    |shard, ()| {
                        shard.dirs.entry(child.clone()).or_default();
                    },
                )?;
            }
            cur = child;
        }
        Ok(())
    }

    /// Creates a directory chain and marks the target dirty (so a bare
    /// `mkdir` ships an — possibly empty — block).
    pub fn mkdir_all(&self, dir: &NormPath) -> Result<()> {
        self.ensure_dir(dir.as_str())?;
        self.commit(
            self.idx(dir.as_str()),
            |_| Ok(()),
            |shard, ()| {
                shard.dirs.entry(dir.clone()).or_default();
                if !shard.dirty.contains(dir) {
                    shard.dirty.push(dir.clone());
                }
            },
        )
    }

    /// Creates a file of `size` bytes at `path` (virtual time `now`),
    /// returning its id. Placement starts [`Placement::Pending`].
    pub fn create_file(&self, path: &NormPath, size: u64, now: Duration) -> Result<FileId> {
        let name = path.file_name().ok_or_else(|| MetaError::BadPath(path.as_str().to_string()))?;
        let parent = path.parent_str();
        self.ensure_dir(parent)?;
        let idx = self.idx(parent);
        self.commit(
            idx,
            |shard| {
                let dir = shard
                    .dirs
                    .get(parent)
                    .ok_or_else(|| MetaError::NoSuchDirectory(parent.to_string()))?;
                if dir.files.contains_key(name) || dir.subdirs.contains(name) {
                    return Err(MetaError::AlreadyExists(path.as_str().to_string()));
                }
                Ok(())
            },
            |shard, ()| {
                let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
                let dir = shard.dirs.get_mut(parent).expect("validated by plan");
                let name: Arc<str> = Arc::from(name);
                dir.files.insert(Arc::clone(&name), Inode::new(id, size, now));
                shard.touch(parent, name);
                id
            },
        )
    }

    /// Runs `look` on a file's inode under its shard's read lock and
    /// returns what it returns — the request path's borrowing read:
    /// `look` copies out what the request needs (provider ids, shared
    /// object names, the size), so nothing else is copied and no lock is
    /// held across provider I/O. `look` must not call into the store.
    pub fn with_inode<R>(&self, path: &NormPath, look: impl FnOnce(&Inode) -> R) -> Result<R> {
        let name =
            path.file_name().ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
        let parent = path.parent_str();
        let shard = self.read_shard(self.idx(parent));
        let inode = shard
            .dirs
            .get(parent)
            .and_then(|d| d.files.get(name))
            .ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
        Ok(look(inode))
    }

    /// A file's inode, cloned out — for callers that keep it or take its
    /// placement apart ([`Self::with_inode`] lends it instead).
    pub fn inode(&self, path: &NormPath) -> Result<Inode> {
        self.with_inode(path, Inode::clone)
    }

    /// Updates a file's placement (and optionally size) after dispatch,
    /// bumping its version.
    pub fn set_placement(
        &self,
        path: &NormPath,
        placement: Placement,
        size: u64,
        now: Duration,
    ) -> Result<()> {
        let name =
            path.file_name().ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
        let parent = path.parent_str();
        let idx = self.idx(parent);
        self.commit(
            idx,
            |shard| {
                shard
                    .dirs
                    .get(parent)
                    .and_then(|d| d.files.get(name))
                    .map(|_| ())
                    .ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))
            },
            |shard, ()| {
                let dir = shard.dirs.get_mut(parent).expect("validated by plan");
                let (name, inode) = find_mut(&mut dir.files, name).expect("validated by plan");
                inode.placement = placement;
                inode.size = size;
                inode.touch(now);
                shard.touch(parent, name);
            },
        )
    }

    /// Compare-and-swap placement flip: applies the new placement only
    /// if the inode's version still equals `expect` — the OCC commit a
    /// background migration (or a hot-copy install) uses so a concurrent
    /// update or delete aborts the flip instead of being overwritten.
    ///
    /// Returns `Ok(true)` when the flip landed, `Ok(false)` when the
    /// version moved (the caller owns cleanup of any objects it staged),
    /// and `Err` when the file no longer exists.
    pub fn set_placement_if_version(
        &self,
        path: &NormPath,
        expect: u64,
        placement: Placement,
        size: u64,
        now: Duration,
    ) -> Result<bool> {
        let name =
            path.file_name().ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
        let parent = path.parent_str();
        let idx = self.idx(parent);
        self.commit(
            idx,
            |shard| {
                let inode = shard
                    .dirs
                    .get(parent)
                    .and_then(|d| d.files.get(name))
                    .ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
                Ok(inode.version == expect)
            },
            |shard, matches| {
                if !matches {
                    return false;
                }
                let dir = shard.dirs.get_mut(parent).expect("validated by plan");
                let (name, inode) = find_mut(&mut dir.files, name).expect("validated by plan");
                // Re-check under the write lock: the plan may have been
                // re-run there after exhausted OCC retries, but a racing
                // commit between plan and apply is impossible either way
                // (the shard version guard covers it). The inode version
                // is still the authority.
                if inode.version != expect {
                    return false;
                }
                inode.placement = placement;
                inode.size = size;
                inode.touch(now);
                shard.touch(parent, name);
                true
            },
        )
    }

    /// Removes a file, returning its inode (so the dispatcher can
    /// delete the physical objects).
    pub fn remove_file(&self, path: &NormPath) -> Result<Inode> {
        let name =
            path.file_name().ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))?;
        let parent = path.parent_str();
        let idx = self.idx(parent);
        self.commit(
            idx,
            |shard| {
                shard
                    .dirs
                    .get(parent)
                    .and_then(|d| d.files.get(name))
                    .map(|_| ())
                    .ok_or_else(|| MetaError::NoSuchFile(path.as_str().to_string()))
            },
            |shard, ()| {
                let dir = shard.dirs.get_mut(parent).expect("validated by plan");
                let (name, inode) = dir.files.remove_entry(name).expect("validated by plan");
                shard.touch(parent, name);
                inode
            },
        )
    }

    /// Sorted listing: subdirectories first, then files, both in name
    /// order.
    pub fn list(&self, dir: &NormPath) -> Result<Vec<DirEntry>> {
        self.listed(dir, |name, id| match id {
            None => DirEntry::Dir(name.to_string()),
            Some(id) => DirEntry::File(name.to_string(), id),
        })
    }

    /// The names of [`Self::list`], in its order: one allocation for the
    /// list and one per name.
    pub fn names(&self, dir: &NormPath) -> Result<Vec<String>> {
        self.listed(dir, |name, _| name.to_string())
    }

    /// `entry` of each subdirectory (no id) and then each file, in name
    /// order, under one read lock.
    fn listed<T>(
        &self,
        dir: &NormPath,
        entry: impl Fn(&str, Option<FileId>) -> T,
    ) -> Result<Vec<T>> {
        let shard = self.read_shard(self.idx(dir.as_str()));
        let state = shard
            .dirs
            .get(dir)
            .ok_or_else(|| MetaError::NoSuchDirectory(dir.as_str().to_string()))?;
        let mut out = Vec::with_capacity(state.subdirs.len() + state.files.len());
        out.extend(state.subdirs.iter().map(|name| entry(name, None)));
        out.extend(state.files.iter().map(|(name, inode)| entry(name, Some(inode.id))));
        Ok(out)
    }

    /// The `(name, inode)` pairs directly inside `dir` — what that
    /// directory's metadata block persists. One lock, one pass; callers
    /// that used to `list` + look up each id do this instead.
    pub fn inodes_in(&self, dir: &NormPath) -> Result<Vec<(String, Inode)>> {
        let shard = self.read_shard(self.idx(dir.as_str()));
        let state = shard
            .dirs
            .get(dir)
            .ok_or_else(|| MetaError::NoSuchDirectory(dir.as_str().to_string()))?;
        Ok(state.files.iter().map(|(n, i)| (n.to_string(), i.clone())).collect())
    }

    /// Every directory, depth-first from the root (children in name
    /// order), reconstructed from a per-shard topology snapshot.
    pub fn all_dirs(&self) -> Vec<NormPath> {
        let mut children: BTreeMap<NormPath, Vec<String>> = BTreeMap::new();
        for idx in 0..self.shards.len() {
            let shard = self.read_shard(idx);
            for (dir, state) in &shard.dirs {
                children.insert(dir.clone(), state.subdirs.iter().cloned().collect());
            }
        }
        let mut out = Vec::with_capacity(children.len());
        fn walk(
            dir: &NormPath,
            children: &BTreeMap<NormPath, Vec<String>>,
            out: &mut Vec<NormPath>,
        ) {
            out.push(dir.clone());
            if let Some(subs) = children.get(dir) {
                for name in subs {
                    let child = dir.join(name).expect("tree names are valid components");
                    walk(&child, children, out);
                }
            }
        }
        walk(&NormPath::root(), &children, &mut out);
        out
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).dirs.values().map(|d| d.files.len()).sum::<usize>())
            .sum()
    }

    /// Logical bytes across all files.
    pub fn logical_bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| {
                self.read_shard(i)
                    .dirs
                    .values()
                    .flat_map(|d| d.files.values())
                    .map(|inode| inode.size)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Physical bytes across all placements (the space-overhead metric).
    pub fn physical_bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| {
                self.read_shard(i)
                    .dirs
                    .values()
                    .flat_map(|d| d.files.values())
                    .map(|inode| inode.placement.stored_bytes(inode.size))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Directories with unflushed changes, sorted (test/debug surface).
    pub fn dirty_dirs(&self) -> Vec<NormPath> {
        let mut out: Vec<NormPath> =
            (0..self.shards.len()).flat_map(|i| self.read_shard(i).dirty.to_vec()).collect();
        out.sort();
        out
    }

    /// The incremental flush walk. For each dirty directory, compare the
    /// entries touched since the last flush against their per-entry
    /// encodings at that flush:
    ///
    /// * first flush → a full [`FlushKind::Block`] (version = max inode
    ///   version, so a bare `mkdir` ships an empty block at version 0);
    /// * no byte-level change → nothing (the dirty mark was a rollback
    ///   or netted out) and **no version bump**;
    /// * changes with a chain shorter than [`COMPACT_EVERY`] → a
    ///   [`FlushKind::Diff`] carrying only the changed entries;
    /// * changes on a full-length chain → a [`FlushKind::Compact`] full
    ///   block that folds and supersedes the chain.
    ///
    /// Items come out sorted by directory, so the shipped sequence is
    /// independent of the shard count and layout.
    ///
    /// Only the shards marked as holding a dirty directory are locked.
    pub fn flush_dirty_encoded(&self) -> Vec<FlushItem> {
        let mut items = Vec::new();
        self.flush_dirty_with(&mut items, |_, _| {});
        items
    }

    /// [`Self::flush_dirty_encoded`] into `items` (appended, sorted by
    /// directory — the caller lends the list, so a flush allocates what
    /// it ships and not the list), handing each item to `made` as it is
    /// made, while the lock of its shard is still held, together with
    /// where a full block differs from the one this store shipped before
    /// it under the same object name — `None` for a diff (a new object),
    /// a directory's first block and the first block after
    /// [`Self::seed_flushed`]. Whoever keeps state per shipped object
    /// (the dispatcher's digest of each block, which a compaction patches
    /// by the delta) sees one directory's items in the order they were
    /// made, whatever flushes run beside this one.
    pub fn flush_dirty_with(
        &self,
        items: &mut Vec<FlushItem>,
        mut made: impl FnMut(&FlushItem, Option<&BlockDelta>),
    ) {
        let first = items.len();
        for idx in 0..self.shards.len() {
            // Acquire pairs with the Release in `commit`: a mark this
            // load sees comes with the commit that set it. The dirty list
            // itself is read under the lock below; a clear store needs no
            // ordering of its own, the lock's release publishes it.
            if !self.marked[idx].load(Ordering::Acquire) {
                continue;
            }
            let mut guard = self.write_shard(idx);
            self.marked[idx].store(false, Ordering::Relaxed);
            let shard = &mut *guard;
            let mut mutated = false;
            for dir in shard.dirty.drain(..) {
                let Some(state) = shard.dirs.get_mut(&dir) else {
                    continue;
                };
                if let Some(item) = Self::flush_dir(dir, state) {
                    let delta = match item.kind {
                        FlushKind::Diff => None,
                        FlushKind::Block | FlushKind::Compact => state.frame.delta(),
                    };
                    made(&item, delta);
                    items.push(item);
                    mutated = true;
                }
            }
            if mutated {
                shard.version += 1;
            }
        }
        items[first..].sort_by(|a, b| a.dir.cmp(&b.dir));
    }

    /// Flushes one directory in place, returning the item to ship (or
    /// `None` when nothing changed since the last flush). Work is
    /// proportional to the names touched since then, not to the
    /// directory — except on the first flush; a compaction copies the
    /// frame and walks no entry.
    fn flush_dir(dir: NormPath, state: &mut DirState) -> Option<FlushItem> {
        let Some(base) = state.flushed_version else {
            // First flush: every entry is new.
            let version = state.max_inode_version();
            state.snapshot(&dir, version);
            return Some(Self::full_block(dir, state, version, FlushKind::Block));
        };
        // Each touched name once, in name order — the order diff ops
        // travel in and the frame is edited in.
        state.touched.sort_unstable();
        state.touched.dedup();

        // Fold each touched name into the frame. Each entry is encoded
        // once, at the end of the diff that ships, and dropped from it
        // again when its bytes match the frame's — the byte compare is
        // what lets a rollback (create + remove) or a change that netted
        // out ship nothing. A compaction ships the frame instead, and the
        // buffer is only the encoder's scratch.
        let version = base + 1;
        let compact = state.chain.len() >= COMPACT_EVERY;
        let mut out = if compact {
            Vec::with_capacity(160)
        } else {
            let mut out = Vec::with_capacity(64 + dir.as_str().len() + 160 * state.touched.len());
            diff::begin_diff(&mut out, &dir, base, version);
            out
        };
        let mut records = 0;
        let mut frame = state.frame.editor();
        for name in &state.touched {
            let mark = out.len();
            let changed = match state.files.get(name) {
                Some(inode) => {
                    out.push(diff::OP_UPSERT);
                    codec::encode_entry(&mut out, name, inode);
                    frame.set(name, Some(&out[mark + 1..]))
                }
                None => {
                    out.push(diff::OP_REMOVE);
                    codec::put_str(&mut out, name);
                    frame.set(name, None)
                }
            };
            if compact || !changed {
                out.truncate(mark);
            }
            records += changed as usize;
        }
        drop(frame);
        state.touched.clear();
        if records == 0 {
            return None;
        }
        if compact {
            return Some(Self::full_block(dir, state, version, FlushKind::Compact));
        }

        // Incremental diff on top of the previous flushed version, named
        // once for the chain and the item.
        diff::end_diff(&mut out, records);
        let object = DiffBlock::object_name(&dir, version);
        // A chain grows to `COMPACT_EVERY` names and is then handed over
        // whole: one allocation per chain.
        if state.chain.capacity() == 0 {
            state.chain.reserve_exact(COMPACT_EVERY);
        }
        state.chain.push(Arc::clone(&object));
        state.flushed_version = Some(version);
        Some(FlushItem {
            dir,
            version,
            object,
            bytes: out,
            kind: FlushKind::Diff,
            records,
            supersedes: Vec::new(),
        })
    }

    /// The frame shipped as a full block at `version`: its header
    /// rewritten and resealed, then copied out. Folds and supersedes the
    /// live diff chain.
    fn full_block(dir: NormPath, state: &mut DirState, version: u64, kind: FlushKind) -> FlushItem {
        let bytes = state.frame.ship(version);
        state.flushed_version = Some(version);
        FlushItem {
            object: MetadataBlock::object_name(&dir),
            bytes,
            dir,
            version,
            kind,
            records: state.frame.entries(),
            supersedes: std::mem::take(&mut state.chain),
        }
    }

    /// Seeds the flush change-detection state for `dir` at `version`
    /// after the restart/attach path healed a full block there: the
    /// next real change flushes a diff based on `version`, and a flush
    /// whose entries match ships nothing. Clears the live chain — the
    /// healed full block subsumes it.
    pub fn seed_flushed(&self, dir: &NormPath, version: u64) {
        let mut shard = self.write_shard(self.idx(dir.as_str()));
        let Some(state) = shard.dirs.get_mut(dir) else {
            return;
        };
        state.snapshot(dir, version);
        state.flushed_version = Some(version);
        state.chain.clear();
        shard.version += 1;
    }

    /// Records recovered-but-unhealed diff objects as the live chain
    /// for `dir` (the attach path, which loads state without rewriting
    /// providers): the next compaction then supersedes them properly.
    pub fn seed_chain(&self, dir: &NormPath, chain: Vec<Arc<str>>) {
        let mut shard = self.write_shard(self.idx(dir.as_str()));
        let Some(state) = shard.dirs.get_mut(dir) else {
            return;
        };
        state.chain = chain;
        shard.version += 1;
    }

    /// Merges a metadata block loaded from a provider (bootstrap and
    /// recovery). Entries newer than local state win; unknown files are
    /// created **keeping their original file ids** (placements embed
    /// them), and the id allocator is advanced past every adopted id.
    /// Loads mark nothing dirty — the caller seeds the flush state —
    /// but the entries they write are touched, so should the directory
    /// be flushed unseeded, the flush sees them.
    pub fn load_block(&self, block: &MetadataBlock) -> Result<()> {
        self.ensure_dir(block.dir.as_str())?;
        let idx = self.idx(block.dir.as_str());
        self.commit(
            idx,
            |shard| {
                let dir = shard
                    .dirs
                    .get(&block.dir)
                    .ok_or_else(|| MetaError::NoSuchDirectory(block.dir.as_str().to_string()))?;
                for name in block.entries.keys() {
                    if dir.subdirs.contains(name) {
                        let path = block.dir.join(name)?;
                        return Err(MetaError::AlreadyExists(path.as_str().to_string()));
                    }
                }
                Ok(())
            },
            |shard, ()| {
                let dir = shard.dirs.get_mut(&block.dir).expect("validated by plan");
                for (name, inode) in &block.entries {
                    let name = match find_mut(&mut dir.files, name) {
                        Some((name, existing)) => {
                            if inode.version <= existing.version {
                                continue;
                            }
                            let keep = existing.id; // path keeps its local id
                            *existing = inode.clone();
                            existing.id = keep;
                            name
                        }
                        None => {
                            let name: Arc<str> = Arc::from(name.as_str());
                            dir.files.insert(Arc::clone(&name), inode.clone());
                            self.next_id.fetch_max(inode.id.0 + 1, Ordering::Relaxed);
                            name
                        }
                    };
                    dir.touched.push(name);
                }
            },
        )
    }

    /// The namespace in path order: every directory with the files
    /// directly inside it as `(full path, inode)`, each directory read
    /// under one shard lock as the walk reaches it. This is the scan
    /// every background pass makes (scrub, migration, the reference
    /// audit): same state ⇒ same order ⇒ byte-identical traces.
    pub fn walk(&self) -> impl Iterator<Item = (NormPath, Vec<(NormPath, Inode)>)> + '_ {
        let mut dirs = self.all_dirs();
        dirs.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        dirs.into_iter().map(move |dir| {
            // Directories are never removed, so the lookup cannot miss.
            let files = self
                .inodes_in(&dir)
                .unwrap_or_default()
                .into_iter()
                .filter_map(|(name, inode)| Some((dir.join(&name).ok()?, inode)))
                .collect();
            (dir, files)
        })
    }

    /// Every live diff object name (unsuperseded chains) — what the
    /// durability auditor must treat as referenced.
    pub fn live_diff_objects(&self) -> Vec<String> {
        let mut out: Vec<String> = (0..self.shards.len())
            .flat_map(|i| {
                self.read_shard(i)
                    .dirs
                    .values()
                    .flat_map(|d| d.chain.iter().map(|name| name.to_string()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }

    /// Monotone OCC/contention totals for the metrics registry.
    pub fn occ_stats(&self) -> MetaOccStats {
        MetaOccStats {
            conflicts: self.occ_conflicts.load(Ordering::Relaxed),
            retries: self.occ_retries.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Per-shard dirty/chain gauges for the metrics registry.
    pub fn shard_gauges(&self) -> Vec<ShardGauge> {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.read_shard(i);
                ShardGauge {
                    dirty: shard.dirty.len(),
                    chain_max: shard.dirs.values().map(|d| d.chain.len()).max().unwrap_or(0),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::resolve_chain;
    use hyrd_gcsapi::ProviderId;

    fn p(s: &str) -> NormPath {
        NormPath::parse(s).unwrap()
    }

    fn t(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    fn replicated() -> Placement {
        Placement::Replicated { providers: vec![ProviderId(1), ProviderId(2)], object: "o".into() }
    }

    #[test]
    fn create_get_remove_lifecycle() {
        let s = ShardedMetaStore::with_shards(4);
        let id = s.create_file(&p("/docs/a.txt"), 123, t(1)).unwrap();
        assert_eq!(s.inode(&p("/docs/a.txt")).unwrap().id, id);
        assert_eq!(s.file_count(), 1);
        let inode = s.remove_file(&p("/docs/a.txt")).unwrap();
        assert_eq!(inode.id, id);
        assert_eq!(s.file_count(), 0);
        assert!(s.inode(&p("/docs/a.txt")).is_err());
        // The directory outlives its last file.
        assert!(s.list(&p("/docs")).unwrap().is_empty());
    }

    #[test]
    fn placement_cas_flips_only_at_the_expected_version() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/d/f"), 10, t(1)).unwrap();
        let v0 = s.inode(&p("/d/f")).unwrap().version;

        // CAS at the current version lands and bumps the version.
        assert!(s.set_placement_if_version(&p("/d/f"), v0, replicated(), 10, t(2)).unwrap());
        let after = s.inode(&p("/d/f")).unwrap();
        assert_eq!(after.version, v0 + 1);
        assert_eq!(after.placement, replicated());

        // A stale CAS is refused and mutates nothing.
        assert!(!s.set_placement_if_version(&p("/d/f"), v0, Placement::Pending, 99, t(3)).unwrap());
        let unchanged = s.inode(&p("/d/f")).unwrap();
        assert_eq!(unchanged.version, v0 + 1);
        assert_eq!(unchanged.placement, replicated());
        assert_eq!(unchanged.size, 10);

        // Missing file is an error, not a refusal.
        assert!(s.set_placement_if_version(&p("/d/nope"), 0, replicated(), 1, t(4)).is_err());
    }

    #[test]
    fn namespace_error_semantics() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/x"), 1, t(0)).unwrap();
        assert!(matches!(s.create_file(&p("/x"), 2, t(0)), Err(MetaError::AlreadyExists(_))));
        // A file may not shadow a directory either.
        s.mkdir_all(&p("/dir")).unwrap();
        assert!(matches!(s.create_file(&p("/dir"), 3, t(0)), Err(MetaError::AlreadyExists(_))));
        assert!(matches!(s.inode(&p("/nope/f")), Err(MetaError::NoSuchFile(_))));
        assert!(matches!(s.list(&p("/nope")), Err(MetaError::NoSuchDirectory(_))));
        assert!(matches!(s.remove_file(&p("/gone")), Err(MetaError::NoSuchFile(_))));
    }

    #[test]
    fn a_directory_cannot_shadow_a_file() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/a"), 1, t(0)).unwrap();
        assert_eq!(
            s.create_file(&p("/a/b"), 2, t(1)),
            Err(MetaError::NotADirectory("/a".to_string()))
        );
        assert_eq!(s.mkdir_all(&p("/a/deep/er")), Err(MetaError::NotADirectory("/a".to_string())));
        let block = MetadataBlock { dir: p("/a"), version: 0, entries: BTreeMap::new() };
        assert_eq!(s.load_block(&block), Err(MetaError::NotADirectory("/a".to_string())));
        // Nothing leaked into the namespace: one entry, and it is the file.
        assert!(matches!(&s.list(&p("/")).unwrap()[..], [DirEntry::File(n, _)] if n == "a"));
        assert_eq!(s.all_dirs(), vec![p("/")]);

        // Once the file is gone the name is free for a directory.
        s.remove_file(&p("/a")).unwrap();
        s.create_file(&p("/a/b"), 2, t(2)).unwrap();
        assert!(matches!(&s.list(&p("/")).unwrap()[..], [DirEntry::Dir(n)] if n == "a"));
    }

    #[test]
    fn placement_update_bumps_version() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/f"), 10, t(0)).unwrap();
        s.set_placement(&p("/f"), replicated(), 10, t(5)).unwrap();
        let i = s.inode(&p("/f")).unwrap();
        assert_eq!(i.version, 1);
        assert_eq!(i.modified, t(5));
        assert!(matches!(i.placement, Placement::Replicated { .. }));
    }

    #[test]
    fn logical_vs_physical_bytes() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/f"), 1000, t(0)).unwrap();
        assert_eq!(s.logical_bytes(), 1000);
        assert_eq!(s.physical_bytes(), 0); // pending placement
        s.set_placement(&p("/f"), replicated(), 1000, t(1)).unwrap();
        assert_eq!(s.physical_bytes(), 2000);
    }

    #[test]
    fn dirty_tracking_follows_parent_directories() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/a/one"), 1, t(0)).unwrap();
        s.create_file(&p("/b/two"), 2, t(0)).unwrap();
        assert_eq!(s.dirty_dirs(), vec![p("/a"), p("/b")]);

        assert_eq!(s.flush_dirty_encoded().len(), 2);
        assert!(s.dirty_dirs().is_empty());

        // A placement change redirties only the affected directory.
        s.set_placement(&p("/a/one"), replicated(), 1, t(3)).unwrap();
        assert_eq!(s.dirty_dirs(), vec![p("/a")]);
    }

    #[test]
    fn listing_is_sorted_dirs_then_files() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/d/zfile"), 1, t(0)).unwrap();
        s.create_file(&p("/d/afile"), 2, t(0)).unwrap();
        s.mkdir_all(&p("/d/subdir")).unwrap();
        let entries = s.list(&p("/d")).unwrap();
        assert!(matches!(&entries[0], DirEntry::Dir(n) if n == "subdir"));
        assert!(matches!(&entries[1], DirEntry::File(n, _) if n == "afile"));
        assert!(matches!(&entries[2], DirEntry::File(n, _) if n == "zfile"));
    }

    #[test]
    fn inodes_in_is_directory_scoped() {
        let s = ShardedMetaStore::with_shards(4);
        let one = s.create_file(&p("/a/one"), 1, t(0)).unwrap();
        s.create_file(&p("/a/b/two"), 2, t(0)).unwrap();
        let files = s.inodes_in(&p("/a")).unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!((files[0].0.as_str(), files[0].1.id), ("one", one));
    }

    #[test]
    fn all_dirs_walks_depth_first_across_shards() {
        let s = ShardedMetaStore::with_shards(7);
        s.mkdir_all(&p("/a/b")).unwrap();
        s.mkdir_all(&p("/c")).unwrap();
        let dirs: Vec<String> = s.all_dirs().iter().map(|d| d.as_str().to_string()).collect();
        assert_eq!(dirs, vec!["/", "/a", "/a/b", "/c"]);
    }

    #[test]
    fn first_flush_is_a_full_block_then_diffs() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/d/a"), 10, t(1)).unwrap();
        let first = s.flush_dirty_encoded();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, FlushKind::Block);
        assert_eq!(first[0].object, MetadataBlock::object_name(&p("/d")));
        let block = MetadataBlock::from_bytes(&first[0].bytes).unwrap();
        assert_eq!(block.entries.len(), 1);
        assert_eq!(block.version, first[0].version);

        s.set_placement(&p("/d/a"), replicated(), 10, t(2)).unwrap();
        let second = s.flush_dirty_encoded();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].kind, FlushKind::Diff);
        assert_eq!(second[0].version, first[0].version + 1);
        let diff = DiffBlock::from_bytes(&second[0].bytes).unwrap();
        assert_eq!(diff.base, first[0].version);
        assert_eq!(diff.ops.len(), 1);
    }

    #[test]
    fn unchanged_and_netted_out_dirs_flush_nothing() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/a/one"), 1, t(0)).unwrap();
        assert_eq!(s.flush_dirty_encoded().len(), 1);

        s.mkdir_all(&p("/a")).unwrap();
        assert_eq!(s.dirty_dirs().len(), 1);
        assert!(s.flush_dirty_encoded().is_empty());
        assert!(s.dirty_dirs().is_empty());

        // A failed create's rollback: insert then remove the same file.
        s.create_file(&p("/a/tmp"), 9, t(1)).unwrap();
        s.remove_file(&p("/a/tmp")).unwrap();
        assert!(s.flush_dirty_encoded().is_empty());
    }

    #[test]
    fn bare_mkdir_ships_an_empty_block() {
        let s = ShardedMetaStore::with_shards(4);
        s.mkdir_all(&p("/empty")).unwrap();
        let items = s.flush_dirty_encoded();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, FlushKind::Block);
        let block = MetadataBlock::from_bytes(&items[0].bytes).unwrap();
        assert_eq!(block.version, 0);
        assert!(block.entries.is_empty());
    }

    #[test]
    fn chains_compact_and_supersede() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/d/f"), 1, t(0)).unwrap();
        let first = s.flush_dirty_encoded();
        assert_eq!(first[0].kind, FlushKind::Block);
        let mut diff_objects = Vec::new();
        for i in 0..COMPACT_EVERY {
            s.set_placement(&p("/d/f"), replicated(), 1 + i as u64, t(i as u64 + 1)).unwrap();
            let items = s.flush_dirty_encoded();
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].kind, FlushKind::Diff, "flush {i} should be a diff");
            diff_objects.push(items[0].object.clone());
        }
        assert_eq!(s.live_diff_objects().len(), COMPACT_EVERY);
        // The next change folds the chain.
        s.set_placement(&p("/d/f"), replicated(), 99, t(99)).unwrap();
        let items = s.flush_dirty_encoded();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, FlushKind::Compact);
        assert_eq!(items[0].supersedes, diff_objects);
        assert!(s.live_diff_objects().is_empty());
        let block = MetadataBlock::from_bytes(&items[0].bytes).unwrap();
        assert_eq!(block.entries["f"].size, 99);
        assert_eq!(block.version, items[0].version);
    }

    #[test]
    fn block_plus_diff_chain_resolves_to_current_state() {
        let s = ShardedMetaStore::with_shards(4);
        s.create_file(&p("/d/a"), 1, t(0)).unwrap();
        s.create_file(&p("/d/b"), 2, t(0)).unwrap();
        let mut base = None;
        let mut diffs = Vec::new();
        for item in s.flush_dirty_encoded() {
            base = Some(MetadataBlock::from_bytes(&item.bytes).unwrap());
        }
        s.set_placement(&p("/d/a"), replicated(), 5, t(1)).unwrap();
        for item in s.flush_dirty_encoded() {
            diffs.push(DiffBlock::from_bytes(&item.bytes).unwrap());
        }
        s.remove_file(&p("/d/b")).unwrap();
        s.create_file(&p("/d/c"), 7, t(2)).unwrap();
        for item in s.flush_dirty_encoded() {
            diffs.push(DiffBlock::from_bytes(&item.bytes).unwrap());
        }
        let r = resolve_chain(base.unwrap(), diffs);
        assert_eq!(r.applied.len(), 2);
        assert_eq!(r.block.entries.keys().collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(r.block.entries["a"].size, 5);
        assert_eq!(r.block.entries["c"].size, 7);
    }

    #[test]
    fn seeded_flush_version_never_regresses() {
        let src = ShardedMetaStore::with_shards(4);
        src.create_file(&p("/d/a"), 10, t(1)).unwrap();
        src.set_placement(&p("/d/a"), replicated(), 10, t(2)).unwrap();
        let mut items = src.flush_dirty_encoded();
        let mut block = MetadataBlock::from_bytes(&items.remove(0).bytes).unwrap();
        block.version = 9; // structural bumps pushed it past any inode version

        let dst = ShardedMetaStore::with_shards(4);
        dst.load_block(&block).unwrap();
        dst.seed_flushed(&p("/d"), block.version);

        dst.mkdir_all(&p("/d")).unwrap();
        assert!(dst.flush_dirty_encoded().is_empty());

        dst.create_file(&p("/d/b"), 5, t(3)).unwrap();
        let flushed = dst.flush_dirty_encoded();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].version, 10);
        assert_eq!(flushed[0].kind, FlushKind::Diff);
    }

    #[test]
    fn load_block_merges_newer_and_creates_missing() {
        let src = ShardedMetaStore::with_shards(4);
        src.create_file(&p("/d/a"), 10, t(1)).unwrap();
        src.create_file(&p("/d/b"), 20, t(1)).unwrap();
        src.set_placement(&p("/d/a"), replicated(), 10, t(2)).unwrap();
        let items = src.flush_dirty_encoded();
        let block = MetadataBlock::from_bytes(&items[0].bytes).unwrap();

        let dst = ShardedMetaStore::with_shards(4);
        dst.create_file(&p("/d/a"), 999, t(0)).unwrap();
        dst.load_block(&block).unwrap();
        assert_eq!(dst.inode(&p("/d/a")).unwrap().size, 10);
        assert_eq!(dst.inode(&p("/d/b")).unwrap().size, 20);
        assert_eq!(dst.file_count(), 2);
        dst.load_block(&block).unwrap();
        assert_eq!(dst.file_count(), 2);

        // New ids never collide with adopted ones.
        let fresh = dst.create_file(&p("/d/new"), 1, t(5)).unwrap();
        assert!(fresh.0 > block.entries["b"].id.0);
    }

    #[test]
    fn load_block_does_not_regress_newer_local_state() {
        let src = ShardedMetaStore::with_shards(4);
        src.create_file(&p("/d/a"), 10, t(1)).unwrap();
        let items = src.flush_dirty_encoded();
        let stale_block = MetadataBlock::from_bytes(&items[0].bytes).unwrap(); // version 0 entry

        let dst = ShardedMetaStore::with_shards(4);
        dst.create_file(&p("/d/a"), 50, t(1)).unwrap();
        dst.set_placement(&p("/d/a"), replicated(), 50, t(2)).unwrap(); // version 1
        dst.load_block(&stale_block).unwrap();
        assert_eq!(dst.inode(&p("/d/a")).unwrap().size, 50, "stale block must not win");
    }

    #[test]
    fn shard_assignment_is_pure() {
        for n in [1usize, 2, 4, 16, 64] {
            for path in ["/", "/a", "/a/b", "/deep/nested/dir"] {
                let d = p(path);
                let first = ShardedMetaStore::shard_of(&d, n);
                assert!(first < n);
                assert_eq!(first, ShardedMetaStore::shard_of(&d, n));
            }
        }
    }

    #[test]
    fn flush_bytes_do_not_depend_on_shard_count() {
        let runs: Vec<Vec<FlushItem>> = [1usize, 3, 16]
            .iter()
            .map(|&n| {
                let s = ShardedMetaStore::with_shards(n);
                s.create_file(&p("/d/a"), 10, t(1)).unwrap();
                s.create_file(&p("/e/b"), 20, t(1)).unwrap();
                let mut all = s.flush_dirty_encoded();
                s.set_placement(&p("/d/a"), replicated(), 10, t(2)).unwrap();
                s.remove_file(&p("/e/b")).unwrap();
                all.extend(s.flush_dirty_encoded());
                all
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn concurrent_writers_converge_and_count_conflicts_coherently() {
        let s = ShardedMetaStore::with_shards(4);
        let threads = 8usize;
        let per_thread = 50usize;
        std::thread::scope(|scope| {
            for th in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let path = p(&format!("/hot/t{th}_{i}"));
                        s.create_file(&path, 1, t(0)).unwrap();
                        s.set_placement(&path, replicated(), 1, t(1)).unwrap();
                        if i % 3 == 0 {
                            s.remove_file(&path).unwrap();
                        }
                    }
                });
            }
        });
        let expect: usize = (0..threads).map(|_| per_thread - per_thread.div_ceil(3)).sum();
        assert_eq!(s.file_count(), expect);
        let stats = s.occ_stats();
        assert!(stats.retries <= stats.conflicts + threads as u64 * per_thread as u64);
        // Every surviving file is intact and flushable.
        let items = s.flush_dirty_encoded();
        assert_eq!(items.len(), 1);
        let block = MetadataBlock::from_bytes(&items[0].bytes).unwrap();
        assert_eq!(block.entries.len(), expect);
    }
}
