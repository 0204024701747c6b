//! The small-file write-through cache (DESIGN.md §8.1).

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use hyrd_metastore::NormPath;

/// Bounded write-through cache of small-file contents, so small updates
/// need no read round. FIFO eviction is enough: the workloads touch
/// recent files.
///
/// An entry is the client's one copy of a replicated file (DESIGN.md
/// §8.1): the dispatcher's update `lend`s it out, patches the buffer
/// where it lies and [`put`](Self::put)s it back, or hands the
/// pre-update bytes back (`hand_back`) when no replica took the write.
///
/// Entries carry a generation stamp so removal and re-insertion are
/// O(1): the FIFO keeps stale `(path, generation)` records and the
/// eviction loop discards any whose generation no longer matches the
/// live entry (the classic lazy-deletion queue — the previous
/// `order.retain` walked the whole queue on every update/delete, which
/// was quadratic over a replay).
///
/// The replicated baselines keep their client copy in one too.
pub struct SmallFileCache {
    budget: usize,
    used: usize,
    generation: u64,
    map: HashMap<NormPath, Slot>,
    order: VecDeque<(NormPath, u64)>,
}

struct Slot {
    /// `None` while lent out to an updater; the slot then reads as a
    /// miss but keeps its budget share and its place in the FIFO.
    data: Option<Bytes>,
    /// Bytes held against the budget, lent out or not.
    len: usize,
    generation: u64,
}

impl SmallFileCache {
    /// An empty cache holding at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        SmallFileCache {
            budget,
            used: 0,
            generation: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Caches `data` as the content of `path`, evicting the oldest
    /// entries past the budget.
    pub fn put(&mut self, path: &NormPath, data: Bytes) {
        // A payload larger than the whole budget can never stay resident:
        // admitting it would evict every live entry and then evict itself
        // — a full cache flush that caches nothing. Reject it up front.
        // Any previously cached entry for the path still goes: the
        // authoritative content just changed, so the cached bytes are
        // stale either way.
        if data.len() > self.budget {
            self.remove(path.as_str());
            return;
        }
        // The key shares the caller's path, in the map and the FIFO.
        if let Some(old) = self.map.remove(path.as_str()) {
            self.used -= old.len;
        }
        let key = path.clone();
        self.generation += 1;
        self.used += data.len();
        let slot = Slot { len: data.len(), data: Some(data), generation: self.generation };
        self.map.insert(key.clone(), slot);
        self.order.push_back((key, self.generation));
        while self.used > self.budget {
            let Some((victim, generation)) = self.order.pop_front() else {
                break;
            };
            // Stale record: the path was removed or re-inserted since.
            if self.map.get(&victim).is_some_and(|slot| slot.generation == generation) {
                self.remove(victim.as_str());
            }
        }
        // Bound the stale-record backlog independently of the byte
        // budget so `order` cannot grow past O(live entries).
        if self.order.len() > self.map.len() * 2 + 16 {
            let map = &self.map;
            self.order.retain(|(p, g)| map.get(p).is_some_and(|slot| slot.generation == *g));
        }
    }

    /// A shared view of the entry (the migration engine's read; the
    /// dispatcher's update takes the entry itself with `lend`).
    pub fn get(&self, path: &str) -> Option<Bytes> {
        self.map.get(path).and_then(|slot| slot.data.clone())
    }

    /// Moves the `len`-byte entry for `path` out for mutation, with the
    /// generation to present when handing it back. The slot stays — its
    /// budget share, its generation, its FIFO record — so the cache is
    /// exactly as [`Self::get`] would have left it, except that until the
    /// updater's [`Self::put`] or [`Self::hand_back`] the path reads as a
    /// miss. An entry of any other length does not describe the file the
    /// caller is updating and is a miss too.
    pub(crate) fn lend(&mut self, path: &str, len: usize) -> Option<(Bytes, u64)> {
        let slot = self.map.get_mut(path).filter(|slot| slot.len == len)?;
        Some((slot.data.take()?, slot.generation))
    }

    /// Returns lent bytes unchanged (the update failed): the slot is
    /// whole again, at its old generation and FIFO position. A slot that
    /// was removed, evicted or re-inserted in the meantime is not
    /// resurrected — the generation no longer matches and the bytes drop.
    pub(crate) fn hand_back(&mut self, path: &str, generation: u64, data: Bytes) {
        if let Some(slot) = self.map.get_mut(path) {
            if slot.generation == generation && slot.len == data.len() {
                slot.data = Some(data);
            }
        }
    }

    /// Drops the entry for `path`, if any.
    pub fn remove(&mut self, path: &str) {
        if let Some(slot) = self.map.remove(path) {
            self.used -= slot.len;
            // The FIFO record goes stale and is skipped at eviction.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn p(path: &str) -> NormPath {
        NormPath::parse(path).expect("well-formed")
    }

    #[test]
    fn oversized_cache_put_is_rejected_without_flushing_live_entries() {
        let mut cache = SmallFileCache::new(100);
        cache.put(&p("/a"), Bytes::from(vec![1u8; 40]));
        cache.put(&p("/b"), Bytes::from(vec![2u8; 40]));
        assert_eq!(cache.used, 80);

        // A payload over the whole budget must not land — and, crucially,
        // must not evict every live entry on its way to being evicted
        // itself (the pre-fix behaviour flushed the entire cache).
        cache.put(&p("/huge"), Bytes::from(vec![3u8; 101]));
        assert!(cache.get("/huge").is_none());
        assert_eq!(cache.used, 80, "live entries survive an oversized put");
        assert_eq!(cache.map.len(), 2);
        assert!(cache.get("/a").is_some());
        assert!(cache.get("/b").is_some());
    }

    #[test]
    fn oversized_cache_put_still_invalidates_the_stale_entry() {
        let mut cache = SmallFileCache::new(100);
        cache.put(&p("/f"), Bytes::from(vec![1u8; 30]));
        cache.put(&p("/other"), Bytes::from(vec![2u8; 30]));
        // The file grew past the budget: its cached bytes are stale and
        // must go, but unrelated entries stay.
        cache.put(&p("/f"), Bytes::from(vec![9u8; 200]));
        assert!(cache.get("/f").is_none());
        assert!(cache.get("/other").is_some());
        assert_eq!(cache.used, 30);
        assert_eq!(cache.map.len(), 1);
    }

    /// The cache as it was before entries could be lent out — `get` a
    /// shared view, `put` the patched copy — kept as the oracle for
    /// [`lending_cache_matches_the_get_put_oracle`].
    struct OracleCache {
        budget: usize,
        used: usize,
        generation: u64,
        map: HashMap<Arc<str>, (Bytes, u64)>,
        order: VecDeque<(Arc<str>, u64)>,
    }

    impl OracleCache {
        fn put(&mut self, path: &str, data: Bytes) {
            if data.len() > self.budget {
                self.remove(path);
                return;
            }
            let key = match self.map.remove_entry(path) {
                Some((key, (old, _))) => {
                    self.used -= old.len();
                    key
                }
                None => Arc::from(path),
            };
            self.generation += 1;
            self.used += data.len();
            self.map.insert(key.clone(), (data, self.generation));
            self.order.push_back((key, self.generation));
            while self.used > self.budget {
                let Some((victim, generation)) = self.order.pop_front() else {
                    break;
                };
                let live = self.map.get(&victim).is_some_and(|(_, g)| *g == generation);
                if live {
                    if let Some((b, _)) = self.map.remove(&victim) {
                        self.used -= b.len();
                    }
                }
            }
            if self.order.len() > self.map.len() * 2 + 16 {
                let map = &self.map;
                self.order.retain(|(p, g)| map.get(p).is_some_and(|(_, live)| live == g));
            }
        }

        fn get(&self, path: &str) -> Option<Bytes> {
            self.map.get(path).map(|(b, _)| b.clone())
        }

        fn remove(&mut self, path: &str) {
            if let Some((b, _)) = self.map.remove(path) {
                self.used -= b.len();
            }
        }
    }

    /// Same budget accounting, same generations, same FIFO — hence the
    /// same eviction victims in the same order — and, for every path not
    /// lent out right now, the same bytes.
    fn assert_same_state(cache: &SmallFileCache, oracle: &OracleCache, lent: Option<&str>) {
        assert_eq!(cache.used, oracle.used);
        assert_eq!(cache.generation, oracle.generation);
        let order = |o: &VecDeque<(NormPath, u64)>| -> Vec<(String, u64)> {
            o.iter().map(|(path, g)| (path.to_string(), *g)).collect()
        };
        let oracle_order: Vec<(String, u64)> =
            oracle.order.iter().map(|(path, g)| (path.to_string(), *g)).collect();
        assert_eq!(order(&cache.order), oracle_order);
        assert_eq!(cache.map.len(), oracle.map.len());
        for (path, (bytes, generation)) in &oracle.map {
            let slot = &cache.map[&**path];
            assert_eq!((slot.len, slot.generation), (bytes.len(), *generation), "{path}");
            if lent == Some(&**path) {
                assert!(slot.data.is_none() && cache.get(path).is_none(), "{path} is lent");
            } else {
                assert_eq!(slot.data.as_ref(), Some(bytes), "{path}");
            }
        }
    }

    fn put_both(cache: &mut SmallFileCache, oracle: &mut OracleCache, path: &str, data: Bytes) {
        cache.put(&p(path), data.clone());
        oracle.put(path, data);
    }

    /// The path whose slot is lent out: the loan's, until that slot is
    /// removed, evicted or replaced (the oracle's entry then no longer
    /// carries the generation the loan was taken at).
    fn lent_now<'a>(loan: &Option<(&'a str, Bytes, u64)>, oracle: &OracleCache) -> Option<&'a str> {
        let (path, _, generation) = loan.as_ref()?;
        oracle.map.get(*path).is_some_and(|(_, live)| live == generation).then_some(*path)
    }

    /// Random put / update (lend, then put or hand back) / remove / get
    /// sequences over a budget a few entries wide, with other operations
    /// landing while an entry is lent out: the lending cache answers and
    /// evicts exactly as `get` + `put` did, a failed update leaves no
    /// trace, a lent slot reads as a miss, and a remove during the loan
    /// is not undone by handing the bytes back.
    #[test]
    fn lending_cache_matches_the_get_put_oracle() {
        const PATHS: [&str; 6] = ["/a", "/b", "/c", "/d", "/e", "/f"];
        for seed in 0..200u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut cache = SmallFileCache::new(100);
            let mut oracle = OracleCache {
                budget: 100,
                used: 0,
                generation: 0,
                map: HashMap::new(),
                order: VecDeque::new(),
            };
            // What the metadata says each file's size is.
            let mut sizes: HashMap<&str, usize> = HashMap::new();
            // The update in flight: its path, the lent bytes, their generation.
            let mut loan: Option<(&str, Bytes, u64)> = None;
            let mut stamp = 0u8;
            let mut fresh = |len: usize| {
                stamp = stamp.wrapping_add(1);
                Bytes::from(vec![stamp; len])
            };
            for _ in 0..400 {
                let path = PATHS[rand(PATHS.len())];
                match rand(6) {
                    // Create (or migrate in): a few sizes, so a path is
                    // often re-created at the length a loan was taken at,
                    // and now and then one over the budget.
                    0 => {
                        let len = [10, 25, 40, 55, 70, 130][rand(6)];
                        sizes.insert(path, len);
                        put_both(&mut cache, &mut oracle, path, fresh(len));
                    }
                    // An update starts, or the one in flight ends.
                    1 | 2 => match loan.take() {
                        None => {
                            let Some(&size) = sizes.get(path) else { continue };
                            let held = oracle.get(path).filter(|b| b.len() == size);
                            let lent = cache.lend(path, size);
                            assert_eq!(lent.as_ref().map(|(b, _)| b), held.as_ref(), "hit or miss");
                            match lent {
                                Some((bytes, generation)) => loan = Some((path, bytes, generation)),
                                // A miss fetches a replica; the update
                                // lands (and caches it) or fails.
                                None if rand(2) == 0 => {
                                    put_both(&mut cache, &mut oracle, path, fresh(size))
                                }
                                None => {}
                            }
                        }
                        Some((path, bytes, _)) if rand(2) == 0 => {
                            put_both(&mut cache, &mut oracle, path, fresh(bytes.len()))
                        }
                        // Every replica refused: the oracle does nothing.
                        Some((path, bytes, generation)) => cache.hand_back(path, generation, bytes),
                    },
                    // Delete (or migrate out), lent or not.
                    3 => {
                        sizes.remove(path);
                        cache.remove(path);
                        oracle.remove(path);
                    }
                    _ if lent_now(&loan, &oracle) == Some(path) => {
                        assert!(cache.get(path).is_none(), "a lent slot reads as a miss");
                        assert!(cache.lend(path, sizes[path]).is_none(), "and lends once");
                    }
                    _ => assert_eq!(cache.get(path), oracle.get(path)),
                }
                assert_same_state(&cache, &oracle, lent_now(&loan, &oracle));
            }
        }
    }

    #[test]
    fn exactly_budget_sized_put_is_admitted() {
        let mut cache = SmallFileCache::new(100);
        cache.put(&p("/f"), Bytes::from(vec![1u8; 100]));
        assert!(cache.get("/f").is_some());
        assert_eq!(cache.used, 100);
    }
}
