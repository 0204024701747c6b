//! Shared plumbing for the baseline schemes: replica fan-out with outage
//! logging, fastest-first reads and erasure-coded object I/O.

use std::sync::Arc;

use bytes::Bytes;

use hyrd::recovery::UpdateLog;
use hyrd::scheme::{SchemeError, SchemeResult};
use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{BatchReport, CloudError, CloudStorage, ObjectKey, OpReport, ProviderId};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::{ErasureCode, FragmentLayout};
use hyrd_metastore::{DirEntry, MetadataBlock, NormPath, ShardedMetaStore};

/// The container every scheme stores under.
pub fn key(name: &str) -> ObjectKey {
    ObjectKey::new(Fleet::CONTAINER, name)
}

/// How a replica write round composes into the latency the client sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteRule {
    /// One target after another (latency = sum) — DuraCloud's
    /// synchronised path: primary copy, then the sync to the secondary.
    Serial,
    /// Every target at once, acknowledged at the `k`-th fastest put that
    /// landed; the stragglers complete in the background, still charged
    /// as ops. `k = n` is a plain parallel write (latency = max), DepSky's
    /// majority quorum is `k = n / 2 + 1`. With fewer than `k` landed the
    /// write waits for the slowest survivor, hoping for a quorum.
    AckedAt(usize),
}

impl WriteRule {
    /// The batch of the puts that landed, timed under this rule.
    fn compose(self, ops: Vec<OpReport>) -> BatchReport {
        match self {
            WriteRule::Serial => BatchReport::serial(ops),
            WriteRule::AckedAt(k) if k < ops.len() => {
                let mut lats: Vec<_> = ops.iter().map(|o| o.latency).collect();
                lats.sort();
                BatchReport { latency: lats[k - 1], ops }
            }
            WriteRule::AckedAt(_) => BatchReport::parallel(ops),
        }
    }
}

/// What one replica write round sends each target.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Write<'a> {
    /// The whole object.
    Put(&'a Bytes),
    /// `patch` at `offset`. A target that misses it gets `full`, the
    /// whole new content, logged: the replay log restores whole objects.
    Range { offset: u64, patch: &'a Bytes, full: &'a Bytes },
}

/// Writes `name` to every target, timed under `rule`. Unavailable
/// targets get the whole object logged; the batch holds one op per
/// target the write landed on (none: the write failed everywhere).
pub(crate) fn put_all(
    providers: &[Arc<SimProvider>],
    name: &str,
    write: Write<'_>,
    rule: WriteRule,
    log: &mut UpdateLog,
) -> BatchReport {
    let k = key(name);
    let mut ops = Vec::new();
    for p in providers {
        let landed = match write {
            Write::Put(data) => p.put(&k, data.clone()),
            Write::Range { offset, patch, .. } => p.put_range(&k, offset, patch.clone()),
        };
        match landed {
            Ok(out) => ops.push(out.report),
            Err(_) => {
                let (Write::Put(whole) | Write::Range { full: whole, .. }) = write;
                log.log_put(p.id(), k.clone(), whole.clone())
            }
        }
    }
    rule.compose(ops)
}

/// Takes a refused replica write back out of the log. A write no target
/// took left each target's record holding it; each is superseded by
/// `before`, or by a remove when there was no object before, so that
/// replay restores what the caller was told still stands — as HyRD's
/// `roll_back_logged` does.
pub(crate) fn roll_back_logged(
    providers: &[Arc<SimProvider>],
    name: &str,
    before: Option<&Bytes>,
    log: &mut UpdateLog,
) {
    let k = key(name);
    for p in providers {
        match before {
            Some(bytes) => log.log_put(p.id(), k.clone(), bytes.clone()),
            None => log.log_remove(p.id(), k.clone()),
        }
    }
}

/// Gets the object from the first provider (in the given order) that
/// serves it.
pub fn get_first(
    providers: &[Arc<SimProvider>],
    name: &str,
    path: &str,
) -> SchemeResult<(Bytes, BatchReport)> {
    let k = key(name);
    for p in providers {
        if let Ok(out) = p.get(&k) {
            return Ok((out.value, BatchReport::parallel(vec![out.report])));
        }
    }
    Err(SchemeError::DataUnavailable {
        path: path.to_string(),
        detail: format!("no replica of '{name}' reachable"),
    })
}

/// Removes an object from every provider in parallel, logging removes on
/// the unavailable ones; missing objects are tolerated.
pub fn remove_everywhere(
    providers: &[Arc<SimProvider>],
    name: &str,
    log: &mut UpdateLog,
) -> BatchReport {
    let k = key(name);
    let mut ops = Vec::new();
    for p in providers {
        match p.remove(&k) {
            Ok(out) => ops.push(out.report),
            Err(CloudError::Unavailable { .. }) => log.log_remove(p.id(), k.clone()),
            Err(_) => {}
        }
    }
    BatchReport::parallel(ops)
}

/// Orders providers fastest-first by their calibrated expected latency at
/// a small probe size (baselines pick replicas greedily; HyRD's evaluator
/// does the same thing through measurements).
pub fn fastest_first(providers: &[Arc<SimProvider>]) -> Vec<Arc<SimProvider>> {
    let mut v: Vec<Arc<SimProvider>> = providers.to_vec();
    v.sort_by_key(|p| p.profile().latency.expected_latency(hyrd_gcsapi::OpKind::Get, 64 * 1024));
    v
}

/// Where each fragment of an object lives: `(provider, object name)`.
pub type FragmentMap = Vec<(ProviderId, Arc<str>)>;

/// What [`ec_write`] put where.
pub struct EcWrite {
    pub layout: FragmentLayout,
    /// The fragment map for the placement record.
    pub fragments: FragmentMap,
    pub report: BatchReport,
    /// Fragments that landed (the rest are in the update log).
    pub live: usize,
}

/// Erasure-codes `data` and puts fragment `i` on `providers[(i + rot) %
/// n]` in parallel — `rot` rotates parity placement across objects, the
/// RAID5 layout RACS uses.
pub fn ec_write<C: ErasureCode + ?Sized>(
    planner: &StripePlanner,
    code: &C,
    providers: &[Arc<SimProvider>],
    base_name: &str,
    data: &[u8],
    rot: usize,
    log: &mut UpdateLog,
) -> SchemeResult<EcWrite> {
    let (layout, frags) = planner.split_encode(code, data)?;
    let n = frags.len();
    assert_eq!(n, providers.len(), "one fragment per provider");
    let mut ops = Vec::new();
    let mut live = 0;
    let mut map = Vec::with_capacity(n);
    for (index, frag) in frags.into_iter().enumerate() {
        let p = &providers[(index + rot) % n];
        let name: Arc<str> = hyrd::scheme::fragment_name(base_name, index);
        let k = ObjectKey::shared(Fleet::CONTAINER, Arc::clone(&name));
        let bytes = Bytes::from(frag);
        match p.put(&k, bytes.clone()) {
            Ok(out) => {
                ops.push(out.report);
                live += 1;
            }
            Err(_) => log.log_put(p.id(), k, bytes),
        }
        map.push((p.id(), name));
    }
    Ok(EcWrite { layout, fragments: map, report: BatchReport::parallel(ops), live })
}

/// Reads an erasure-coded object: the `m` data fragments when all their
/// providers are up, otherwise any `m` reachable fragments with a decode
/// (the degraded read that pulls extra providers in — the RACS behaviour
/// §IV-C calls out).
pub fn ec_read<C: ErasureCode + ?Sized>(
    code: &C,
    fleet_lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
) -> SchemeResult<(Bytes, BatchReport)> {
    let m = layout.m;
    // Preferred order: data fragments first (free decode), then parity.
    let mut got: Vec<(usize, Bytes)> = Vec::with_capacity(m);
    let mut ops = Vec::new();
    for (idx, (pid, name)) in fragments.iter().enumerate() {
        if got.len() == m {
            break;
        }
        let p = fleet_lookup(*pid);
        if !p.is_available() {
            continue;
        }
        if let Ok(out) = p.get(&key(name)) {
            ops.push(out.report);
            got.push((idx, out.value));
        }
    }
    if got.len() < m {
        return Err(SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("{} of {} fragments reachable, need {m}", got.len(), fragments.len()),
        });
    }
    let object = hyrd_gfec::decode_object(code, layout, &got)?;
    Ok((Bytes::from(object), BatchReport::parallel(ops)))
}

/// State every baseline scheme carries: the fleet handle, a metadata
/// store and the outage log. Scheme structs
/// embed this and differ only in *placement policy*.
pub struct SchemeCore {
    /// The Cloud-of-Clouds.
    pub fleet: Fleet,
    /// Client-side metadata (one shard: baselines are single-session).
    pub meta: ShardedMetaStore,
    /// Missed writes per provider in outage.
    pub log: UpdateLog,
}

impl SchemeCore {
    /// Builds the core over a fleet.
    pub fn new(fleet: &Fleet) -> Self {
        SchemeCore {
            fleet: fleet.clone(),
            meta: ShardedMetaStore::with_shards(1),
            log: UpdateLog::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> std::time::Duration {
        self.fleet.clock().now()
    }

    /// Provider lookup (placements always reference fleet members).
    pub fn provider(&self, id: ProviderId) -> Arc<SimProvider> {
        self.fleet.get(id).expect("placement providers come from the fleet").clone()
    }

    /// Replays the outage log for a returned provider.
    pub fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(hyrd::recovery::RecoveryReport, BatchReport)> {
        let p = self.provider(id);
        Ok(self.log.replay(p.as_ref())?)
    }

    /// Takes back an erasure-coded write that landed on too few
    /// providers: a fragment that landed is removed again, and one that
    /// did not has its logged put superseded by a remove (or dropped,
    /// when its provider answers that there is nothing to remove) — as
    /// HyRD's `create_large` retires the fragments of such a write.
    pub fn retire(&mut self, fragments: &FragmentMap) {
        for (pid, name) in fragments {
            let k = key(name);
            match self.provider(*pid).remove(&k) {
                Ok(_)
                | Err(CloudError::NoSuchObject { .. } | CloudError::NoSuchContainer { .. }) => {
                    self.log.discharge(*pid, &k);
                }
                Err(_) => self.log.log_remove(*pid, k),
            }
        }
    }

    /// Directory-listing names from local metadata.
    pub fn local_listing(&self, dir: &NormPath) -> SchemeResult<Vec<String>> {
        Ok(self
            .meta
            .list(dir)?
            .into_iter()
            .map(|e| match e {
                DirEntry::Dir(n) => n,
                DirEntry::File(n, _) => n,
            })
            .collect())
    }

    /// Flushes the metastore and hands `ship` one object per directory
    /// whose metadata changed — `(core, object name, block bytes)` —
    /// composing the returned batches as concurrent. The baselines
    /// re-replicate a directory's **full** block on every change (HyRD's
    /// incremental diffs are part of what they are compared against), so
    /// a flush item is read only as "directory D is now at version V".
    pub fn flush_metadata(
        &mut self,
        mut ship: impl FnMut(&mut SchemeCore, &str, Vec<u8>) -> BatchReport,
    ) -> BatchReport {
        let mut batch = BatchReport::empty();
        for item in self.meta.flush_dirty_encoded() {
            let entries = self.meta.inodes_in(&item.dir).expect("flushed directories exist");
            let block = MetadataBlock {
                dir: item.dir,
                version: item.version,
                entries: entries.into_iter().collect(),
            };
            let name = MetadataBlock::object_name(&block.dir);
            batch = batch.alongside(ship(self, &name, block.to_bytes()));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;
    use hyrd_gfec::Raid5;

    fn fleet() -> Fleet {
        Fleet::standard_four(SimClock::new())
    }

    /// A plain parallel write round: `(batch, live)`.
    fn put_parallel(
        providers: &[Arc<SimProvider>],
        name: &str,
        data: &Bytes,
        log: &mut UpdateLog,
    ) -> (BatchReport, usize) {
        let batch =
            put_all(providers, name, Write::Put(data), WriteRule::AckedAt(providers.len()), log);
        let live = batch.op_count();
        (batch, live)
    }

    /// A serial write round: `(batch, live)`.
    fn put_serial(
        providers: &[Arc<SimProvider>],
        name: &str,
        data: &Bytes,
        log: &mut UpdateLog,
    ) -> (BatchReport, usize) {
        let batch = put_all(providers, name, Write::Put(data), WriteRule::Serial, log);
        let live = batch.op_count();
        (batch, live)
    }

    #[test]
    fn flush_metadata_ships_one_full_block_per_changed_directory() {
        use hyrd_metastore::Placement;

        let mut core = SchemeCore::new(&fleet());
        let dir = NormPath::parse("/d").unwrap();
        let file = |i: usize| dir.join(&format!("f{i}")).unwrap();
        let placed = |object: &str| Placement::Replicated {
            providers: vec![ProviderId(0)],
            object: object.into(),
        };
        // Flushes the way every scheme does, recording what was shipped.
        fn flush(core: &mut SchemeCore) -> Vec<(String, Vec<u8>)> {
            let mut shipped = Vec::new();
            core.flush_metadata(|_, name, bytes| {
                shipped.push((name.to_string(), bytes));
                BatchReport::empty()
            });
            shipped
        }
        // The one object a changed `/d` must ship: its full current block.
        let full_block = |core: &SchemeCore, version: u64| {
            let entries = core.meta.inodes_in(&dir).unwrap().into_iter().collect();
            let block = MetadataBlock { dir: dir.clone(), version, entries };
            vec![(MetadataBlock::object_name(&dir).to_string(), block.to_bytes())]
        };

        // N creates (create + place, like `Scheme::create_file`): the
        // first flush is at the max inode version, then +1 per change.
        let v0 = 1;
        for i in 0..3 {
            core.meta.create_file(&file(i), 10, core.now()).unwrap();
            core.meta.set_placement(&file(i), placed("o"), 10, core.now()).unwrap();
            assert_eq!(flush(&mut core), full_block(&core, v0 + i as u64), "create {i}");
        }
        // An update and a delete each re-ship the whole block — never a diff.
        core.meta.set_placement(&file(0), placed("o2"), 12, core.now()).unwrap();
        assert_eq!(flush(&mut core), full_block(&core, v0 + 3));
        core.meta.remove_file(&file(1)).unwrap();
        assert_eq!(flush(&mut core), full_block(&core, v0 + 4));

        // A rolled-back create ships nothing and burns no version.
        core.meta.create_file(&file(9), 10, core.now()).unwrap();
        core.meta.remove_file(&file(9)).unwrap();
        assert!(flush(&mut core).is_empty());
        core.meta.remove_file(&file(2)).unwrap();
        assert_eq!(flush(&mut core), full_block(&core, v0 + 5));
    }

    #[test]
    fn put_parallel_vs_serial_latency() {
        let f = fleet();
        let mut log = UpdateLog::new();
        let data = Bytes::from(vec![0u8; 256 * 1024]);
        let (par, live_p) = put_parallel(f.providers(), "par", &data, &mut log);
        let (ser, live_s) = put_serial(f.providers(), "ser", &data, &mut log);
        assert_eq!(live_p, 4);
        assert_eq!(live_s, 4);
        assert!(ser.latency > par.latency, "serial must sum, parallel max");
    }

    #[test]
    fn put_logs_unavailable_targets() {
        let f = fleet();
        f.by_name("Aliyun").unwrap().force_down();
        let mut log = UpdateLog::new();
        let (_, live) = put_parallel(f.providers(), "x", &Bytes::from_static(b"d"), &mut log);
        assert_eq!(live, 3);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn get_first_respects_order_and_falls_over() {
        let f = fleet();
        let mut log = UpdateLog::new();
        put_parallel(f.providers(), "obj", &Bytes::from_static(b"v"), &mut log);
        let order = fastest_first(f.providers());
        assert_eq!(order[0].name(), "Aliyun");
        let (_, report) = get_first(&order, "obj", "/p").unwrap();
        assert_eq!(report.ops[0].provider, order[0].id());

        order[0].force_down();
        let (_, report) = get_first(&order, "obj", "/p").unwrap();
        assert_eq!(report.ops[0].provider, order[1].id());
    }

    #[test]
    fn ec_write_read_roundtrip_with_rotation() {
        let f = fleet();
        let planner = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let mut log = UpdateLog::new();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();

        for rot in 0..4 {
            let EcWrite { layout, fragments: map, live, .. } = ec_write(
                &planner,
                &code,
                f.providers(),
                &format!("obj{rot}"),
                &data,
                rot,
                &mut log,
            )
            .unwrap();
            assert_eq!(live, 4);
            // Rotation moves the parity fragment (index 3) around.
            assert_eq!(map[3].0, f.providers()[(3 + rot) % 4].id());

            let lookup = |id: ProviderId| f.get(id).unwrap().clone();
            let (bytes, report) = ec_read(&code, &lookup, &layout, &map, "/p").unwrap();
            assert_eq!(&bytes[..], &data[..]);
            assert_eq!(report.op_count(), 3, "reads the three data fragments");
        }
    }

    #[test]
    fn ec_read_degrades_around_an_outage() {
        let f = fleet();
        let planner = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let mut log = UpdateLog::new();
        let data = vec![7u8; 50_000];
        let EcWrite { layout, fragments: map, .. } =
            ec_write(&planner, &code, f.providers(), "obj", &data, 0, &mut log).unwrap();

        // Down the provider holding data fragment 0.
        let victim = map[0].0;
        f.get(victim).unwrap().force_down();
        let lookup = |id: ProviderId| f.get(id).unwrap().clone();
        let (bytes, report) = ec_read(&code, &lookup, &layout, &map, "/p").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(report.op_count(), 3);
        assert!(report.ops.iter().all(|o| o.provider != victim));
    }

    #[test]
    fn remove_everywhere_tolerates_missing_and_logs_down() {
        let f = fleet();
        let mut log = UpdateLog::new();
        put_parallel(&f.providers()[..2], "only-two", &Bytes::from_static(b"x"), &mut log);
        f.providers()[0].force_down();
        let batch = remove_everywhere(f.providers(), "only-two", &mut log);
        // Provider 1 removed it; 0 logged; 2 and 3 never had it (fine).
        assert_eq!(batch.op_count(), 1);
        assert_eq!(log.pending_for(f.providers()[0].id()).len(), 1);
    }
}
