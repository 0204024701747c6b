//! Shared erasure-coded object operations over a provider fleet: the
//! range-granular update engine (normal and degraded) and the fragment
//! rebuild used by the consistency-update phase of recovery. Both HyRD's
//! dispatcher and the erasure-coded baselines (RACS, NCCloud-lite) run on
//! this module, so the paper's write-amplification accounting has exactly
//! one implementation.
//!
//! ## Update paths
//!
//! * **Ranged RMW** (every touched provider reachable): read the touched
//!   byte ranges of the affected data fragments plus each parity shard's
//!   window, apply the linear delta, write the ranges back. For the
//!   paper's RAID5 sub-shard update this is exactly "2 reads + 2 writes"
//!   (§I), transferring only the touched bytes.
//! * **Degraded update** (some fragment provider in outage, but ≥ m
//!   reachable): fetch the parity window from every reachable fragment,
//!   decode the data windows, patch, recompute parity windows, write the
//!   ranges to the reachable fragments — and mark the unreachable
//!   fragments **dirty**. Dirty fragments are rebuilt from survivors when
//!   their provider returns ([`rebuild_fragment`]), completing §III-C's
//!   "consistency update upon service's return".

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;

use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{parallel_latency, BatchReport, CloudStorage, ObjectKey, OpReport, ProviderId};
use hyrd_gfec::stripe::FragmentLayout;
use hyrd_gfec::update::{
    apply_ranged_update_into, parity_window, plan_update, Indices, UpdatePlan,
};
use hyrd_gfec::{ErasureCode, InlineVec, INLINE};
use hyrd_telemetry::Collector;

use crate::integrity::Verdict;
use crate::journal::FragWrite;
use crate::recovery::RecoveryReport;
use crate::scheme::{SchemeError, SchemeResult};

fn key(name: &Arc<str>) -> ObjectKey {
    ObjectKey::shared(Fleet::CONTAINER, Arc::clone(name))
}

/// Escalates an injected client crash before the caller's fault
/// tolerance can swallow it: a dead client must not mark fragments
/// dirty and ack the update (the crash harness would then observe an
/// acked write whose bytes exist nowhere).
fn chk<T>(r: hyrd_gcsapi::CloudResult<T>) -> hyrd_gcsapi::CloudResult<T> {
    if let Err(e) = &r {
        crate::crashtest::escalate_if_crashed(e);
    }
    r
}

/// Traces one fragment write that missed during an update: the exposure
/// tracker opens a below-redundancy interval keyed on exactly these
/// fields (path, fragment index, provider) and closes it again at the
/// matching `recovery.rebuild`.
fn note_missed_write(
    telemetry: &Collector,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    path: &str,
    w: &FragWrite,
) {
    if telemetry.enabled() {
        telemetry
            .event("update.dirty")
            .field("path", path)
            .field("fragment", w.index as u64)
            .field("provider", lookup(w.provider).name())
            .emit();
        telemetry.inc("update.dirty", 1);
    }
}

/// Fragments that missed a write during an outage and must be rebuilt
/// from survivors when their provider returns, keyed by file path.
/// `BTreeMap` so recovery and scrub iterate paths deterministically.
#[derive(Debug, Clone, Default)]
pub struct DirtyFragments {
    map: BTreeMap<String, BTreeSet<usize>>,
}

impl DirtyFragments {
    /// An empty set.
    pub fn new() -> Self {
        DirtyFragments::default()
    }

    /// Marks fragment `index` of `path` as needing rebuild.
    pub fn mark(&mut self, path: &str, index: usize) {
        self.map.entry(path.to_string()).or_default().insert(index);
    }

    /// Total dirty fragments.
    pub fn len(&self) -> usize {
        self.map.values().map(|s| s.len()).sum()
    }

    /// Whether anything is dirty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all entries for a deleted path.
    pub fn forget(&mut self, path: &str) {
        self.map.remove(path);
    }

    /// Whether fragment `index` of `path` is dirty (its stored bytes are
    /// stale and must not serve reads).
    pub fn contains(&self, path: &str, index: usize) -> bool {
        self.map.get(path).is_some_and(|s| s.contains(&index))
    }

    /// Paths with dirty fragments (for recovery iteration).
    pub fn paths(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    /// Takes the indices of the first dirty path after `after` (of the
    /// first path, when `after` is empty), leaving that path clean, and
    /// leaves the path in `after`: a walk that puts some paths back as it
    /// goes visits each path once, and copies each name into one reused
    /// buffer.
    pub fn take_next(&mut self, after: &mut String) -> Option<BTreeSet<usize>> {
        let (path, _) =
            self.map.range::<str, _>((Bound::Excluded(after.as_str()), Bound::Unbounded)).next()?;
        after.clear();
        after.push_str(path);
        self.map.remove(after.as_str())
    }

    /// Takes the dirty indices of one path (leaving it clean).
    pub fn take(&mut self, path: &str) -> BTreeSet<usize> {
        self.map.remove(path).unwrap_or_default()
    }

    /// Puts back indices that could not be rebuilt yet.
    pub fn put_back(&mut self, path: &str, indices: BTreeSet<usize>) {
        if !indices.is_empty() {
            self.map.entry(path.to_string()).or_default().extend(indices);
        }
    }
}

/// Outcome of an erasure-coded update.
pub struct EcUpdateOutcome {
    /// Latency/ops of the update: its reads, then its writes.
    pub batch: BatchReport,
    /// Fragment indices that missed the write (mark these dirty), in
    /// index order.
    pub missed: Indices,
}

/// Judges a fetched source before a rebuild trusts it: `(provider,
/// object name, bytes)`. HyRD passes its integrity check, which counts
/// what it finds corrupt; a scheme that keeps no digests passes
/// [`unverified`].
pub type Verifier<'a> = &'a dyn Fn(ProviderId, &str, &[u8]) -> Verdict;

/// The [`Verifier`] of a scheme that keeps no digests: every source is
/// [`Verdict::Unknown`] and used as fetched.
pub fn unverified(_: ProviderId, _: &str, _: &[u8]) -> Verdict {
    Verdict::Unknown
}

/// Range-granular update of an erasure-coded object (see module docs).
#[allow(clippy::too_many_arguments)]
pub fn ranged_update<C: ErasureCode + ?Sized>(
    code: &C,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
    offset: usize,
    data: &[u8],
) -> SchemeResult<EcUpdateOutcome> {
    let (wal, ops) = (None, Vec::new());
    ranged_update_with(code, lookup, telemetry, layout, fragments, path, offset, data, wal, ops)
}

/// [`ranged_update`] with a write-ahead hook: `wal`, when present, is
/// invoked with the *complete* planned write set (data segments and
/// parity windows, with their final bytes and offsets) after the delta
/// is computed but before the first range write is issued. The crash
/// journal uses it to record an intent that can be rolled forward if
/// the client dies mid-write-phase.
///
/// `ops` is the request's op list, empty: the update appends its reads
/// and then its writes, reserving room for both (`2n` ops bound either
/// path), and returns it in its batch — room the caller reserved
/// beforehand for what it appends afterwards (a metadata flush) spares
/// the list a second allocation. Both paths compute the new parity
/// windows into one buffer and hand them to one write phase; every other
/// list is inline. So the update allocates the ranges it writes and, at
/// most, its op list.
// `wal` is an optional borrowed callback; an alias would only rename it.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn ranged_update_with<C: ErasureCode + ?Sized>(
    code: &C,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
    offset: usize,
    data: &[u8],
    wal: Option<&dyn Fn(&[FragWrite])>,
    mut ops: Vec<OpReport>,
) -> SchemeResult<EcUpdateOutcome> {
    let _span = telemetry
        .span_with("ec.update")
        .field("path", path)
        .field("offset", offset as u64)
        .field("bytes", data.len() as u64)
        .start();
    let plan = plan_update(layout, offset, data.len())?;
    let (lo, hi) = parity_window(&plan.touched);
    let width = hi - lo;
    let up = |i: usize| lookup(fragments[i].0).is_available();

    let all_needed_up = plan.touched.iter().all(|&(s, _, _)| up(s)) && (layout.m..layout.n).all(up);
    debug_assert!(ops.is_empty(), "the op list comes in empty");
    ops.reserve(2 * layout.n);
    let parity = if all_needed_up {
        // Normal ranged RMW: each touched range, then each parity window.
        let mut old: InlineVec<Bytes, INLINE> = InlineVec::new();
        let parity_windows = (layout.m..layout.n).map(|i| (i, lo, width));
        for (i, start, len) in plan.touched.iter().copied().chain(parity_windows) {
            let (pid, name) = &fragments[i];
            let out = chk(lookup(*pid).get_range(&key(name), start as u64, len as u64))?;
            ops.push(out.report);
            old.push(out.value);
        }
        let wall = telemetry.enabled().then(std::time::Instant::now);
        let (segments, windows) = old.split_at(plan.touched.len());
        let mut parity = Vec::with_capacity((layout.n - layout.m) * width);
        apply_ranged_update_into(code, &plan.touched, segments, windows, data, &mut parity)?;
        if let Some(t0) = wall {
            telemetry.observe("ec.update_wall_ns", t0.elapsed().as_nanos() as u64);
        }
        // The old ranges are views into the stored fragments; let go of
        // them so the range writes below can patch those in place.
        drop(old);
        let parity = Bytes::from(parity);
        (0..layout.n - layout.m).map(|j| parity.slice(j * width..(j + 1) * width)).collect()
    } else {
        degraded_windows(code, lookup, telemetry, layout, fragments, path, &plan, data, &mut ops)?
    };

    let reads = ops.len();
    let missed = write_phase(
        lookup, telemetry, layout, fragments, path, &plan, lo, data, parity, wal, &mut ops,
    );
    let latency = parallel_latency(&ops[..reads]) + parallel_latency(&ops[reads..]);
    Ok(EcUpdateOutcome { batch: BatchReport { latency, ops }, missed })
}

/// The new parity windows of an update, one per parity fragment.
type Parity = InlineVec<Bytes, INLINE>;

/// The degraded update's read phase (some fragment provider in outage,
/// but ≥ m reachable): fetch the parity window from every reachable
/// fragment, decode the data windows, patch, recompute the parity
/// windows. The reads go to `ops`.
#[allow(clippy::too_many_arguments)]
fn degraded_windows<C: ErasureCode + ?Sized>(
    code: &C,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
    plan: &UpdatePlan,
    data: &[u8],
    ops: &mut Vec<OpReport>,
) -> SchemeResult<Parity> {
    let (lo, hi) = parity_window(&plan.touched);
    let width = hi - lo;
    let reachable: Indices =
        (0..layout.n).filter(|&i| lookup(fragments[i].0).is_available()).collect();
    if telemetry.enabled() {
        telemetry
            .event("update.degraded")
            .field("path", path)
            .field("reachable", reachable.len() as u64)
            .field("total", layout.n as u64)
            .emit();
        telemetry.inc("update.degraded", 1);
    }
    if reachable.len() < layout.m {
        return Err(SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!(
                "{} of {} fragments reachable, need {}",
                reachable.len(),
                layout.n,
                layout.m
            ),
        });
    }
    let mut fetched: InlineVec<(usize, Bytes), INLINE> = InlineVec::new();
    for &i in &reachable {
        let (pid, name) = &fragments[i];
        if let Ok(out) = chk(lookup(*pid).get_range(&key(name), lo as u64, width as u64)) {
            ops.push(out.report);
            fetched.push((i, out.value));
        }
    }
    if fetched.len() < layout.m {
        return Err(SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: "window fetches failed mid-update".to_string(),
        });
    }
    // Decode the data windows: the codes work positionwise, so the
    // windows of a stripe are themselves a stripe of `width`-byte shards
    // whose "object" is the m data windows back to back.
    let window_stripe =
        FragmentLayout { object_len: layout.m * width, m: layout.m, n: layout.n, shard_len: width };
    let wall = telemetry.enabled().then(std::time::Instant::now);
    let mut data_windows = hyrd_gfec::decode_object(code, &window_stripe, &fetched)?;
    if let Some(t0) = wall {
        telemetry.observe("ec.update_wall_ns", t0.elapsed().as_nanos() as u64);
    }
    // The fetched windows are views into the stored fragments; let go of
    // them so the range writes can patch those in place.
    drop(fetched);

    // Patch the new bytes into the decoded windows, then re-encode them.
    let mut consumed = 0usize;
    for &(shard, start, len) in &plan.touched {
        let at = shard * width + start - lo;
        data_windows[at..at + len].copy_from_slice(&data[consumed..consumed + len]);
        consumed += len;
    }
    // Sliced by index, not `chunks(width)`: an empty update has width 0.
    let shards: InlineVec<&[u8], INLINE> =
        (0..layout.m).map(|i| &data_windows[i * width..(i + 1) * width]).collect();
    let mut rows: InlineVec<Vec<u8>, INLINE> =
        (layout.m..layout.n).map(|_| Vec::with_capacity(width)).collect();
    code.encode_into(&shards, &mut rows)?;
    Ok(rows.iter_mut().map(|row| Bytes::from(std::mem::take(row))).collect())
}

/// The write phase both update paths share. The planned writes — each
/// touched data range, cut from one copy of `data`, then each parity
/// window — go to the WAL hook whole, then to their providers one by
/// one, each landed write appended to `ops`. Writes are not allowed to
/// abort the stripe half-written: a provider that fails mid-phase (a
/// transient burst, an outage) just misses its write and its fragment
/// goes dirty. Returns the fragments that missed, in index order.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn write_phase(
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
    plan: &UpdatePlan,
    lo: usize,
    data: &[u8],
    parity: Parity,
    wal: Option<&dyn Fn(&[FragWrite])>,
    ops: &mut Vec<OpReport>,
) -> Indices {
    let new = Bytes::copy_from_slice(data);
    let mut consumed = 0usize;
    let segments = plan.touched.iter().map(|&(shard, start, len)| {
        consumed += len;
        (shard, start, new.slice(consumed - len..consumed))
    });
    let windows = (layout.m..layout.n).zip(&parity).map(|(i, w)| (i, lo, w.clone()));
    let planned: InlineVec<FragWrite, INLINE> = segments
        .chain(windows)
        .map(|(index, offset, bytes)| {
            let (provider, object) = &fragments[index];
            FragWrite {
                index,
                provider: *provider,
                object: Arc::clone(object),
                offset: offset as u64,
                bytes,
            }
        })
        .collect();
    if let Some(wal) = wal {
        wal(&planned);
    }
    let mut missed = Indices::new();
    for w in &planned {
        match chk(lookup(w.provider).put_range(&key(&w.object), w.offset, w.bytes.clone())) {
            Ok(out) => ops.push(out.report),
            Err(_) => {
                note_missed_write(telemetry, lookup, path, w);
                missed.push(w.index);
            }
        }
    }
    missed
}

/// Rebuilds the dirty fragments `indices` of one erasure-coded file that
/// live on the returned `provider` — the per-path step of the consistency
/// update, shared by HyRD's recovery and the erasure-coded baselines'.
/// Each rebuild counts as one replayed put with its bytes restored in
/// `recovered`, whose batch it extends; with telemetry on it also emits
/// `recovery.rebuild` and bumps `recovery.rebuilds`. Returns the indices
/// that stay dirty: those on other providers and those whose rebuild
/// failed (too few survivors that `verify` does not call corrupt).
#[allow(clippy::too_many_arguments)]
pub fn rebuild_dirty<C: ErasureCode + ?Sized>(
    code: &C,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    provider: &SimProvider,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    path: &str,
    indices: BTreeSet<usize>,
    verify: Verifier,
    recovered: &mut (RecoveryReport, BatchReport),
) -> BTreeSet<usize> {
    let mut remaining = BTreeSet::new();
    for idx in indices {
        if fragments.get(idx).map(|(p, _)| *p) != Some(provider.id()) {
            remaining.insert(idx);
            continue;
        }
        match rebuild_fragment(code, lookup, telemetry, layout, fragments, idx, path, verify) {
            Ok((b, bytes)) => {
                if telemetry.enabled() {
                    telemetry
                        .event("recovery.rebuild")
                        .field("path", path)
                        .field("fragment", idx as u64)
                        .field("provider", provider.name())
                        .field("bytes", bytes)
                        .emit();
                    telemetry.inc("recovery.rebuilds", 1);
                }
                let (report, batch) = recovered;
                report.puts_replayed += 1;
                report.bytes_restored += bytes;
                *batch = std::mem::take(batch).then(b);
            }
            Err(_) => {
                remaining.insert(idx);
            }
        }
    }
    remaining
}

/// Rebuilds one fragment from `m` surviving fragments and writes it to
/// its (returned) provider — the per-fragment unit of the consistency
/// update. Survivors are fetched in index order; one that `verify` calls
/// [`Verdict::Corrupt`] is skipped and the next one tried, and with fewer
/// than `m` left the rebuild fails with `DataUnavailable` and writes
/// nothing. Returns the ops and the rebuilt byte count.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_fragment<C: ErasureCode + ?Sized>(
    code: &C,
    lookup: &dyn Fn(ProviderId) -> Arc<SimProvider>,
    telemetry: &Collector,
    layout: &FragmentLayout,
    fragments: &[(ProviderId, Arc<str>)],
    target: usize,
    path: &str,
    verify: Verifier,
) -> SchemeResult<(BatchReport, u64)> {
    let _span = telemetry
        .span_with("ec.rebuild")
        .field("path", path)
        .field("fragment", target as u64)
        .start();
    if target >= fragments.len() {
        return Err(SchemeError::Code(hyrd_gfec::GfecError::BadFragmentIndex {
            index: target,
            n: fragments.len(),
        }));
    }
    let mut ops = Vec::with_capacity(layout.m + 1);
    let mut got: InlineVec<(usize, Bytes), INLINE> = InlineVec::new();
    for (i, (pid, name)) in fragments.iter().enumerate() {
        if i == target || got.len() == layout.m {
            continue;
        }
        let p = lookup(*pid);
        if !p.is_available() {
            continue;
        }
        if let Ok(out) = chk(p.get(&key(name))) {
            ops.push(out.report);
            if verify(*pid, name, &out.value) != Verdict::Corrupt {
                got.push((i, out.value));
            }
        }
    }
    if got.len() < layout.m {
        return Err(SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("only {} sound survivors for rebuild, need {}", got.len(), layout.m),
        });
    }
    let wall = telemetry.enabled().then(std::time::Instant::now);
    let bytes = hyrd_gfec::rebuild_fragment(code, layout.shard_len, &got, target)?;
    if let Some(t0) = wall {
        telemetry.observe("ec.rebuild_wall_ns", t0.elapsed().as_nanos() as u64);
    }
    let n = bytes.len() as u64;
    let (pid, name) = &fragments[target];
    let out = chk(lookup(*pid).put(&key(name), Bytes::from(bytes)))?;
    ops.push(out.report);
    Ok((BatchReport::serial(ops), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;
    use hyrd_gfec::{Raid5, StripePlanner};

    fn setup(obj: &[u8]) -> (Fleet, Raid5, FragmentLayout, Vec<(ProviderId, Arc<str>)>) {
        let fleet = Fleet::standard_four(SimClock::new());
        let code = Raid5::new(3).unwrap();
        let planner = StripePlanner::new(3, 4).unwrap();
        let (layout, frags) = planner.split_encode(&code, obj).unwrap();
        let mut map = Vec::new();
        for (index, data) in frags.into_iter().enumerate() {
            let pid = fleet.providers()[index].id();
            let name: Arc<str> = format!("t.f{index}").into();
            fleet.providers()[index].put(&key(&name), Bytes::from(data)).unwrap();
            map.push((pid, name));
        }
        (fleet, code, layout, map)
    }

    fn read_all(
        fleet: &Fleet,
        code: &Raid5,
        layout: &FragmentLayout,
        map: &[(ProviderId, Arc<str>)],
    ) -> Vec<u8> {
        let frags: Vec<(usize, Bytes)> = map
            .iter()
            .enumerate()
            .filter_map(|(i, (pid, name))| {
                fleet.get(*pid).unwrap().get(&key(name)).ok().map(|out| (i, out.value))
            })
            .collect();
        hyrd_gfec::decode_object(code, layout, &frags).unwrap()
    }

    #[test]
    fn normal_ranged_update_is_consistent() {
        let mut obj: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        let (fleet, code, layout, map) = setup(&obj);
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();
        let patch = vec![0xEEu8; 100];
        let off = Collector::disabled();
        let out = ranged_update(&code, &lookup, &off, &layout, &map, "/t", 500, &patch).unwrap();
        assert!(out.missed.is_empty());
        obj[500..600].copy_from_slice(&patch);
        assert_eq!(read_all(&fleet, &code, &layout, &map), obj);
    }

    #[test]
    fn degraded_update_marks_dirty_and_rebuild_restores() {
        let mut obj: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (fleet, code, layout, map) = setup(&obj);
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();

        // Take down the provider holding the touched data fragment 0.
        let victim = map[0].0;
        fleet.get(victim).unwrap().force_down();
        let patch = vec![0xABu8; 64];
        let off = Collector::disabled();
        let out = ranged_update(&code, &lookup, &off, &layout, &map, "/t", 10, &patch).unwrap();
        assert_eq!(out.missed[..], [0], "fragment 0 missed the write");
        obj[10..74].copy_from_slice(&patch);

        // Survivors already encode the new content (decode avoids frag 0
        // because its provider is down... verify via full read after
        // restore+rebuild).
        fleet.get(victim).unwrap().restore();
        let (batch, bytes) =
            rebuild_fragment(&code, &lookup, &off, &layout, &map, 0, "/t", &unverified).unwrap();
        assert!(bytes > 0);
        assert!(batch.op_count() >= 4, "m reads + 1 write");
        assert_eq!(read_all(&fleet, &code, &layout, &map), obj);

        // And fragment 0 alone now matches a fresh encode.
        let planner = StripePlanner::new(3, 4).unwrap();
        let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
        let got = fleet.get(victim).unwrap().get(&key(&map[0].1)).unwrap().value;
        assert_eq!(&got[..], &oracle[0][..]);
    }

    #[test]
    fn empty_update_is_a_no_op_healthy_and_degraded() {
        let obj: Vec<u8> = (0..4096).map(|i| (i % 241) as u8).collect();
        let off = Collector::disabled();
        // Nobody down, a data provider down, the parity provider down.
        for down in [None, Some(1), Some(3)] {
            let (fleet, code, layout, map) = setup(&obj);
            let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();
            if let Some(i) = down {
                fleet.get(map[i].0).unwrap().force_down();
            }
            let out = ranged_update(&code, &lookup, &off, &layout, &map, "/t", 10, &[]).unwrap();
            // No data fragment is touched; only a zero-width parity write
            // to a down provider can miss.
            assert!(out.missed.iter().all(|&i| i >= layout.m), "down={down:?}");
            if let Some(i) = down {
                fleet.get(map[i].0).unwrap().restore();
            }
            assert_eq!(read_all(&fleet, &code, &layout, &map), obj, "down={down:?}");
            let planner = StripePlanner::new(3, 4).unwrap();
            let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
            for (i, (pid, name)) in map.iter().enumerate() {
                let got = fleet.get(*pid).unwrap().get(&key(name)).unwrap().value;
                assert_eq!(&got[..], &oracle[i][..], "down={down:?} fragment {i}");
            }
        }
    }

    /// RS(2,4) keeps a spare survivor: a rebuild that meets a rotten
    /// source skips it and decodes from the next one, and with no spare
    /// left it fails and writes nothing.
    #[test]
    fn a_rebuild_skips_a_corrupt_source_for_a_spare_survivor() {
        use hyrd_gfec::ReedSolomon;
        let obj: Vec<u8> = (0..5000).map(|i| (i % 239) as u8).collect();
        let fleet = Fleet::standard_four(SimClock::new());
        let code = ReedSolomon::new(2, 4).unwrap();
        let (layout, frags) = StripePlanner::new(2, 4).unwrap().split_encode(&code, &obj).unwrap();
        let mut map = Vec::new();
        for (index, data) in frags.iter().enumerate() {
            let name: Arc<str> = format!("rs.f{index}").into();
            fleet.providers()[index].put(&key(&name), Bytes::from(data.clone())).unwrap();
            map.push((fleet.providers()[index].id(), name));
        }
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();
        let off = Collector::disabled();
        // The writer's digests, as a verifier: fragment i must be frags[i].
        let checked = std::cell::Cell::new(0);
        let verify = |_: ProviderId, name: &str, bytes: &[u8]| {
            checked.set(checked.get() + 1);
            let i = map.iter().position(|(_, n)| &**n == name).unwrap();
            if bytes == &frags[i][..] {
                Verdict::Verified
            } else {
                Verdict::Corrupt
            }
        };
        // Fragment 0 is lost; fragment 1 has rotted.
        fleet.providers()[0].remove(&key(&map[0].1)).unwrap();
        assert!(fleet.providers()[1].corrupt_object(&key(&map[1].1), 77));

        let (batch, bytes) =
            rebuild_fragment(&code, &lookup, &off, &layout, &map, 0, "/rs", &verify).unwrap();
        assert_eq!(checked.get(), 3, "fragments 1, 2 and 3 fetched and checked");
        assert_eq!((batch.op_count(), bytes), (4, layout.shard_len as u64), "3 reads + 1 put");
        let got = fleet.providers()[0].get(&key(&map[0].1)).unwrap().value;
        assert_eq!(&got[..], &frags[0][..], "rebuilt from fragments 2 and 3");

        // Unchecked, the same rebuild takes the rotten fragment 1.
        fleet.providers()[0].remove(&key(&map[0].1)).unwrap();
        rebuild_fragment(&code, &lookup, &off, &layout, &map, 0, "/rs", &unverified).unwrap();
        let got = fleet.providers()[0].get(&key(&map[0].1)).unwrap().value;
        assert_ne!(&got[..], &frags[0][..], "an unverified rebuild spreads the rot");

        // A second rotten source leaves one sound survivor: no rebuild.
        fleet.providers()[0].remove(&key(&map[0].1)).unwrap();
        assert!(fleet.providers()[2].corrupt_object(&key(&map[2].1), 5));
        let r = rebuild_fragment(&code, &lookup, &off, &layout, &map, 0, "/rs", &verify);
        assert!(matches!(r, Err(SchemeError::DataUnavailable { .. })));
        assert!(fleet.providers()[0].get(&key(&map[0].1)).is_err(), "nothing was written");
    }

    #[test]
    fn dirty_fragments_bookkeeping() {
        let mut d = DirtyFragments::new();
        assert!(d.is_empty());
        d.mark("/a", 1);
        d.mark("/a", 3);
        d.mark("/b", 0);
        assert_eq!(d.len(), 3);
        assert_eq!(d.paths(), vec!["/a".to_string(), "/b".to_string()], "sorted");
        assert!(d.contains("/a", 1));
        assert!(!d.contains("/a", 2));
        assert!(!d.contains("/c", 0));
        let taken = d.take("/a");
        assert_eq!(taken.into_iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(d.len(), 1);
        let mut back = BTreeSet::new();
        back.insert(3usize);
        d.put_back("/a", back);
        assert_eq!(d.len(), 2);
        d.forget("/b");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn update_with_two_providers_down_fails_for_raid5() {
        let obj = vec![1u8; 2048];
        let (fleet, code, layout, map) = setup(&obj);
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();
        fleet.get(map[0].0).unwrap().force_down();
        fleet.get(map[1].0).unwrap().force_down();
        let off = Collector::disabled();
        let r = ranged_update(&code, &lookup, &off, &layout, &map, "/t", 0, &[0u8; 8]);
        assert!(matches!(r, Err(SchemeError::DataUnavailable { .. })));
    }
}
