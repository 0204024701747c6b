//! Shared erasure-coded object operations over a provider fleet: the
//! range-granular update engine, normal and degraded. Both HyRD's
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
//!   ranges to the reachable fragments — and hand the writes that missed
//!   back to the caller, who logs each one as a *window* of its
//!   provider's update log ([`crate::recovery::UpdateLog::log_window`]).
//!   The log replays exactly those bytes when the provider returns,
//!   completing §III-C's "consistency update upon service's return".

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

use crate::journal::FragWrite;
use crate::scheme::{SchemeError, SchemeResult};

fn key(name: &Arc<str>) -> ObjectKey {
    ObjectKey::shared(Fleet::CONTAINER, Arc::clone(name))
}

/// Escalates an injected client crash before the caller's fault
/// tolerance can swallow it: a dead client must not log the missed
/// windows and ack the update (the crash harness would then observe an
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
/// matching `recovery.rebuild`, which the replay of the fragment's last
/// logged window emits.
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

/// The writes of an update that missed their provider, in index order.
pub type Missed = InlineVec<FragWrite, INLINE>;

/// Outcome of an erasure-coded update.
pub struct EcUpdateOutcome {
    /// Latency/ops of the update: its reads, then its writes.
    pub batch: BatchReport,
    /// The range writes that missed their provider (log each one), in
    /// index order.
    pub missed: Missed,
    /// The bytes of each fragment the update's writes fall in: the
    /// parity window, which holds every touched data range too.
    pub window: std::ops::Range<usize>,
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
    Ok(EcUpdateOutcome { batch: BatchReport { latency, ops }, missed, window: lo..hi })
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
/// transient burst, an outage) just misses its write, which is handed
/// back for the caller to log. Returns the writes that missed, in index
/// order.
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
) -> Missed {
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
    let mut missed = Missed::new();
    for w in planned {
        match chk(lookup(w.provider).put_range(&key(&w.object), w.offset, w.bytes.clone())) {
            Ok(out) => ops.push(out.report),
            Err(_) => {
                note_missed_write(telemetry, lookup, path, &w);
                missed.push(w);
            }
        }
    }
    missed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;
    use hyrd_gfec::{Raid5, StripePlanner};

    use crate::recovery::UpdateLog;

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

    /// Logs `missed` and replays the log onto each restored provider.
    fn replay_missed(fleet: &Fleet, missed: Missed) {
        let mut log = UpdateLog::new();
        let path: Arc<str> = "/t".into();
        let providers: Vec<ProviderId> = missed.iter().map(|w| w.provider).collect();
        missed.into_iter().for_each(|w| log.log_window(&path, w));
        for id in providers {
            fleet.get(id).unwrap().restore();
            log.replay(fleet.get(id).unwrap().as_ref(), &Collector::disabled()).unwrap();
        }
        assert!(log.is_empty());
    }

    #[test]
    fn a_degraded_update_hands_back_the_missed_window_and_its_replay_restores() {
        let mut obj: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (fleet, code, layout, map) = setup(&obj);
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();

        // Take down the provider holding the touched data fragment 0.
        let victim = map[0].0;
        fleet.get(victim).unwrap().force_down();
        let patch = vec![0xABu8; 64];
        let off = Collector::disabled();
        let out = ranged_update(&code, &lookup, &off, &layout, &map, "/t", 10, &patch).unwrap();
        let missed: Vec<_> =
            out.missed.iter().map(|w| (w.index, w.offset, w.bytes.len())).collect();
        assert_eq!(missed, [(0, 10, 64)], "fragment 0 missed exactly the patched window");
        obj[10..74].copy_from_slice(&patch);

        replay_missed(&fleet, out.missed);
        assert_eq!(read_all(&fleet, &code, &layout, &map), obj);
        // And fragment 0 alone now matches a fresh encode.
        let planner = StripePlanner::new(3, 4).unwrap();
        let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
        let got = fleet.get(victim).unwrap().get(&key(&map[0].1)).unwrap().value;
        assert_eq!(&got[..], &oracle[0][..]);
    }

    /// The lost-window case: one update misses both data fragment 0's
    /// window and the parity window (both providers go down between the
    /// read phase and the first write), so no survivor holds the new
    /// window. Replaying the logged windows restores the update's bytes;
    /// a rebuild of the two fragments from the survivors could only
    /// restore the old ones.
    #[test]
    fn a_window_missed_by_a_fragment_and_its_parity_is_replayed_not_lost() {
        let obj: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (fleet, code, layout, map) = setup(&obj);
        let lookup = |id: ProviderId| fleet.get(id).unwrap().clone();
        let patch = vec![0x5Au8; 64];
        let down = |_: &[FragWrite]| {
            fleet.get(map[0].0).unwrap().force_down();
            fleet.get(map[3].0).unwrap().force_down();
        };
        let off = Collector::disabled();
        let out = ranged_update_with(
            &code,
            &lookup,
            &off,
            &layout,
            &map,
            "/t",
            10,
            &patch,
            Some(&down),
            Vec::new(),
        )
        .unwrap();
        let missed: Vec<usize> = out.missed.iter().map(|w| w.index).collect();
        assert_eq!(missed, [0, 3]);

        replay_missed(&fleet, out.missed);
        let mut want = obj.clone();
        want[10..74].copy_from_slice(&patch);
        assert_eq!(read_all(&fleet, &code, &layout, &map), want, "the update's bytes");
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
            assert!(out.missed.iter().all(|w| w.index >= layout.m), "down={down:?}");
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
