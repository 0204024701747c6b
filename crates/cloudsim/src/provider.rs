//! The simulated cloud storage provider.
//!
//! [`SimProvider`] implements the GCS-API's [`CloudStorage`] trait over an
//! in-memory object map, charging each operation the latency its
//! calibrated [`crate::latency::LatencyModel`] predicts and refusing service during
//! outage windows. It keeps its own op/byte statistics and a
//! `stored_bytes` gauge, which is everything the cost simulator samples.
//! One op is one critical section: admission, the store access and the
//! report run under the provider's single lock.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bytes::Bytes;

use hyrd_gcsapi::sync::lock;

use hyrd_gcsapi::{
    CloudError, CloudResult, CloudStorage, ObjectKey, OpKind, OpOutcome, OpReport, ProviderId,
    StatsSnapshot,
};
use hyrd_telemetry::{Collector, Counter, HistogramSeries};

use crate::clock::SimClock;
use crate::crash::CrashSwitch;
use crate::faults::FaultPlan;
use crate::outage::OutageSchedule;
use crate::pricing::{PriceBook, ProviderCategory};
use crate::profiles::{ProviderProfile, WellKnownProvider};
use crate::queue::ProviderQueue;

/// One process-wide run of zeros that ghost reads are views of: a Get
/// of an object up to this size is an O(1) `slice`, not an allocation
/// plus a memset per call.
const GHOST_ZEROS_LEN: usize = 4 << 20;

/// `len` zero bytes for a ghost read: a view of the shared zero run, or
/// a fresh buffer for the rare object beyond it.
fn ghost_zeros(len: usize) -> Bytes {
    static ZEROS: OnceLock<Bytes> = OnceLock::new();
    if len > GHOST_ZEROS_LEN {
        return Bytes::from(vec![0u8; len]);
    }
    ZEROS.get_or_init(|| Bytes::from(vec![0u8; GHOST_ZEROS_LEN])).slice(..len)
}

/// What the store keeps for one object. In **ghost mode** only the
/// length is retained (Gets return zero-filled bytes of the right size),
/// letting benchmarks replay terabyte-scale workloads without holding the
/// payloads in RAM; latency, pricing and accounting are unaffected.
#[derive(Debug, Clone)]
enum Stored {
    Real(Bytes),
    Ghost(u64),
}

impl Stored {
    fn len(&self) -> u64 {
        match self {
            Stored::Real(b) => b.len() as u64,
            Stored::Ghost(n) => *n,
        }
    }

    fn to_bytes(&self) -> Bytes {
        match self {
            Stored::Real(b) => b.clone(),
            Stored::Ghost(n) => ghost_zeros(*n as usize),
        }
    }
}

/// The collector a provider reports to, with the two series every op
/// updates resolved to handles once, when the collector is installed.
#[derive(Default)]
struct Telemetry {
    collector: Collector,
    /// `provider.ops[name]`.
    ops: Counter,
    /// `provider.latency_ns[name]`.
    latency_ns: HistogramSeries,
}

/// One container's objects, keyed by the name the writer's [`ObjectKey`]
/// shares (an insert bumps a reference count, it copies no string) and
/// looked up by hash. Nothing depends on the map's iteration order:
/// everything that can observe an order — [`CloudStorage::list`],
/// [`SimProvider::object_inventory`], the object a rot event picks —
/// sorts by name first. The hasher's key is fixed, not drawn per
/// process: how often a map with removals grows (an allocation) rather
/// than rehashes in place depends on where its hashes leave deleted
/// slots, so a random key made a run's allocation count vary.
type Objects = HashMap<Arc<str>, Stored, BuildHasherDefault<DefaultHasher>>;

/// Everything an op reads or writes, behind the provider's one lock.
struct State {
    /// Containers in name order, each with its objects.
    store: BTreeMap<String, Objects>,
    outage: OutageSchedule,
    /// Jitter stream position; one tick per op that passes the outage
    /// check.
    seq: u64,
    stats: StatsSnapshot,
    /// Sum of the stored objects' lengths (the storage-cost gauge).
    stored_bytes: u64,
    /// Probability in ‰ (deterministic, per-op-seq) of a transient fault.
    flakiness_milli: u64,
    /// Seeded fault schedule (bursts, spikes, corruption, torn writes,
    /// rot). Quiet by default.
    faults: FaultPlan,
    /// How many of the plan's rot events have been applied.
    rot_applied: usize,
    /// Telemetry sink; disabled (no-op) by default.
    telemetry: Telemetry,
}

/// A simulated provider: latency model + prices + outage schedule around
/// an in-memory object store.
pub struct SimProvider {
    id: ProviderId,
    profile: ProviderProfile,
    clock: SimClock,
    /// The provider's one lock: an op admits, touches the store and
    /// reports under a single guard, so what it decides and emits is
    /// one atomic step. Lock order is *provider state → collector*: the
    /// `provider.op` and `provider.fault` events are emitted with this
    /// lock held (and the fleet's crash switch is consulted under it), so
    /// a collector sink or tap — which runs on the collector's writer
    /// thread — must never call into a provider.
    state: Mutex<State>,
    /// When set, payload bytes are discarded and only lengths retained.
    /// Outside the lock: readers ask for it between ops.
    ghost: AtomicBool,
    /// Fleet-shared client-crash switch, set once by `Fleet::new`;
    /// absent for standalone providers.
    crash: OnceLock<Arc<CrashSwitch>>,
    /// Concurrency-limited server slots the event engine admits reads
    /// through; closed-loop replay never saturates the default width.
    queue: ProviderQueue,
}

impl SimProvider {
    /// Creates a provider from a profile.
    pub fn new(id: ProviderId, profile: ProviderProfile, clock: SimClock) -> Self {
        SimProvider {
            id,
            profile,
            clock,
            state: Mutex::new(State {
                store: BTreeMap::new(),
                outage: OutageSchedule::always_up(),
                seq: 0,
                stats: StatsSnapshot::default(),
                stored_bytes: 0,
                flakiness_milli: 0,
                faults: FaultPlan::quiet(),
                rot_applied: 0,
                telemetry: Telemetry::default(),
            }),
            ghost: AtomicBool::new(false),
            crash: OnceLock::new(),
            queue: ProviderQueue::new(crate::queue::DEFAULT_CONCURRENCY),
        }
    }

    /// Attaches the fleet's shared [`CrashSwitch`]; every admitted op
    /// consults (and counts on) it. Called once, by `Fleet::new`; a
    /// provider keeps the first switch it is given.
    pub fn set_crash_switch(&self, switch: Arc<CrashSwitch>) {
        let _ = self.crash.set(switch);
    }

    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.state)
    }

    /// Installs a telemetry collector; every subsequent op emits a
    /// `provider.op` event (kind, bytes, priced cost) and every injected
    /// fault a `provider.fault` event. Pass `Collector::disabled()` to
    /// turn instrumentation back into a no-op.
    pub fn set_telemetry(&self, collector: Collector) {
        let name = self.profile.name.as_str();
        let telemetry = Telemetry {
            ops: collector.counter_series("provider.ops", name),
            latency_ns: collector.histogram_series("provider.latency_ns", name),
            collector,
        };
        // The old collector is dropped after the guard: dropping a
        // collector's last clone joins its writer thread.
        let _old = std::mem::replace(&mut self.state().telemetry, telemetry);
    }

    /// Emits a fault event + counter. `reason` matches the `CloudError`
    /// reason string where one exists.
    fn note_fault(&self, s: &State, reason: &str) {
        let tel = &s.telemetry.collector;
        if tel.enabled() {
            tel.event("provider.fault")
                .field("provider", self.profile.name.as_str())
                .field("reason", reason)
                .emit();
            tel.inc_labeled("provider.faults", &self.profile.name, 1);
        }
    }

    /// Switches ghost mode on or off for subsequently stored objects
    /// (existing objects keep their representation).
    pub fn set_ghost_mode(&self, on: bool) {
        self.ghost.store(on, Ordering::Relaxed);
    }

    /// Creates one of the paper's four calibrated providers.
    pub fn well_known(id: ProviderId, which: WellKnownProvider, clock: SimClock) -> Self {
        SimProvider::new(id, which.profile(), clock)
    }

    /// The provider's profile (prices, latency, category).
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Table II price plan.
    pub fn prices(&self) -> &PriceBook {
        &self.profile.prices
    }

    /// Table II category.
    pub fn category(&self) -> ProviderCategory {
        self.profile.category
    }

    /// Accumulated op statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.state().stats
    }

    /// The provider's concurrency-limited admission queue. Only the
    /// event engine's fan-out reads consult it; direct `CloudStorage`
    /// calls stay queue-oblivious (closed-loop semantics).
    pub fn queue(&self) -> &ProviderQueue {
        &self.queue
    }

    /// Scenario knob: resizes the admission queue to `slots` concurrent
    /// servers (clearing any accumulated busy times).
    pub fn set_concurrency(&self, slots: usize) {
        self.queue.set_concurrency(slots);
    }

    /// Credits back a cancelled in-flight op: the client aborted the
    /// request after `billed` of its `report.latency` had elapsed, so
    /// the payload bytes were never transferred. Op *counts* stay — the
    /// request was issued and is billed as a transaction — but the
    /// byte and latency tallies shrink so provider-side accounting
    /// agrees with what the client actually consumed.
    pub fn credit_cancelled(&self, report: &OpReport, billed: std::time::Duration) {
        let latency_credit = report.latency.saturating_sub(billed);
        let mut s = self.state();
        s.stats.credit_cancelled(report.bytes_out, latency_credit.as_nanos() as u64);
        let tel = &s.telemetry.collector;
        if tel.enabled() {
            tel.event("provider.cancel")
                .field("provider", self.profile.name.as_str())
                .field("bytes_out_credited", report.bytes_out)
                .field("billed_ns", billed.as_nanos() as u64)
                .emit();
            tel.inc_labeled("provider.cancels", &self.profile.name, 1);
        }
    }

    /// Bytes currently stored (the storage-cost gauge).
    pub fn stored_bytes(&self) -> u64 {
        self.state().stored_bytes
    }

    /// Number of stored objects across containers.
    pub fn object_count(&self) -> usize {
        self.state().store.values().map(|c| c.len()).sum()
    }

    /// Audit backdoor: every `(name, length)` stored in `container`, in
    /// name order, without an op, stats, or latency — the durability
    /// auditor's ground-truth view of what physically exists.
    pub fn object_inventory(&self, container: &str) -> Vec<(String, u64)> {
        let mut inventory: Vec<(String, u64)> = self
            .state()
            .store
            .get(container)
            .map(|c| c.iter().map(|(k, v)| (k.to_string(), v.len())).collect())
            .unwrap_or_default();
        inventory.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        inventory
    }

    /// Emits a `provider.status` lifecycle event (the observatory derives
    /// per-provider uptime windows from these).
    fn note_status(&self, s: &State, state: &str, reason: &str) {
        let tel = &s.telemetry.collector;
        if tel.enabled() {
            tel.event("provider.status")
                .field("provider", self.profile.name.as_str())
                .field("state", state)
                .field("reason", reason)
                .emit();
            tel.inc_labeled("provider.status_changes", &self.profile.name, 1);
        }
    }

    /// Forces the provider into an outage (Figure 6 methodology).
    pub fn force_down(&self) {
        let mut s = self.state();
        s.outage.force_down();
        self.note_status(&s, "down", "forced");
    }

    /// Ends a forced outage.
    pub fn restore(&self) {
        let mut s = self.state();
        s.outage.restore();
        self.note_status(&s, "up", "restored");
    }

    /// Adds a scheduled outage window in virtual time.
    pub fn schedule_outage(&self, start: std::time::Duration, end: std::time::Duration) {
        let mut s = self.state();
        s.outage.add_window(start, end);
        let tel = &s.telemetry.collector;
        if tel.enabled() {
            tel.event("provider.outage_scheduled")
                .field("provider", self.profile.name.as_str())
                .field("start_ns", start.as_nanos() as u64)
                .field("end_ns", end.as_nanos() as u64)
                .emit();
        }
    }

    /// Sets the transient-fault probability (0.0–1.0), deterministic in
    /// the op sequence. Used by failure-injection tests.
    pub fn set_flakiness(&self, p: f64) {
        self.state().flakiness_milli = (p.clamp(0.0, 1.0) * 1000.0) as u64;
    }

    /// Installs a fault schedule (replacing any previous one; the rot
    /// cursor restarts with the new plan).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut s = self.state();
        s.faults = plan;
        s.rot_applied = 0;
    }

    /// Whether ghost mode is on (payloads discarded, Gets zero-filled).
    /// Integrity checks are meaningless against ghost reads, so clients
    /// must skip verification for ghost-mode providers.
    pub fn ghost_mode(&self) -> bool {
        self.ghost.load(Ordering::Relaxed)
    }

    /// Maintenance/test backdoor: flips one stored bit of an object *at
    /// rest*, without an op, stats, or latency. Returns false when the
    /// object is absent, empty, or ghost (nothing to corrupt).
    pub fn corrupt_object(&self, key: &ObjectKey, bit: u64) -> bool {
        let mut s = self.state();
        let Some(container) = s.store.get_mut(&*key.container) else {
            return false;
        };
        let Some(Stored::Real(b)) = container.get_mut(&*key.name) else {
            return false;
        };
        if b.is_empty() {
            return false;
        }
        let mut v = b.to_vec();
        let target = (bit as usize) % (v.len() * 8);
        v[target / 8] ^= 1 << (target % 8);
        *b = Bytes::from(v);
        true
    }

    /// Applies any rot events whose time has passed: each flips one bit
    /// of one stored object, the `entropy mod count`-th in (container,
    /// name) order. Ghost objects count, and absorb the event with no
    /// effect.
    fn apply_due_rot(&self, s: &mut State) {
        while let Some(entropy) = s.faults.rot_due(s.rot_applied, self.clock.now()) {
            s.rot_applied += 1;
            self.note_fault(s, "bit rot");
            let total: usize = s.store.values().map(|c| c.len()).sum();
            if total == 0 {
                continue;
            }
            let mut k = (entropy as usize) % total;
            let objects = s
                .store
                .values_mut()
                .find(|objects| {
                    let here = k < objects.len();
                    if !here {
                        k -= objects.len();
                    }
                    here
                })
                .expect("k < total");
            let mut names: Vec<&Arc<str>> = objects.keys().collect();
            let victim = Arc::clone(*names.select_nth_unstable(k).1);
            if let Some(Stored::Real(b)) = objects.get_mut(&victim) {
                if !b.is_empty() {
                    let mut v = b.to_vec();
                    let target = ((entropy >> 17) as usize) % (v.len() * 8);
                    v[target / 8] ^= 1 << (target % 8);
                    *b = Bytes::from(v);
                }
            }
        }
    }

    /// Availability check + per-op bookkeeping under the op's guard;
    /// returns the jitter seq.
    fn admit(&self, s: &mut State) -> CloudResult<u64> {
        // Crash check first: a dead client issues no ops at all, so the
        // boundary counter must see every attempt, including ones an
        // outage or fault would have rejected anyway.
        if let Some(crash) = self.crash.get() {
            if crash.on_op() {
                s.stats.record_err();
                self.note_fault(s, "crash");
                return Err(CloudError::Crashed { provider: self.id });
            }
        }
        self.apply_due_rot(s);
        if !s.outage.is_up(self.clock.now()) {
            s.stats.record_err();
            self.note_fault(s, "outage");
            return Err(CloudError::Unavailable { provider: self.id });
        }
        let seq = s.seq;
        s.seq += 1;
        let flake = s.flakiness_milli;
        if flake > 0 {
            // SplitMix on the seq, compared against the probability.
            let mut z = seq.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z ^= z >> 31;
            if z % 1000 < flake {
                s.stats.record_err();
                self.note_fault(s, "injected");
                return Err(CloudError::Transient { provider: self.id, reason: "injected" });
            }
        }
        if s.faults.burst_error(self.clock.now(), seq) {
            s.stats.record_err();
            self.note_fault(s, "burst");
            return Err(CloudError::Transient { provider: self.id, reason: "burst" });
        }
        Ok(seq)
    }

    /// Prices, tallies and traces one successful op under its guard.
    fn report(
        &self,
        s: &mut State,
        kind: OpKind,
        bytes_in: u64,
        bytes_out: u64,
        seq: u64,
    ) -> OpReport {
        let payload = bytes_in.max(bytes_out);
        let mut latency = self.profile.latency.latency(kind, payload, seq);
        let spike = s.faults.latency_multiplier(self.clock.now());
        if spike > 1.0 {
            latency = latency.mul_f64(spike);
        }
        let report = OpReport { provider: self.id, kind, latency, bytes_in, bytes_out };
        s.stats.record_ok(&report);
        let tel = &s.telemetry;
        if tel.collector.enabled() {
            // Priced cost of this single op under the provider's Table II
            // plan: its transaction class plus any transfer charges.
            let (put_class, get_class) = if kind.is_put_class() { (1, 0) } else { (0, 1) };
            let cost = self.profile.prices.transaction_cost(put_class, get_class)
                + self.profile.prices.transfer_cost(bytes_in, bytes_out);
            let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
            // In key order, the order the trace prints them in: each field
            // then lands at the end of the record under construction.
            tel.collector
                .event("provider.op")
                .field("bytes_in", bytes_in)
                .field("bytes_out", bytes_out)
                .field("cost", cost)
                .field("latency_ns", latency_ns)
                .field("op", kind.name())
                .field("provider", self.profile.name.as_str())
                .emit();
            tel.ops.inc(1);
            tel.latency_ns.observe(latency_ns);
        }
        report
    }
}

/// Counts a failed op and names the container it did not find.
fn no_container(stats: &mut StatsSnapshot, container: &str) -> CloudError {
    stats.record_err();
    CloudError::NoSuchContainer { container: container.to_string() }
}

/// Counts a failed op and names the object it did not find.
fn no_object(stats: &mut StatsSnapshot, key: &ObjectKey) -> CloudError {
    stats.record_err();
    CloudError::NoSuchObject { key: key.clone() }
}

impl CloudStorage for SimProvider {
    fn id(&self) -> ProviderId {
        self.id
    }

    fn name(&self) -> &str {
        &self.profile.name
    }

    fn create(&self, container: &str) -> CloudResult<OpOutcome<()>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        if s.store.contains_key(container) {
            s.stats.record_err();
            return Err(CloudError::ContainerExists { container: container.to_string() });
        }
        s.store.insert(container.to_string(), Objects::default());
        Ok(OpOutcome::new((), self.report(s, OpKind::Create, 0, 0, seq)))
    }

    fn put(&self, key: &ObjectKey, data: Bytes) -> CloudResult<OpOutcome<()>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let torn = s.faults.torn_put(seq);
        let container = s
            .store
            .get_mut(&*key.container)
            .ok_or_else(|| no_container(&mut s.stats, &key.container))?;
        let ghost = self.ghost.load(Ordering::Relaxed);
        if let Some(entropy) = torn {
            // Torn write: a prefix lands, the op reports failure. The
            // kept fraction is 10%–90% of the payload.
            let frac_milli = 100 + entropy % 801;
            let keep = (data.len() as u64 * frac_milli / 1000) as usize;
            let record =
                if ghost { Stored::Ghost(keep as u64) } else { Stored::Real(data.slice(..keep)) };
            let old_len = container.insert(key.name.clone(), record).map_or(0, |b| b.len());
            s.stored_bytes = s.stored_bytes + keep as u64 - old_len;
            s.stats.record_err();
            self.note_fault(s, "torn write");
            return Err(CloudError::Transient { provider: self.id, reason: "torn write" });
        }
        let new_len = data.len() as u64;
        let record = if ghost { Stored::Ghost(new_len) } else { Stored::Real(data) };
        let old_len = container.insert(key.name.clone(), record).map_or(0, |b| b.len());
        // Gauge update: overwrite replaces the old size.
        s.stored_bytes = s.stored_bytes + new_len - old_len;
        Ok(OpOutcome::new((), self.report(s, OpKind::Put, new_len, 0, seq)))
    }

    fn get(&self, key: &ObjectKey) -> CloudResult<OpOutcome<Bytes>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let container = s
            .store
            .get(&*key.container)
            .ok_or_else(|| no_container(&mut s.stats, &key.container))?;
        let mut data = container
            .get(&*key.name)
            .map(Stored::to_bytes)
            .ok_or_else(|| no_object(&mut s.stats, key))?;
        if !data.is_empty() {
            if let Some(entropy) = s.faults.wire_corruption(seq) {
                // One bit flips on the wire; the stored object is intact.
                let mut v = data.to_vec();
                let target = ((entropy >> 11) as usize) % (v.len() * 8);
                v[target / 8] ^= 1 << (target % 8);
                data = Bytes::from(v);
                self.note_fault(s, "wire corruption");
            }
        }
        let len = data.len() as u64;
        Ok(OpOutcome::new(data, self.report(s, OpKind::Get, 0, len, seq)))
    }

    fn list(&self, container: &str) -> CloudResult<OpOutcome<Vec<String>>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let cont = s.store.get(container).ok_or_else(|| no_container(&mut s.stats, container))?;
        let mut names: Vec<String> = cont.keys().map(|name| name.to_string()).collect();
        names.sort_unstable();
        Ok(OpOutcome::new(names, self.report(s, OpKind::List, 0, 0, seq)))
    }

    fn remove(&self, key: &ObjectKey) -> CloudResult<OpOutcome<()>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let container = s
            .store
            .get_mut(&*key.container)
            .ok_or_else(|| no_container(&mut s.stats, &key.container))?;
        let removed = container.remove(&*key.name).ok_or_else(|| no_object(&mut s.stats, key))?;
        s.stored_bytes -= removed.len();
        Ok(OpOutcome::new((), self.report(s, OpKind::Remove, 0, 0, seq)))
    }

    fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> CloudResult<OpOutcome<Bytes>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let container = s
            .store
            .get(&*key.container)
            .ok_or_else(|| no_container(&mut s.stats, &key.container))?;
        let stored = container.get(&*key.name).ok_or_else(|| no_object(&mut s.stats, key))?;
        let total = stored.len();
        let end = (offset + len).min(total);
        let start = offset.min(end);
        let slice = match stored {
            Stored::Real(b) => b.slice(start as usize..end as usize),
            Stored::Ghost(_) => ghost_zeros((end - start) as usize),
        };
        let n = slice.len() as u64;
        Ok(OpOutcome::new(slice, self.report(s, OpKind::Get, 0, n, seq)))
    }

    fn put_range(&self, key: &ObjectKey, offset: u64, data: Bytes) -> CloudResult<OpOutcome<()>> {
        let mut guard = self.state();
        let s = &mut *guard;
        let seq = self.admit(s)?;
        let written = data.len() as u64;
        let container = s
            .store
            .get_mut(&*key.container)
            .ok_or_else(|| no_container(&mut s.stats, &key.container))?;
        let stored = container.get_mut(&*key.name).ok_or_else(|| no_object(&mut s.stats, key))?;
        let old_len = stored.len();
        let end = offset + written;
        match stored {
            Stored::Real(b) => {
                // Patch in place: taking the stored handle and converting
                // it reclaims the buffer when the store is its only
                // owner, and copies only while a reader still holds a
                // view of the old bytes (which it keeps). The reclaim is
                // measured with the `hyrd-perf` stand-in for `bytes`
                // only; a `bytes` that copies here is still correct.
                let mut content = Vec::from(std::mem::take(b));
                if (content.len() as u64) < end {
                    content.resize(end as usize, 0);
                }
                content[offset as usize..end as usize].copy_from_slice(&data);
                *b = Bytes::from(content);
            }
            Stored::Ghost(n) => {
                *n = (*n).max(end);
            }
        }
        let new_len = stored.len();
        if new_len > old_len {
            s.stored_bytes += new_len - old_len;
        }
        Ok(OpOutcome::new((), self.report(s, OpKind::Put, written, 0, seq)))
    }

    fn is_available(&self) -> bool {
        self.state().outage.is_up(self.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::units::hours;
    use crate::latency::LatencyModel;

    fn test_profile() -> ProviderProfile {
        ProviderProfile {
            name: "test".to_string(),
            prices: PriceBook::FREE,
            latency: LatencyModel::instant(),
            category: ProviderCategory::Both,
        }
    }

    fn provider() -> (SimProvider, SimClock) {
        let clock = SimClock::new();
        let p = SimProvider::new(ProviderId(0), test_profile(), clock.clone());
        p.create("data").unwrap();
        (p, clock)
    }

    #[test]
    fn put_get_with_latency_reports() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        let put = p.put(&key, Bytes::from(vec![7u8; 2048])).unwrap();
        assert_eq!(put.report.bytes_in, 2048);
        assert!(put.report.latency > std::time::Duration::ZERO);
        let got = p.get(&key).unwrap();
        assert_eq!(got.value.len(), 2048);
        assert_eq!(got.report.bytes_out, 2048);
    }

    #[test]
    fn stored_bytes_gauge_tracks_overwrites_and_removes() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from(vec![0u8; 100])).unwrap();
        assert_eq!(p.stored_bytes(), 100);
        p.put(&key, Bytes::from(vec![0u8; 40])).unwrap();
        assert_eq!(p.stored_bytes(), 40);
        p.put(&ObjectKey::new("data", "j"), Bytes::from(vec![0u8; 10])).unwrap();
        assert_eq!(p.stored_bytes(), 50);
        p.remove(&key).unwrap();
        assert_eq!(p.stored_bytes(), 10);
        assert_eq!(p.object_count(), 1);
    }

    #[test]
    fn forced_outage_fails_every_op() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from_static(b"x")).unwrap();
        p.force_down();
        assert!(!p.is_available());
        assert!(matches!(p.get(&key), Err(CloudError::Unavailable { .. })));
        assert!(matches!(p.put(&key, Bytes::new()), Err(CloudError::Unavailable { .. })));
        assert!(matches!(p.list("data"), Err(CloudError::Unavailable { .. })));
        p.restore();
        assert!(p.is_available());
        assert_eq!(&p.get(&key).unwrap().value[..], b"x");
    }

    #[test]
    fn scheduled_outage_follows_the_clock() {
        let (p, clock) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from_static(b"x")).unwrap();
        p.schedule_outage(hours(1), hours(3));

        assert!(p.is_available());
        clock.advance(hours(2));
        assert!(!p.is_available());
        assert!(matches!(p.get(&key), Err(CloudError::Unavailable { .. })));
        clock.advance(hours(2));
        assert!(p.is_available());
        assert!(p.get(&key).is_ok());
    }

    #[test]
    fn stats_count_ops_and_outage_errors() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from(vec![0u8; 10])).unwrap();
        p.get(&key).unwrap();
        p.force_down();
        let _ = p.get(&key);
        let s = p.stats();
        assert_eq!(s.put, 1);
        assert_eq!(s.get, 1);
        assert_eq!(s.create, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.bytes_in, 10);
        assert_eq!(s.bytes_out, 10);
    }

    #[test]
    fn flakiness_injects_transient_faults_deterministically() {
        let (p, _) = provider();
        p.set_flakiness(0.5);
        let key = ObjectKey::new("data", "k");
        let mut errs = 0;
        let mut oks = 0;
        for _ in 0..200 {
            match p.put(&key, Bytes::from_static(b"v")) {
                Ok(_) => oks += 1,
                Err(CloudError::Transient { .. }) => errs += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(errs > 50 && oks > 50, "errs={errs} oks={oks}");
        p.set_flakiness(0.0);
        assert!(p.put(&key, Bytes::new()).is_ok());
    }

    #[test]
    fn ghost_mode_keeps_lengths_not_bytes() {
        let (p, _) = provider();
        p.set_ghost_mode(true);
        let key = ObjectKey::new("data", "big");
        p.put(&key, Bytes::from(vec![0xAB; 1000])).unwrap();
        assert_eq!(p.stored_bytes(), 1000);
        let got = p.get(&key).unwrap();
        assert_eq!(got.value.len(), 1000);
        assert!(got.value.iter().all(|&b| b == 0), "ghost reads are zero-filled");
        assert_eq!(got.report.bytes_out, 1000);
        // Remove still maintains the gauge.
        p.remove(&key).unwrap();
        assert_eq!(p.stored_bytes(), 0);
    }

    #[test]
    fn ghost_reads_are_views_of_one_shared_zero_run() {
        let (p, _) = provider();
        p.set_ghost_mode(true);
        let key = ObjectKey::new("data", "big");
        p.put(&key, Bytes::from(vec![0xAB; 512 * 1024])).unwrap();
        let before = p.stats();

        let whole = p.get(&key).unwrap();
        let again = p.get(&key).unwrap();
        let range = p.get_range(&key, 1000, 300 * 1024).unwrap();
        let tail = p.get_range(&key, 512 * 1024 - 10, 100).unwrap();
        // No per-read buffer: every read is a view of the same zeros.
        assert_eq!(whole.value.as_ptr(), again.value.as_ptr());
        assert_eq!(whole.value.as_ptr(), range.value.as_ptr());
        // Lengths, billing and stats are what a real read reports.
        assert_eq!(whole.value.len(), 512 * 1024);
        assert_eq!(whole.report.bytes_out, 512 * 1024);
        assert_eq!(range.value.len(), 300 * 1024);
        assert_eq!(range.report.bytes_out, 300 * 1024);
        assert_eq!((tail.value.len(), tail.report.bytes_out), (10, 10), "clamped to the object");
        assert!(range.value.iter().all(|&b| b == 0));
        let after = p.stats();
        assert_eq!(after.get - before.get, 4);
        assert_eq!(after.bytes_out - before.bytes_out, (2 * 512 + 300) * 1024 + 10);

        // Beyond the shared run a read still gets its full length.
        let huge = ObjectKey::new("data", "huge");
        p.put(&huge, Bytes::from(vec![1u8; GHOST_ZEROS_LEN + 1])).unwrap();
        let got = p.get(&huge).unwrap();
        assert_eq!(got.value.len(), GHOST_ZEROS_LEN + 1);
        assert!(got.value.iter().all(|&b| b == 0));
    }

    #[test]
    fn put_range_patches_and_readers_keep_their_snapshot() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from(vec![0x11u8; 100])).unwrap();

        // That a sole-owner patch reuses the buffer is asserted as an
        // allocation budget in `crates/core/tests/alloc_budget.rs`.
        let out = p.put_range(&key, 20, Bytes::from(vec![0xEEu8; 30])).unwrap();
        assert_eq!(
            (out.report.kind, out.report.bytes_in, out.report.bytes_out),
            (OpKind::Put, 30, 0)
        );
        assert_eq!(p.stored_bytes(), 100);
        let patched = p.get(&key).unwrap().value;
        assert!(patched[..20].iter().chain(&patched[50..]).all(|&b| b == 0x11));
        assert!(patched[20..50].iter().all(|&b| b == 0xEE));

        // Handles obtained before a patch keep reading the old bytes.
        let range = p.get_range(&key, 10, 30).unwrap().value;
        let snapshot = patched.to_vec();
        p.put_range(&key, 0, Bytes::from(vec![0x77u8; 100])).unwrap();
        assert_eq!(&patched[..], &snapshot[..], "whole-object handle is a snapshot");
        assert_eq!(&range[..], &snapshot[10..40], "range handle is a snapshot");
        assert!(p.get(&key).unwrap().value.iter().all(|&b| b == 0x77));

        // Growth past the old end zero-fills the gap and moves the gauge.
        let out = p.put_range(&key, 150, Bytes::from(vec![0x55u8; 10])).unwrap();
        assert_eq!(out.report.bytes_in, 10);
        assert_eq!(p.stored_bytes(), 160);
        let grown = p.get(&key).unwrap().value;
        assert_eq!(grown.len(), 160);
        assert!(grown[100..150].iter().all(|&b| b == 0));
        assert!(grown[150..].iter().all(|&b| b == 0x55));
    }

    #[test]
    fn burst_windows_inject_transients_only_while_open() {
        let (p, clock) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from_static(b"v")).unwrap();
        p.set_fault_plan(FaultPlan::quiet().with_seed(5).with_burst(hours(1), hours(2), 1000));
        assert!(p.get(&key).is_ok(), "clean before the window");
        clock.advance(hours(1));
        assert!(matches!(p.get(&key), Err(CloudError::Transient { reason: "burst", .. })));
        clock.advance(hours(1));
        assert!(p.get(&key).is_ok(), "clean after the window");
    }

    #[test]
    fn latency_spikes_multiply_reported_latency() {
        let clock = SimClock::new();
        let p = SimProvider::well_known(ProviderId(0), WellKnownProvider::AmazonS3, clock.clone());
        p.create("data").unwrap();
        let key = ObjectKey::new("data", "k");
        let payload = Bytes::from(vec![1u8; 64 * 1024]);
        p.put(&key, payload).unwrap();
        let base = p.get(&key).unwrap().report.latency;
        p.set_fault_plan(FaultPlan::quiet().with_spike(std::time::Duration::ZERO, hours(1), 4.0));
        let spiked = p.get(&key).unwrap().report.latency;
        // The latency model jitters per seq, but a 4x multiplier
        // dominates that spread.
        assert!(spiked > base.mul_f64(2.0), "base={base:?} spiked={spiked:?}");
    }

    #[test]
    fn wire_corruption_flips_one_bit_without_touching_the_store() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        let payload = vec![0u8; 256];
        p.put(&key, Bytes::from(payload.clone())).unwrap();
        p.set_fault_plan(FaultPlan::quiet().with_seed(3).with_wire_corruption(1000));
        let got = p.get(&key).unwrap().value;
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs on the wire");
        p.set_fault_plan(FaultPlan::quiet());
        assert_eq!(&p.get(&key).unwrap().value[..], &payload[..], "stored bytes are intact");
    }

    #[test]
    fn torn_puts_store_a_prefix_and_report_a_transient() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.set_fault_plan(FaultPlan::quiet().with_seed(9).with_torn_puts(1000));
        let r = p.put(&key, Bytes::from(vec![7u8; 1000]));
        assert!(matches!(r, Err(CloudError::Transient { reason: "torn write", .. })));
        p.set_fault_plan(FaultPlan::quiet());
        let got = p.get(&key).unwrap().value;
        assert!(!got.is_empty() && got.len() < 1000, "a strict prefix landed: {}", got.len());
        assert!(got.iter().all(|&b| b == 7));
        assert_eq!(p.stored_bytes(), got.len() as u64, "gauge tracks the torn prefix");
    }

    #[test]
    fn rot_events_corrupt_a_stored_object_once_due() {
        let (p, clock) = provider();
        let key = ObjectKey::new("data", "k");
        let payload = vec![0u8; 128];
        p.put(&key, Bytes::from(payload.clone())).unwrap();
        p.set_fault_plan(FaultPlan::quiet().with_seed(1).with_rot_at(hours(1)));
        assert_eq!(&p.get(&key).unwrap().value[..], &payload[..], "intact before the event");
        clock.advance(hours(2));
        let got = p.get(&key).unwrap().value;
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "one stored bit rotted");
        // Rot is persistent: the same corrupt bytes come back again.
        assert_eq!(&p.get(&key).unwrap().value[..], &got[..]);
    }

    #[test]
    fn corrupt_object_backdoor_flips_the_requested_bit() {
        let (p, _) = provider();
        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from(vec![0u8; 4])).unwrap();
        assert!(p.corrupt_object(&key, 9));
        assert_eq!(&p.get(&key).unwrap().value[..], &[0u8, 2, 0, 0]);
        assert!(!p.corrupt_object(&ObjectKey::new("data", "missing"), 0));
        let ops_before = p.stats().get;
        let _ = p.stats();
        assert_eq!(p.stats().get, ops_before, "the backdoor is not an op");
    }

    #[test]
    fn telemetry_emits_op_events_with_priced_cost() {
        use hyrd_telemetry::{Collector, Value};
        let clock = SimClock::new();
        let p = SimProvider::well_known(ProviderId(0), WellKnownProvider::AmazonS3, clock.clone());
        p.create("data").unwrap();
        let tel = Collector::builder(clock).ring(64).build();
        p.set_telemetry(tel.clone());

        let key = ObjectKey::new("data", "k");
        p.put(&key, Bytes::from(vec![1u8; 2048])).unwrap();
        p.get(&key).unwrap();

        let recs = tel.ring_records();
        let ops: Vec<_> = recs.iter().filter(|r| r.is_event("provider.op")).collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].field_str("provider"), Some("Amazon S3"));
        assert_eq!(ops[0].field_str("op"), Some("Put"));
        assert_eq!(ops[0].field_u64("bytes_in"), Some(2048));
        assert!(ops[0].field_u64("latency_ns").unwrap() > 0);
        // S3 bills Put in the put class: $0.047 per 10K transactions.
        match ops[0].fields().unwrap().get("cost") {
            Some(Value::F64(c)) => assert!((c - 0.047 / 10_000.0).abs() < 1e-12),
            other => panic!("missing cost: {other:?}"),
        }
        // Get pays the get class plus per-GB egress.
        assert_eq!(ops[1].field_str("op"), Some("Get"));
        match ops[1].fields().unwrap().get("cost") {
            Some(Value::F64(c)) => {
                let expect = 0.0037 / 10_000.0 + (2048.0 / 1e9) * 0.201;
                assert!((c - expect).abs() < 1e-12, "cost={c}");
            }
            other => panic!("missing cost: {other:?}"),
        }
        assert_eq!(tel.counter("provider.ops[Amazon S3]"), 2);
        assert_eq!(tel.histogram("provider.latency_ns[Amazon S3]").unwrap().count(), 2);
    }

    #[test]
    fn telemetry_emits_fault_events() {
        use hyrd_telemetry::Collector;
        let (p, clock) = provider();
        let tel = Collector::builder(clock).ring(64).build();
        p.set_telemetry(tel.clone());
        let key = ObjectKey::new("data", "k");

        p.force_down();
        let _ = p.get(&key);
        p.restore();
        p.set_fault_plan(FaultPlan::quiet().with_seed(9).with_torn_puts(1000));
        let _ = p.put(&key, Bytes::from(vec![7u8; 64]));
        p.set_fault_plan(FaultPlan::quiet());

        let reasons: Vec<String> = tel
            .ring_records()
            .iter()
            .filter(|r| r.is_event("provider.fault"))
            .map(|r| r.field_str("reason").unwrap().to_string())
            .collect();
        assert_eq!(reasons, vec!["outage", "torn write"]);
        assert_eq!(tel.counter("provider.faults[test]"), 2);
        // Successful retry after the faults shows up as a normal op.
        p.put(&key, Bytes::from(vec![7u8; 64])).unwrap();
        assert_eq!(tel.counter("provider.ops[test]"), 1);
    }

    #[test]
    fn well_known_providers_have_their_names() {
        let clock = SimClock::new();
        let p = SimProvider::well_known(ProviderId(2), WellKnownProvider::Aliyun, clock);
        assert_eq!(p.name(), "Aliyun");
        assert_eq!(p.category(), ProviderCategory::Both);
        assert_eq!(p.prices().storage_gb_month, 0.029);
    }

    #[test]
    fn latency_uses_calibrated_model() {
        let clock = SimClock::new();
        let p = SimProvider::well_known(ProviderId(0), WellKnownProvider::AmazonS3, clock);
        p.create("data").unwrap();
        let out = p.put(&ObjectKey::new("data", "big"), Bytes::from(vec![0u8; 4 << 20])).unwrap();
        // Figure 5b: 4 MB writes to S3 from China take tens of seconds.
        assert!(out.report.latency.as_secs_f64() > 20.0);
    }
}
