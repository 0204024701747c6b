//! Per-provider health tracking: circuit breakers on the virtual clock.
//!
//! Retry absorbs isolated transient faults; the outage schedule models
//! announced downtime. Between the two sits the provider that is *up but
//! failing* — a throttling storm, a partial outage the provider has not
//! admitted to. A [`CircuitBreaker`] per provider trips after
//! `trip_after` consecutive health-relevant failures, short-circuits
//! further calls (feeding the dispatcher's existing failover paths) for
//! `cooldown` of virtual time, then admits one half-open probe whose
//! outcome closes or re-trips the circuit. No wall-clock time anywhere:
//! state advances only with the [`hyrd_cloudsim::SimClock`]'s `now`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use std::sync::Mutex;

use hyrd_gcsapi::sync::lock;

use hyrd_gcsapi::ProviderId;
use hyrd_telemetry::Collector;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSettings {
    /// Consecutive health-relevant failures that trip the breaker.
    pub trip_after: u32,
    /// Virtual time the breaker stays open before admitting a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerSettings {
    fn default() -> Self {
        BreakerSettings { trip_after: 5, cooldown: Duration::from_secs(30) }
    }
}

/// Breaker state, exposed for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; counts the current failure streak.
    Closed {
        /// Consecutive failures so far.
        consecutive_failures: u32,
    },
    /// Calls are rejected until the cooldown passes.
    Open {
        /// Virtual time at which a half-open probe is admitted.
        until: Duration,
    },
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

/// One provider's circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    settings: BreakerSettings,
    state: BreakerState,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(settings: BreakerSettings) -> Self {
        CircuitBreaker {
            settings,
            state: BreakerState::Closed { consecutive_failures: 0 },
            trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Non-consuming admission check: would a call at `now` be allowed?
    /// (An open breaker past its cooldown answers yes — the call would
    /// become the half-open probe.)
    pub fn admits(&self, now: Duration) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => now >= until,
            BreakerState::HalfOpen => false,
        }
    }

    /// Consuming admission: a `true` result means the caller is making
    /// the call *now* and will report its outcome. An open breaker past
    /// its cooldown transitions to half-open and admits exactly one
    /// probe; further calls are rejected until the probe reports.
    pub fn probe(&mut self, now: Duration) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => false,
        }
    }

    /// Reports a successful call: the breaker closes.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed { consecutive_failures: 0 };
    }

    /// Reports a failed call at `now`: extends the streak (closed) or
    /// re-trips (half-open).
    pub fn on_failure(&mut self, now: Duration) {
        match self.state {
            BreakerState::Closed { consecutive_failures } => {
                let streak = consecutive_failures + 1;
                if streak >= self.settings.trip_after {
                    self.trip(now);
                } else {
                    self.state = BreakerState::Closed { consecutive_failures: streak };
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open { .. } => {}
        }
    }

    /// Force-closes the breaker (provider recovered out of band).
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed { consecutive_failures: 0 };
    }

    fn trip(&mut self, now: Duration) {
        self.trips += 1;
        self.state = BreakerState::Open { until: now + self.settings.cooldown };
    }
}

/// Short state label for telemetry events (streak counts and cooldown
/// deadlines are payload, not state identity).
fn state_name(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed { .. } => "closed",
        BreakerState::Open { .. } => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

/// One provider's breaker behind its own lock, with a mark that lets the
/// quiet path skip the lock.
#[derive(Debug)]
struct Slot {
    /// Set exactly while the breaker is closed with no failure streak,
    /// the one state in which `probe`, `admits` and `record_success`
    /// change nothing and answer yes: they read the mark and take no
    /// lock. Written only under `breaker`'s lock, after each change.
    clean: AtomicBool,
    breaker: Mutex<CircuitBreaker>,
}

/// The dispatcher's per-provider breakers, one per fleet provider, built
/// with the tracker. Interior mutability so the read paths (which take
/// `&self`) can record outcomes.
#[derive(Debug)]
pub struct HealthTracker {
    /// Indexed by provider id.
    breakers: Vec<Slot>,
    telemetry: Collector,
}

impl HealthTracker {
    /// A tracker for providers `0..providers` with the given settings
    /// (every breaker starts closed).
    pub fn new(settings: BreakerSettings, providers: usize) -> Self {
        HealthTracker {
            breakers: (0..providers)
                .map(|_| Slot {
                    clean: AtomicBool::new(true),
                    breaker: Mutex::new(CircuitBreaker::new(settings)),
                })
                .collect(),
            telemetry: Collector::disabled(),
        }
    }

    /// Installs a telemetry collector: every breaker state *transition*
    /// (closed → open, open → half-open, half-open → closed, …) is emitted
    /// as a `breaker.transition` event from then on.
    pub fn set_telemetry(&mut self, collector: Collector) {
        self.telemetry = collector;
    }

    fn slot(&self, id: ProviderId) -> &Slot {
        &self.breakers[usize::from(id.0)]
    }

    /// Whether `id`'s breaker is closed with no failure streak, read
    /// without its lock.
    fn clean(&self, id: ProviderId) -> bool {
        self.slot(id).clean.load(Ordering::Acquire)
    }

    fn with<T>(&self, id: ProviderId, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        let slot = self.slot(id);
        let mut breaker = lock(&slot.breaker);
        let before = breaker.state();
        let out = f(&mut breaker);
        let after = breaker.state();
        slot.clean
            .store(after == BreakerState::Closed { consecutive_failures: 0 }, Ordering::Release);
        if self.telemetry.enabled() && state_name(before) != state_name(after) {
            self.telemetry
                .event("breaker.transition")
                .field("provider", u64::from(id.0))
                .field("from", state_name(before))
                .field("to", state_name(after))
                .emit();
            self.telemetry.inc("breaker.transitions", 1);
        }
        out
    }

    /// Consuming admission check for a call happening now (see
    /// [`CircuitBreaker::probe`]).
    pub fn probe(&self, id: ProviderId, now: Duration) -> bool {
        self.clean(id) || self.with(id, |b| b.probe(now))
    }

    /// Non-consuming admission check (candidate filtering).
    pub fn admits(&self, id: ProviderId, now: Duration) -> bool {
        self.clean(id) || self.with(id, |b| b.admits(now))
    }

    /// Whether the breaker currently rejects calls at `now`.
    pub fn is_open(&self, id: ProviderId, now: Duration) -> bool {
        !self.admits(id, now)
    }

    /// Records a successful call.
    pub fn record_success(&self, id: ProviderId) {
        if !self.clean(id) {
            self.with(id, |b| b.on_success());
        }
    }

    /// Records a health-relevant failure.
    pub fn record_failure(&self, id: ProviderId, now: Duration) {
        self.with(id, |b| b.on_failure(now));
    }

    /// Force-closes one provider's breaker (after `recover_provider`).
    pub fn reset(&self, id: ProviderId) {
        self.with(id, |b| b.reset());
    }

    /// Total trips across providers.
    pub fn trips(&self) -> u64 {
        self.breakers.iter().map(|slot| lock(&slot.breaker).trips()).sum()
    }

    /// Per-provider trip counts for providers that have tripped at
    /// least once, sorted by provider id (deterministic).
    pub fn trip_counts(&self) -> Vec<(ProviderId, u64)> {
        (0u16..)
            .zip(&self.breakers)
            .map(|(id, slot)| (ProviderId(id), lock(&slot.breaker).trips()))
            .filter(|&(_, trips)| trips > 0)
            .collect()
    }
}

/// Atomic counters for the dispatcher's fault handling, snapshot into
/// reports.
#[derive(Debug, Default)]
pub struct FaultCounters {
    retries: AtomicU64,
    breaker_rejections: AtomicU64,
    corrupt_gets: AtomicU64,
}

impl FaultCounters {
    /// Adds `n` retry sleeps.
    pub fn note_retries(&self, n: u32) {
        if n > 0 {
            self.retries.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Counts a call short-circuited by an open breaker.
    pub fn note_breaker_rejection(&self) {
        self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a Get whose bytes failed their checksum.
    pub fn note_corruption(&self) {
        self.corrupt_gets.fetch_add(1, Ordering::Relaxed);
    }

    /// Current values.
    pub fn snapshot(&self) -> FaultCounterSnapshot {
        FaultCounterSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            corrupt_gets: self.corrupt_gets.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`FaultCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounterSnapshot {
    /// Backoff sleeps taken by the retry layer.
    pub retries: u64,
    /// Calls rejected by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Gets detected as corrupt by checksum.
    pub corrupt_gets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> Duration {
        Duration::from_secs(v)
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(BreakerSettings { trip_after: 3, cooldown: secs(30) });
        b.on_failure(secs(1));
        b.on_failure(secs(2));
        assert!(b.admits(secs(2)), "streak of 2 stays closed");
        b.on_success();
        b.on_failure(secs(3));
        b.on_failure(secs(4));
        assert!(b.admits(secs(4)), "success resets the streak");
        b.on_failure(secs(5));
        assert!(!b.admits(secs(5)), "third consecutive failure trips");
        assert_eq!(b.trips(), 1);
        assert!(matches!(b.state(), BreakerState::Open { until } if until == secs(35)));
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let settings = BreakerSettings { trip_after: 1, cooldown: secs(10) };
        let mut b = CircuitBreaker::new(settings);
        b.on_failure(secs(0));
        assert!(!b.probe(secs(5)), "cooldown still running");
        assert!(b.probe(secs(10)), "cooldown over: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.probe(secs(10)), "only one probe until it reports");
        assert!(!b.admits(secs(10)));
        b.on_success();
        assert!(b.probe(secs(10)), "probe success closes the breaker");

        // Same dance, but the probe fails: straight back to open.
        b.on_failure(secs(20));
        assert!(b.probe(secs(30)));
        b.on_failure(secs(30));
        assert!(matches!(b.state(), BreakerState::Open { until } if until == secs(40)));
        assert_eq!(b.trips(), 3);
    }

    #[test]
    fn admits_is_non_consuming() {
        let mut b = CircuitBreaker::new(BreakerSettings { trip_after: 1, cooldown: secs(10) });
        b.on_failure(secs(0));
        assert!(b.admits(secs(10)));
        assert!(b.admits(secs(10)), "admits never claims the probe");
        assert!(matches!(b.state(), BreakerState::Open { .. }), "state unchanged");
        assert!(b.probe(secs(10)), "the probe is still available");
    }

    #[test]
    fn tracker_tracks_providers_independently() {
        let t = HealthTracker::new(BreakerSettings { trip_after: 2, cooldown: secs(30) }, 2);
        let (a, b) = (ProviderId(0), ProviderId(1));
        t.record_failure(a, secs(1));
        t.record_failure(a, secs(2));
        assert!(t.is_open(a, secs(2)));
        assert!(t.admits(b, secs(2)), "b is unaffected");
        assert_eq!(t.trips(), 1);
        assert_eq!(t.trip_counts(), vec![(a, 1)]);
        t.reset(a);
        assert!(t.admits(a, secs(2)), "reset closes the breaker immediately");
        assert_eq!(t.trips(), 1, "reset does not erase history");
    }

    #[test]
    fn tracker_emits_transition_events_not_streak_noise() {
        use hyrd_telemetry::{Collector, ManualClock};
        use std::sync::Arc;

        let collector = Collector::builder(Arc::new(ManualClock::new())).ring(64).build();
        let mut t = HealthTracker::new(BreakerSettings { trip_after: 3, cooldown: secs(10) }, 3);
        t.set_telemetry(collector.clone());
        let id = ProviderId(2);

        t.record_failure(id, secs(1)); // closed streak 1: same state kind, no event
        t.record_failure(id, secs(2)); // closed streak 2
        t.record_failure(id, secs(3)); // trips: closed → open
        assert!(t.probe(id, secs(13)), "cooldown over"); // open → half_open
        t.record_success(id); // half_open → closed

        let transitions: Vec<(String, String)> = collector
            .ring_records()
            .iter()
            .filter(|r| r.is_event("breaker.transition"))
            .map(|r| {
                (r.field_str("from").unwrap().to_string(), r.field_str("to").unwrap().to_string())
            })
            .collect();
        let expect = |a: &str, b: &str| (a.to_string(), b.to_string());
        assert_eq!(
            transitions,
            vec![
                expect("closed", "open"),
                expect("open", "half_open"),
                expect("half_open", "closed"),
            ]
        );
        assert_eq!(collector.counter("breaker.transitions"), 3);
    }

    #[test]
    fn counters_snapshot() {
        let c = FaultCounters::default();
        c.note_retries(0);
        c.note_retries(3);
        c.note_breaker_rejection();
        c.note_corruption();
        c.note_corruption();
        let s = c.snapshot();
        assert_eq!(s, FaultCounterSnapshot { retries: 3, breaker_rejections: 1, corrupt_gets: 2 });
    }
}
