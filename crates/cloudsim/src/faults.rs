//! Seeded, deterministic fault injection beyond clean outages.
//!
//! The outage schedule models the paper's headline failure — a provider
//! that is cleanly down for a window — but real cloud-of-clouds
//! deployments mostly see messier faults: throttling *bursts*, tail
//! *latency spikes*, silent *wire corruption* on Gets, *torn* partial
//! Puts, and slow *bit rot* of stored objects. A [`FaultPlan`] describes
//! all five for one provider, every decision derived from a single seed
//! plus either the virtual clock (window membership) or the provider's
//! op sequence number (per-op coin flips), so any run is reproducible
//! bit-for-bit.
//!
//! A quiet plan (the default) changes nothing: providers with no plan
//! behave exactly as before, which keeps ghost/real equivalence and every
//! existing test intact.
//!
//! Scope notes, deliberate:
//!
//! * wire corruption applies only to whole-object `Get` — ranged reads
//!   feed the erasure-update engine, which has no per-window checksums to
//!   detect a flipped bit, so corrupting them would silently poison
//!   recomputed parity instead of exercising detection;
//! * torn writes apply only to whole-object `Put` (the torn prefix is
//!   stored, the op reports a transient failure) for the same reason;
//! * bit rot mutates objects *at rest* and is only caught when the next
//!   Get's checksum fails or the scrub pass sweeps the object.

use std::time::Duration;

/// SplitMix64 finalizer over a seed and a salt: the one hash behind
/// every per-op fault decision.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

const SALT_BURST: u64 = 0x4255_5253;
const SALT_WIRE: u64 = 0x5749_5245;
const SALT_TORN: u64 = 0x544F_524E;
const SALT_ROT: u64 = 0x0052_4F54;

/// A window of elevated transient-error probability (throttling burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window start (virtual time, inclusive).
    pub start: Duration,
    /// Window end (exclusive).
    pub end: Duration,
    /// Per-op transient-failure probability inside the window, in
    /// thousandths (e.g. 300 = 30%).
    pub per_milli: u16,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Duration) -> bool {
        t >= self.start && t < self.end
    }
}

/// A window during which op latencies are multiplied (tail-latency
/// episode: a degraded network path, a hot shard on the provider side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySpike {
    /// Episode start (inclusive).
    pub start: Duration,
    /// Episode end (exclusive).
    pub end: Duration,
    /// Latency multiplier while active (>= 1.0).
    pub multiplier: f64,
}

impl LatencySpike {
    /// Whether `t` falls inside the episode.
    pub fn contains(&self, t: Duration) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-provider fault schedule. Composes freely with the provider's
/// [`crate::outage::OutageSchedule`] and flakiness knob.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    bursts: Vec<FaultWindow>,
    spikes: Vec<LatencySpike>,
    /// Per-op probability (thousandths) that a whole-object Get returns
    /// bytes with one flipped bit.
    wire_corrupt_per_milli: u16,
    /// Per-op probability (thousandths) that a whole-object Put stores a
    /// truncated prefix and reports a transient failure.
    torn_put_per_milli: u16,
    /// Virtual times at which one stored object rots (one flipped bit at
    /// rest). Kept sorted; consumed in order as the clock passes them.
    rot_events: Vec<Duration>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Sets the decision seed (different seeds → different per-op coin
    /// flips with identical configured rates).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a transient-error burst window.
    pub fn with_burst(mut self, start: Duration, end: Duration, per_milli: u16) -> Self {
        assert!(end > start, "burst must end after it starts");
        self.bursts.push(FaultWindow { start, end, per_milli: per_milli.min(1000) });
        self.bursts.sort_by_key(|w| w.start);
        self
    }

    /// Adds a latency-spike episode.
    pub fn with_spike(mut self, start: Duration, end: Duration, multiplier: f64) -> Self {
        assert!(end > start, "spike must end after it starts");
        assert!(multiplier >= 1.0, "latency can only be inflated");
        self.spikes.push(LatencySpike { start, end, multiplier });
        self.spikes.sort_by_key(|a| a.start);
        self
    }

    /// Enables wire corruption on whole-object Gets at the given rate
    /// (thousandths).
    pub fn with_wire_corruption(mut self, per_milli: u16) -> Self {
        self.wire_corrupt_per_milli = per_milli.min(1000);
        self
    }

    /// Enables torn writes on whole-object Puts at the given rate
    /// (thousandths).
    pub fn with_torn_puts(mut self, per_milli: u16) -> Self {
        self.torn_put_per_milli = per_milli.min(1000);
        self
    }

    /// Schedules a bit-rot event at virtual time `at`.
    pub fn with_rot_at(mut self, at: Duration) -> Self {
        self.rot_events.push(at);
        self.rot_events.sort();
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.bursts.is_empty()
            && self.spikes.is_empty()
            && self.wire_corrupt_per_milli == 0
            && self.torn_put_per_milli == 0
            && self.rot_events.is_empty()
    }

    /// Whether op `seq` at virtual time `now` fails with a burst error.
    pub fn burst_error(&self, now: Duration, seq: u64) -> bool {
        let Some(w) = self.bursts.iter().find(|w| w.contains(now)) else {
            return false;
        };
        mix(self.seed ^ SALT_BURST, seq) % 1000 < w.per_milli as u64
    }

    /// Latency multiplier active at `now` (1.0 when no spike is active;
    /// overlapping spikes take the max, not the product — one saturated
    /// path does not get slower by being saturated twice).
    pub fn latency_multiplier(&self, now: Duration) -> f64 {
        self.spikes.iter().filter(|s| s.contains(now)).map(|s| s.multiplier).fold(1.0, f64::max)
    }

    /// If op `seq`'s Get is wire-corrupted, the entropy to corrupt with.
    pub fn wire_corruption(&self, seq: u64) -> Option<u64> {
        if self.wire_corrupt_per_milli == 0 {
            return None;
        }
        let z = mix(self.seed ^ SALT_WIRE, seq);
        (z % 1000 < self.wire_corrupt_per_milli as u64).then_some(z)
    }

    /// If op `seq`'s Put is torn, the entropy deciding the kept prefix.
    pub fn torn_put(&self, seq: u64) -> Option<u64> {
        if self.torn_put_per_milli == 0 {
            return None;
        }
        let z = mix(self.seed ^ SALT_TORN, seq);
        (z % 1000 < self.torn_put_per_milli as u64).then_some(z)
    }

    /// Given that `consumed` rot events have already been applied, the
    /// entropy for the next one if its time has passed.
    pub fn rot_due(&self, consumed: usize, now: Duration) -> Option<u64> {
        self.rot_events
            .get(consumed)
            .filter(|&&at| at <= now)
            .map(|_| mix(self.seed ^ SALT_ROT, consumed as u64))
    }

    /// Total rot events scheduled.
    pub fn rot_event_count(&self) -> usize {
        self.rot_events.len()
    }

    /// A full chaos schedule tiling `horizon`: periodic throttling
    /// bursts and latency spikes, moderate wire-corruption and torn-put
    /// rates, and one bit-rot event per quarter — the soak-drill diet.
    /// Deterministic in `seed`; nothing is scheduled at t=0 so setup
    /// probes run clean.
    pub fn chaos(seed: u64, horizon: Duration) -> Self {
        let mut plan = FaultPlan::quiet().with_seed(seed);
        // 12 bursts of horizon/72 each, 15%–35% transient failures.
        for k in 0..12u32 {
            let start = horizon.mul_f64((k as f64 + 0.25) / 12.0);
            let end = start + horizon.mul_f64(1.0 / 72.0);
            let per_milli = 150 + (mix(seed, 0x6275 + k as u64) % 200) as u16;
            plan = plan.with_burst(start, end, per_milli);
        }
        // 6 latency spikes of horizon/48 each, 2x–8x.
        for k in 0..6u32 {
            let start = horizon.mul_f64((k as f64 + 0.6) / 6.0 - 0.05);
            let end = start + horizon.mul_f64(1.0 / 48.0);
            let mult = 2.0 + (mix(seed, 0x7370 + k as u64) % 60) as f64 / 10.0;
            plan = plan.with_spike(start, end, mult);
        }
        plan = plan.with_wire_corruption(3).with_torn_puts(3);
        // One rot event per quarter of the horizon, offset from the
        // window boundaries.
        for k in 0..4u32 {
            plan = plan.with_rot_at(horizon.mul_f64((k as f64 + 0.7) / 4.0));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::units::{hours, secs};

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::quiet();
        assert!(p.is_quiet());
        for seq in 0..1000 {
            assert!(!p.burst_error(secs(seq), seq));
            assert!(p.wire_corruption(seq).is_none());
            assert!(p.torn_put(seq).is_none());
        }
        assert_eq!(p.latency_multiplier(hours(1)), 1.0);
        assert!(p.rot_due(0, hours(100)).is_none());
    }

    #[test]
    fn burst_rate_applies_only_inside_the_window() {
        let p = FaultPlan::quiet().with_seed(11).with_burst(hours(1), hours(2), 500);
        let inside: usize = (0..2000).filter(|&s| p.burst_error(hours(1) + secs(1), s)).count();
        assert!((800..1200).contains(&inside), "≈50% inside the window, got {inside}");
        assert_eq!((0..2000).filter(|&s| p.burst_error(secs(10), s)).count(), 0);
        assert_eq!((0..2000).filter(|&s| p.burst_error(hours(2), s)).count(), 0, "half-open end");
    }

    #[test]
    fn spikes_multiply_latency_and_overlaps_take_the_max() {
        let p = FaultPlan::quiet().with_spike(secs(10), secs(20), 3.0).with_spike(
            secs(15),
            secs(30),
            5.0,
        );
        assert_eq!(p.latency_multiplier(secs(5)), 1.0);
        assert_eq!(p.latency_multiplier(secs(12)), 3.0);
        assert_eq!(p.latency_multiplier(secs(17)), 5.0);
        assert_eq!(p.latency_multiplier(secs(25)), 5.0);
        assert_eq!(p.latency_multiplier(secs(30)), 1.0);
    }

    #[test]
    fn per_op_decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::quiet().with_seed(1).with_wire_corruption(500).with_torn_puts(500);
        let b = FaultPlan::quiet().with_seed(2).with_wire_corruption(500).with_torn_puts(500);
        let decisions: Vec<_> = (0..256).map(|s| a.wire_corruption(s)).collect();
        assert_eq!(decisions, (0..256).map(|s| a.wire_corruption(s)).collect::<Vec<_>>());
        assert_ne!(decisions, (0..256).map(|s| b.wire_corruption(s)).collect::<Vec<_>>());
        // Wire and torn streams are decorrelated even with equal rates.
        let wire: Vec<bool> = (0..256).map(|s| a.wire_corruption(s).is_some()).collect();
        let torn: Vec<bool> = (0..256).map(|s| a.torn_put(s).is_some()).collect();
        assert_ne!(wire, torn);
    }

    #[test]
    fn rot_events_fire_in_order_as_time_passes() {
        let p = FaultPlan::quiet().with_rot_at(hours(2)).with_rot_at(hours(1));
        assert_eq!(p.rot_event_count(), 2);
        assert!(p.rot_due(0, secs(10)).is_none(), "nothing due yet");
        let first = p.rot_due(0, hours(1)).expect("first event due");
        assert!(p.rot_due(1, hours(1)).is_none(), "second not due at hour 1");
        let second = p.rot_due(1, hours(3)).expect("second event due");
        assert_ne!(first, second, "each event gets its own entropy");
    }

    #[test]
    fn chaos_schedule_is_deterministic_and_leaves_t0_clean() {
        let a = FaultPlan::chaos(99, hours(24));
        let b = FaultPlan::chaos(99, hours(24));
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::chaos(100, hours(24)));
        assert!(!a.is_quiet());
        assert!(!a.burst_error(Duration::ZERO, 0), "no burst at t=0");
        assert_eq!(a.latency_multiplier(Duration::ZERO), 1.0, "no spike at t=0");
        assert_eq!(a.rot_event_count(), 4);
    }
}
