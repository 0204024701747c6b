//! Virtual time for the simulation.
//!
//! A [`SimClock`] is a shared atomic nanosecond counter. Providers read it
//! to decide whether they are inside an outage window; workload drivers
//! advance it by request latencies and think times. Using a plain atomic
//! (no mutex, no ordering stronger than needed) keeps the clock free to
//! share across the replay engine's worker threads: `advance` publishes
//! with `AcqRel` so a reader that observes the new time also observes
//! everything the advancing thread did before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically non-decreasing virtual clock, cheap to clone and share.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time since simulation start.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }

    /// Advances the clock by `d`, returning the new time.
    pub fn advance(&self, d: Duration) -> Duration {
        let add = u64::try_from(d.as_nanos()).expect("virtual time overflow");
        let new = self.nanos.fetch_add(add, Ordering::AcqRel) + add;
        Duration::from_nanos(new)
    }

    /// Moves the clock forward *to* `t` if `t` is later than now; never
    /// moves backwards. Returns the resulting time.
    pub fn advance_to(&self, t: Duration) -> Duration {
        let target = u64::try_from(t.as_nanos()).expect("virtual time overflow");
        let mut cur = self.nanos.load(Ordering::Acquire);
        while target > cur {
            match self.nanos.compare_exchange_weak(cur, target, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Duration::from_nanos(target),
                Err(actual) => cur = actual,
            }
        }
        Duration::from_nanos(cur)
    }
}

/// The simulation's telemetry traces are stamped with *virtual* time,
/// which is what makes same-seed runs byte-identical.
impl hyrd_telemetry::TelemetryClock for SimClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Acquire)
    }
}

/// Handy duration constructors used throughout the simulation configs.
pub mod units {
    use std::time::Duration;

    /// Milliseconds.
    pub fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Seconds.
    pub fn secs(v: u64) -> Duration {
        Duration::from_secs(v)
    }

    /// Hours.
    pub fn hours(v: u64) -> Duration {
        Duration::from_secs(v * 3600)
    }

    /// Days.
    pub fn days(v: u64) -> Duration {
        Duration::from_secs(v * 86_400)
    }

    /// One simulated "month" (30 days), the billing granularity of
    /// Table II price plans.
    pub fn months(v: u64) -> Duration {
        days(30 * v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        let t = c.advance(Duration::from_millis(250));
        assert_eq!(t, Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_millis(1250));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(5));
        assert_eq!(b.now(), Duration::from_secs(5));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(10));
        let t = c.advance_to(Duration::from_secs(3));
        assert_eq!(t, Duration::from_secs(10));
        let t = c.advance_to(Duration::from_secs(30));
        assert_eq!(t, Duration::from_secs(30));
        assert_eq!(c.now(), Duration::from_secs(30));
    }

    #[test]
    fn concurrent_advances_accumulate_exactly() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_nanos(3));
                    }
                });
            }
        });
        assert_eq!(c.now(), Duration::from_nanos(8 * 1000 * 3));
    }

    #[test]
    fn telemetry_clock_reads_virtual_nanos() {
        use hyrd_telemetry::TelemetryClock;
        let c = SimClock::new();
        c.advance(Duration::from_nanos(1234));
        assert_eq!(c.now_nanos(), 1234);
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now_nanos(), 1_000_001_234);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(units::ms(1500), Duration::from_millis(1500));
        assert_eq!(units::hours(2), Duration::from_secs(7200));
        assert_eq!(units::days(1), Duration::from_secs(86_400));
        assert_eq!(units::months(1), Duration::from_secs(30 * 86_400));
    }
}
