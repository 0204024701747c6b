//! The health tracker's lock-free path is the locked breaker: a breaker
//! that is closed with no failure streak answers `probe`, `admits` and
//! `record_success` from a mark, without its lock. Random sequences of
//! probe, admits, success, failure and reset over three providers, at
//! advancing virtual times, must get from a `HealthTracker` exactly what a
//! bare `CircuitBreaker` per provider answers — every reply, the trip
//! totals and the `breaker.transition` events.

use std::sync::Arc;
use std::time::Duration;

use hyrd::health::{BreakerSettings, BreakerState, CircuitBreaker, HealthTracker};
use hyrd_gcsapi::ProviderId;
use hyrd_telemetry::{Collector, ManualClock};
use hyrd_testkit::{check, Gen};

const PROVIDERS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Action {
    Probe,
    Admits,
    Success,
    Failure,
    Reset,
}

#[derive(Debug)]
struct Case {
    settings: BreakerSettings,
    /// (provider, action, virtual-time step before it).
    steps: Vec<(u16, Action, Duration)>,
}

fn case(g: &mut Gen) -> Case {
    let settings = BreakerSettings {
        trip_after: g.range(1..=4u32),
        cooldown: Duration::from_secs(g.range(1..=20u64)),
    };
    let steps = g.vec(0..200, |g| {
        // Failures are frequent enough to trip, successes to heal.
        let action =
            [Action::Probe, Action::Admits, Action::Success, Action::Failure, Action::Reset]
                [g.weighted(&[6, 3, 4, 6, 1])];
        let step = Duration::from_millis(g.range(0..=4_000u64));
        (g.range(0..PROVIDERS as u16), action, step)
    });
    Case { settings, steps }
}

fn label(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed { .. } => "closed",
        BreakerState::Open { .. } => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

#[test]
fn the_tracker_answers_as_a_bare_breaker_per_provider() {
    check(256, case, |case| {
        let collector = Collector::builder(Arc::new(ManualClock::new())).ring(1 << 12).build();
        let mut tracker = HealthTracker::new(case.settings, PROVIDERS);
        tracker.set_telemetry(collector.clone());
        let mut model = vec![CircuitBreaker::new(case.settings); PROVIDERS];
        let mut transitions = Vec::new();
        let mut now = Duration::ZERO;

        for (i, &(p, action, step)) in case.steps.iter().enumerate() {
            now += step;
            let (id, b) = (ProviderId(p), &mut model[usize::from(p)]);
            let before = label(b.state());
            let (got, want) = match action {
                Action::Probe => (tracker.probe(id, now), b.probe(now)),
                Action::Admits => {
                    assert_eq!(tracker.is_open(id, now), !b.admits(now), "step {i}: is_open");
                    (tracker.admits(id, now), b.admits(now))
                }
                Action::Success => {
                    tracker.record_success(id);
                    b.on_success();
                    (true, true)
                }
                Action::Failure => {
                    tracker.record_failure(id, now);
                    b.on_failure(now);
                    (true, true)
                }
                Action::Reset => {
                    tracker.reset(id);
                    b.reset();
                    (true, true)
                }
            };
            assert_eq!(got, want, "step {i}: {action:?} on provider {p} at {now:?}");
            let after = label(b.state());
            if before != after {
                transitions.push((u64::from(p), before.to_string(), after.to_string()));
            }
            assert_eq!(tracker.trips(), model.iter().map(CircuitBreaker::trips).sum::<u64>());
            let want_counts: Vec<(ProviderId, u64)> = (0u16..)
                .zip(&model)
                .filter(|(_, b)| b.trips() > 0)
                .map(|(id, b)| (ProviderId(id), b.trips()))
                .collect();
            assert_eq!(tracker.trip_counts(), want_counts, "step {i}: trip counts");
        }

        let events: Vec<(u64, String, String)> = collector
            .ring_records()
            .iter()
            .filter(|r| r.is_event("breaker.transition"))
            .map(|r| {
                (
                    r.field_u64("provider").unwrap(),
                    r.field_str("from").unwrap().to_string(),
                    r.field_str("to").unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(events, transitions, "the same transitions, in order");
        assert_eq!(collector.counter("breaker.transitions"), transitions.len() as u64);
    });
}
