//! Open-loop replay: the arrival schedule — not request completion —
//! advances the virtual clock.
//!
//! [`super::replay_with_state`] is closed-loop: it advances the clock by
//! each request's latency, so a slow request delays every later one and
//! the offered load adapts to the system. That is the wrong harness for
//! tail-latency work — a latency spike throttles the workload instead of
//! piling requests onto the spiked window. This driver replays an
//! [`Arrival`] stream instead: before each request it advances the clock
//! *to* the arrival time (never backwards), executes the request, and
//! records its latency without advancing the clock past completion. The
//! arrival process is the only thing that moves time, so offered load is
//! held constant no matter how slow individual requests are — which is
//! what lets hedged reads show up in p99/p999 instead of in the mean.

use hyrd_cloudsim::SimClock;
use hyrd_workloads::openloop::Arrival;

use super::{step, ReplayOptions, ReplayState, ReplayStats, StepCache};
use crate::scheme::Scheme;

/// Replays a timed arrival stream through `scheme`, carrying `state`
/// from the setup phase (an untimed [`super::replay_with_state`] of the
/// pool's creates, kept apart so setup latencies do not pollute the tail
/// percentiles the timed phase exists to measure). Arrival offsets are
/// relative to the clock's position on entry. `opts.advance_clock` is
/// ignored: in an open loop the arrival schedule owns the clock by
/// definition.
pub fn replay_arrivals(
    scheme: &mut dyn Scheme,
    arrivals: &[Arrival],
    clock: &SimClock,
    opts: &ReplayOptions,
    state: &mut ReplayState,
) -> ReplayStats {
    let origin = clock.now();
    let mut stats = ReplayStats { scheme: scheme.name().to_string(), ..Default::default() };
    let mut cache = StepCache::default();
    for arrival in arrivals {
        clock.advance_to(origin + arrival.at);
        step(scheme, &arrival.op, state, &mut cache, &mut stats, opts);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyrdConfig;
    use crate::dispatcher::Hyrd;
    use crate::driver::replay_with_state;
    use hyrd_cloudsim::Fleet;
    use hyrd_workloads::openloop::{OpenLoop, OpenLoopConfig};
    use std::time::Duration;

    fn small_workload() -> OpenLoop {
        OpenLoop::new(OpenLoopConfig {
            arrivals: 60,
            small_files: 4,
            large_files: 3,
            ..OpenLoopConfig::default()
        })
    }

    /// The untimed setup phase (closed loop), then the timed arrivals.
    fn run_once() -> ((ReplayStats, ReplayStats), Duration) {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let mut hyrd = Hyrd::new(&fleet, HyrdConfig::default()).unwrap();
        let (workload, opts) = (small_workload(), ReplayOptions::default());
        let mut state = ReplayState::default();
        let setup = replay_with_state(&mut hyrd, &workload.setup_ops(), &clock, &opts, &mut state);
        let timed = replay_arrivals(&mut hyrd, &workload.arrivals(), &clock, &opts, &mut state);
        ((setup, timed), clock.now())
    }

    #[test]
    fn arrivals_drive_the_clock_not_completions() {
        let ((setup, timed), end) = run_once();
        assert_eq!(setup.overall.count(), 7);
        assert_eq!(timed.overall.count(), 60);
        assert_eq!(timed.errors, 0);
        assert_eq!(timed.verify_failures, 0);
        // The clock ends at the last arrival (plus the setup phase that
        // preceded it), not at the sum of request latencies: in a closed
        // loop 60 multi-second reads would push virtual time far past the
        // ~30s arrival span.
        let last = small_workload().arrivals().last().unwrap().at;
        let setup_span = end - last;
        assert!(setup_span < Duration::from_secs(120), "setup span {setup_span:?}");
        assert_eq!(end, setup_span + last);
    }

    #[test]
    fn open_loop_replay_is_deterministic() {
        let (a, end_a) = run_once();
        let (b, end_b) = run_once();
        assert_eq!(a, b);
        assert_eq!(end_a, end_b);
    }

    #[test]
    fn timed_phase_records_both_tiers_and_metadata() {
        use crate::stats::OpClass;
        let ((_, timed), _) = run_once();
        assert!(timed.class(OpClass::SmallRead).count() > 0);
        assert!(timed.class(OpClass::LargeRead).count() > 0);
        assert!(timed.class(OpClass::Metadata).count() > 0);
        assert_eq!(timed.class(OpClass::SmallWrite).count(), 0);
        assert_eq!(timed.class(OpClass::LargeWrite).count(), 0);
    }
}
