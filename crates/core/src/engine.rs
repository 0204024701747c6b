//! The discrete-event fan-out engine behind every dispatcher read.
//!
//! Pre-engine, a read was a run-to-completion loop: fetch a candidate,
//! inspect, move on. That shape cannot express *concurrent in-flight
//! operations* — a hedged read that launches a redundant fetch while the
//! first is still running — so this module replaces it with an explicit
//! event schedule on the virtual clock:
//!
//! * every launched fetch becomes a [`Flight`] that **posts its
//!   completion time** (queue admission via the provider's
//!   [`hyrd_cloudsim::ProviderQueue`], so concurrency limits and
//!   queueing delay are part of the schedule),
//! * the engine always **advances to the earliest completion** (ties
//!   broken by launch order — fully deterministic),
//! * a **hedge timer** at `t0 + delay` launches up to `extra` redundant
//!   fetches if fewer than `need` flights have completed by then
//!   ("The Tail at Scale" §Hedged requests; the k-out-of-n fork-join
//!   analysis of "On the Service Capacity Region of Accessing Erasure
//!   Coded Content" motivates why redundant fragment reads cut the
//!   tail),
//! * the first `need` completions win; **stragglers are cancelled** at
//!   the finish time, billing zero payload bytes and only their elapsed
//!   in-flight latency (the provider credits the rest back).
//!
//! The engine never advances the global [`hyrd_cloudsim::SimClock`]: it
//! works in absolute nanoseconds relative to the read's start and hands
//! the composed timeline back as a [`BatchReport`]. That keeps the
//! closed-loop replay contract (the *driver* advances the clock) and the
//! multi-client determinism proof untouched. With hedging disabled and
//! idle queues the schedule degenerates exactly to the old semantics:
//! one required flight per needed payload, failover at the failure's
//! virtual time, serial corrupt re-fetches — byte-identical traces.
//!
//! The dispatcher supplies the cloud-touching side through
//! [`FanoutDriver`]; the engine owns only time. Its candidates are the
//! fleet's providers, so the flights in the air and the winners are
//! [`FleetList`]s: a read allocates only its timeline's ops.

use std::time::Duration;

use bytes::Bytes;
use hyrd_cloudsim::Admission;
use hyrd_gcsapi::{BatchReport, OpReport};

use crate::fleet_list::{FleetList, CAPACITY};

pub use crate::config::HedgeConfig;

/// Why a candidate is being launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchKind {
    /// Part of the minimum set (or a failover replacement for one).
    /// These may take extraordinary measures — e.g. force a suspect
    /// circuit breaker closed — because the read fails without them.
    Required,
    /// A redundant request fired by the hedge timer. Purely
    /// opportunistic: it must not disturb breaker state, so suspect
    /// candidates are skipped instead of reset.
    Hedge,
}

/// Outcome of one synchronous fetch attempt against a candidate.
pub enum Attempt {
    /// Verified payload; `report.latency` is the service time the
    /// latency model charged.
    Done {
        /// The provider's op report.
        report: OpReport,
        /// The fetched object bytes.
        payload: Bytes,
    },
    /// Payload failed its integrity check. The transfer still consumed
    /// time and bytes (the report bills in full); the engine grants one
    /// serial re-fetch before failing the candidate over.
    Corrupt {
        /// The provider's op report for the corrupt transfer.
        report: OpReport,
    },
    /// Provider error (outage, fault burst, breaker rejection). Costs
    /// zero virtual time: failover launches the next candidate at the
    /// same instant.
    Failed,
}

/// The cloud-touching half of a fan-out read. The dispatcher implements
/// this over its candidate list — at most one candidate per provider, a
/// [`FleetList`]'s capacity — and the engine calls back in a fixed,
/// deterministic order.
pub trait FanoutDriver {
    /// Number of ranked candidates.
    fn candidates(&self) -> usize;

    /// Admission gate run immediately before launching candidate `idx`.
    /// Returning `false` skips the candidate (hedges decline
    /// breaker-suspect providers); `Required` launches prepare the
    /// candidate instead (forcing breakers closed) and return `true`.
    fn prepare(&mut self, idx: usize, kind: LaunchKind) -> bool;

    /// One fetch attempt against candidate `idx`.
    fn attempt(&mut self, idx: usize) -> Attempt;

    /// Admits an attempt needing `service_ns` to candidate `idx`'s
    /// provider queue at virtual time `now_ns`.
    fn enqueue(&mut self, idx: usize, now_ns: u64, service_ns: u64) -> Admission;

    /// Frees the queue slot of a cancelled flight that had committed
    /// until `done_ns`; it frees at `free_at_ns` instead.
    fn release(&mut self, idx: usize, done_ns: u64, free_at_ns: u64);

    /// A straggler was cancelled after `billed` of its service time.
    /// The driver credits the unused remainder back to the provider.
    fn cancelled(&mut self, idx: usize, report: &OpReport, billed: Duration);
}

/// One completed-fetch-in-flight: the payload is already in hand (the
/// simulation resolves transfers synchronously), but on the virtual
/// timeline it is still streaming until `done_ns`.
struct Flight {
    candidate: usize,
    /// Launch order — the deterministic tie-breaker.
    seq: u64,
    hedged: bool,
    /// When the op began service (post queueing).
    start_ns: u64,
    /// When the op completes on the virtual timeline.
    done_ns: u64,
    report: OpReport,
    payload: Bytes,
}

/// A winning fetch, in completion order.
pub struct Winner {
    /// Index into the driver's candidate list.
    pub candidate: usize,
    /// The verified payload.
    pub payload: Bytes,
    /// Whether a hedge (not a required launch) delivered it.
    pub hedged: bool,
}

/// Hedging telemetry for one fan-out read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HedgeStats {
    /// Redundant requests launched by the hedge timer.
    pub fired: u64,
    /// Hedges that finished among the first `need` completions.
    pub won: u64,
    /// Stragglers cancelled once `need` completions were in.
    pub cancelled: u64,
    /// Total queueing delay (ns) suffered across all admitted attempts.
    pub queue_delay_ns: u64,
}

/// The composed result of a fan-out read.
pub struct FanoutOutcome {
    /// The first `need` verified payloads, in completion order.
    pub winners: FleetList<Winner>,
    /// The whole timeline as one batch: `latency` = finish − start,
    /// `ops` = every attempt (corrupt transfers bill in full, cancelled
    /// stragglers bill zero bytes and their in-flight time only).
    pub report: BatchReport,
    /// Hedge counters for this read.
    pub hedges: HedgeStats,
}

/// Result of walking the candidate list for one launch slot.
enum Launched {
    Flight(Flight),
    /// Every remaining candidate was exhausted; `at_ns` is the virtual
    /// time the last failure was known (corrupt chains consume time).
    Exhausted,
}

/// Launches the next viable candidate for one slot at `at_ns`: walks the
/// candidate list from `*next`, giving each candidate up to two attempts
/// (wire corruption is per-attempt; a second mismatch means the stored
/// copy is bad). Candidate failures cost zero time; corrupt transfers
/// serialize the re-fetch behind them.
#[allow(clippy::too_many_arguments)]
fn launch_next(
    driver: &mut dyn FanoutDriver,
    next: &mut usize,
    seq: &mut u64,
    mut at_ns: u64,
    kind: LaunchKind,
    hedged: bool,
    ops: &mut Vec<OpReport>,
    stats: &mut HedgeStats,
) -> Launched {
    let total = driver.candidates();
    while *next < total {
        let idx = *next;
        *next += 1;
        if !driver.prepare(idx, kind) {
            continue;
        }
        let mut attempts = 0;
        while attempts < 2 {
            attempts += 1;
            match driver.attempt(idx) {
                Attempt::Failed => break, // zero-time failover to the next candidate
                Attempt::Corrupt { report } => {
                    let adm = driver.enqueue(idx, at_ns, report.latency.as_nanos() as u64);
                    stats.queue_delay_ns += adm.queue_ns(at_ns);
                    ops.push(report);
                    // The re-fetch (or the failover, if this was the
                    // second mismatch) starts when the bad transfer ends.
                    at_ns = adm.done_ns;
                }
                Attempt::Done { report, payload } => {
                    let adm = driver.enqueue(idx, at_ns, report.latency.as_nanos() as u64);
                    stats.queue_delay_ns += adm.queue_ns(at_ns);
                    let flight = Flight {
                        candidate: idx,
                        seq: *seq,
                        hedged,
                        start_ns: adm.start_ns,
                        done_ns: adm.done_ns,
                        report,
                        payload,
                    };
                    *seq += 1;
                    return Launched::Flight(flight);
                }
            }
        }
    }
    Launched::Exhausted
}

/// Runs one fan-out read to completion: `need` verified payloads out of
/// the driver's ranked candidates, hedging per `hedge`, starting at
/// virtual time `t0`. Returns `None` when the candidates cannot supply
/// `need` payloads (the caller owns the error story).
///
/// # Panics
///
/// If the driver ranks more candidates than a [`FleetList`] holds.
pub fn fanout_read(
    driver: &mut dyn FanoutDriver,
    need: usize,
    hedge: &HedgeConfig,
    t0: Duration,
) -> Option<FanoutOutcome> {
    assert!(driver.candidates() <= CAPACITY, "at most {CAPACITY} fan-out candidates");
    let t0_ns = t0.as_nanos() as u64;
    let mut next = 0usize;
    let mut seq = 0u64;
    // Every candidate flies at most once, so neither list overflows.
    let mut active: FleetList<Flight> = FleetList::new();
    let mut winners: FleetList<Winner> = FleetList::new();
    let mut ops: Vec<OpReport> = Vec::new();
    let mut stats = HedgeStats::default();

    if need == 0 {
        return Some(FanoutOutcome {
            winners,
            report: BatchReport { latency: Duration::ZERO, ops },
            hedges: stats,
        });
    }

    // Initial wave: one required flight per needed payload, all issued
    // at t0. Each slot independently fails over through the shared
    // candidate list until it holds a flight or the list runs dry.
    for _ in 0..need {
        match launch_next(
            driver,
            &mut next,
            &mut seq,
            t0_ns,
            LaunchKind::Required,
            false,
            &mut ops,
            &mut stats,
        ) {
            Launched::Flight(f) => active.push(f),
            Launched::Exhausted => return None,
        }
    }

    let mut hedges_left = if hedge.enabled { hedge.extra } else { 0 };
    let hedge_at_ns = t0_ns.saturating_add(hedge.delay.as_nanos() as u64);
    let mut finish_ns = t0_ns;

    while winners.len() < need {
        // The engine's one rule: advance to the earliest posted event.
        let next_done = active
            .iter()
            .map(|f| (f.done_ns, f.seq))
            .min()
            .expect("initial wave filled `need` flights");
        if hedges_left > 0 && next < driver.candidates() && hedge_at_ns < next_done.0 {
            // Deadline passed with the read still incomplete: launch the
            // redundant wave. The timer fires once; extras that find no
            // viable candidate lapse.
            while hedges_left > 0 && next < driver.candidates() {
                match launch_next(
                    driver,
                    &mut next,
                    &mut seq,
                    hedge_at_ns,
                    LaunchKind::Hedge,
                    true,
                    &mut ops,
                    &mut stats,
                ) {
                    Launched::Flight(f) => {
                        active.push(f);
                        stats.fired += 1;
                        hedges_left -= 1;
                    }
                    Launched::Exhausted => break,
                }
            }
            hedges_left = 0;
            continue;
        }
        let pos = active
            .iter()
            .position(|f| (f.done_ns, f.seq) == next_done)
            .expect("min came from this list");
        let f = active.swap_remove(pos);
        finish_ns = f.done_ns;
        if f.hedged {
            stats.won += 1;
        }
        ops.push(f.report);
        winners.push(Winner { candidate: f.candidate, payload: f.payload, hedged: f.hedged });
    }

    // Cancel the stragglers at the finish line: free their queue slots,
    // credit the provider, and bill only time-in-flight with zero bytes.
    active.sort_by_key(|f| f.seq);
    for f in active {
        driver.release(f.candidate, f.done_ns, finish_ns.max(f.start_ns));
        let billed = Duration::from_nanos(finish_ns.saturating_sub(f.start_ns));
        driver.cancelled(f.candidate, &f.report, billed);
        let mut r = f.report;
        r.bytes_out = 0;
        r.bytes_in = 0;
        r.latency = billed;
        ops.push(r);
        stats.cancelled += 1;
    }

    let latency = Duration::from_nanos(finish_ns.saturating_sub(t0_ns));
    Some(FanoutOutcome { winners, report: BatchReport { latency, ops }, hedges: stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::ProviderQueue;
    use hyrd_gcsapi::{OpKind, ProviderId};

    /// Scripted driver: per-candidate attempt outcomes and service
    /// times, one single-slot-or-wider queue per candidate.
    struct Script {
        /// Per candidate: queued attempt outcomes (front first).
        outcomes: Vec<Vec<ScriptAttempt>>,
        queues: Vec<ProviderQueue>,
        cancelled: Vec<(usize, u64, u64)>, // (candidate, credited bytes, billed ns)
        hedge_skips: Vec<usize>,
    }

    #[derive(Clone, Copy)]
    enum ScriptAttempt {
        Ok { service_ms: u64, bytes: u64 },
        Corrupt { service_ms: u64, bytes: u64 },
        Err,
    }

    impl Script {
        fn new(outcomes: Vec<Vec<ScriptAttempt>>) -> Self {
            let queues = (0..outcomes.len()).map(|_| ProviderQueue::new(1)).collect();
            Script { outcomes, queues, cancelled: Vec::new(), hedge_skips: Vec::new() }
        }

        fn report(c: usize, service_ms: u64, bytes: u64) -> OpReport {
            OpReport {
                provider: ProviderId(c as u16),
                kind: OpKind::Get,
                latency: Duration::from_millis(service_ms),
                bytes_in: 0,
                bytes_out: bytes,
            }
        }
    }

    impl FanoutDriver for Script {
        fn candidates(&self) -> usize {
            self.outcomes.len()
        }

        fn prepare(&mut self, idx: usize, kind: LaunchKind) -> bool {
            kind == LaunchKind::Required || !self.hedge_skips.contains(&idx)
        }

        fn attempt(&mut self, idx: usize) -> Attempt {
            match self.outcomes[idx].remove(0) {
                ScriptAttempt::Ok { service_ms, bytes } => Attempt::Done {
                    report: Self::report(idx, service_ms, bytes),
                    payload: Bytes::from(vec![idx as u8; 4]),
                },
                ScriptAttempt::Corrupt { service_ms, bytes } => {
                    Attempt::Corrupt { report: Self::report(idx, service_ms, bytes) }
                }
                ScriptAttempt::Err => Attempt::Failed,
            }
        }

        fn enqueue(&mut self, idx: usize, now_ns: u64, service_ns: u64) -> Admission {
            self.queues[idx].admit(now_ns, service_ns)
        }

        fn release(&mut self, idx: usize, done_ns: u64, free_at_ns: u64) {
            self.queues[idx].release_early(done_ns, free_at_ns);
        }

        fn cancelled(&mut self, idx: usize, report: &OpReport, billed: Duration) {
            self.cancelled.push((idx, report.bytes_out, billed.as_nanos() as u64));
        }
    }

    const MS: u64 = 1_000_000;

    fn ok(ms: u64) -> ScriptAttempt {
        ScriptAttempt::Ok { service_ms: ms, bytes: 100 }
    }

    fn off() -> HedgeConfig {
        HedgeConfig { enabled: false, ..HedgeConfig::default() }
    }

    fn on(delay_ms: u64, extra: usize) -> HedgeConfig {
        HedgeConfig { enabled: true, delay: Duration::from_millis(delay_ms), extra }
    }

    #[test]
    fn unhedged_k_of_n_is_max_of_the_first_k() {
        let mut d = Script::new(vec![vec![ok(30)], vec![ok(10)], vec![ok(20)], vec![ok(5)]]);
        let out = fanout_read(&mut d, 3, &off(), Duration::ZERO).unwrap();
        assert_eq!(out.report.latency, Duration::from_millis(30));
        // Completion order, not launch order.
        let order: Vec<usize> = out.winners.iter().map(|w| w.candidate).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(out.hedges, HedgeStats::default());
        assert_eq!(out.report.op_count(), 3);
    }

    #[test]
    fn failover_costs_zero_time() {
        let mut d = Script::new(vec![vec![ScriptAttempt::Err], vec![ok(10)]]);
        let out = fanout_read(&mut d, 1, &off(), Duration::ZERO).unwrap();
        assert_eq!(out.report.latency, Duration::from_millis(10));
        assert_eq!(out.winners[0].candidate, 1);
    }

    #[test]
    fn corrupt_refetch_serializes() {
        let corrupt = ScriptAttempt::Corrupt { service_ms: 10, bytes: 100 };
        let mut d = Script::new(vec![vec![corrupt, ok(10)]]);
        let out = fanout_read(&mut d, 1, &off(), Duration::ZERO).unwrap();
        // Bad transfer + re-fetch, one after another.
        assert_eq!(out.report.latency, Duration::from_millis(20));
        assert_eq!(out.report.op_count(), 2);
        assert_eq!(out.report.bytes_out(), 200); // corrupt transfers bill in full
    }

    #[test]
    fn double_corruption_fails_over_at_the_cumulative_time() {
        let corrupt = ScriptAttempt::Corrupt { service_ms: 10, bytes: 100 };
        let mut d = Script::new(vec![vec![corrupt, corrupt], vec![ok(5)]]);
        let out = fanout_read(&mut d, 1, &off(), Duration::ZERO).unwrap();
        assert_eq!(out.report.latency, Duration::from_millis(25));
        assert_eq!(out.winners[0].candidate, 1);
    }

    #[test]
    fn hedge_fires_after_deadline_and_wins() {
        let mut d = Script::new(vec![vec![ok(100)], vec![ok(10)]]);
        let out = fanout_read(&mut d, 1, &on(20, 1), Duration::ZERO).unwrap();
        // Hedge launched at 20ms, done at 30ms; the straggler (100ms)
        // is cancelled at the finish line.
        assert_eq!(out.report.latency, Duration::from_millis(30));
        assert_eq!(out.winners[0].candidate, 1);
        assert!(out.winners[0].hedged);
        assert_eq!(out.hedges.fired, 1);
        assert_eq!(out.hedges.won, 1);
        assert_eq!(out.hedges.cancelled, 1);
        // Cancelled straggler bills zero bytes and only time-in-flight.
        let cancelled = &out.report.ops[out.report.ops.len() - 1];
        assert_eq!(cancelled.bytes_out, 0);
        assert_eq!(cancelled.latency, Duration::from_millis(30));
        assert_eq!(d.cancelled, vec![(0, 100, 30 * MS)]);
        // ...and its queue slot was freed at the finish line.
        assert_eq!(d.queues[0].busy_at(31 * MS), 0);
    }

    #[test]
    fn fast_read_never_hedges() {
        let mut d = Script::new(vec![vec![ok(10)], vec![ok(10)]]);
        let out = fanout_read(&mut d, 1, &on(20, 1), Duration::ZERO).unwrap();
        assert_eq!(out.hedges.fired, 0);
        assert_eq!(out.report.op_count(), 1);
    }

    #[test]
    fn losing_hedge_is_cancelled() {
        let mut d = Script::new(vec![vec![ok(50)], vec![ok(100)]]);
        let out = fanout_read(&mut d, 1, &on(20, 1), Duration::ZERO).unwrap();
        // Hedge at 20ms would finish at 120ms; the original wins at 50.
        assert_eq!(out.report.latency, Duration::from_millis(50));
        assert_eq!(out.hedges.fired, 1);
        assert_eq!(out.hedges.won, 0);
        assert_eq!(out.hedges.cancelled, 1);
        // The hedge was 30ms into its service time when cancelled.
        assert_eq!(d.cancelled, vec![(1, 100, 30 * MS)]);
    }

    #[test]
    fn hedge_skips_suspect_candidates() {
        let mut d = Script::new(vec![vec![ok(100)], vec![ok(10)], vec![ok(10)]]);
        d.hedge_skips.push(1);
        let out = fanout_read(&mut d, 1, &on(20, 1), Duration::ZERO).unwrap();
        assert_eq!(out.winners[0].candidate, 2);
        assert_eq!(out.hedges.fired, 1);
    }

    #[test]
    fn queue_congestion_delays_start() {
        let mut d = Script::new(vec![vec![ok(10)]]);
        // Saturate candidate 0's single slot until t=50ms.
        d.queues[0].admit(0, 50 * MS);
        let out = fanout_read(&mut d, 1, &off(), Duration::ZERO).unwrap();
        assert_eq!(out.report.latency, Duration::from_millis(60));
        assert_eq!(out.hedges.queue_delay_ns, 50 * MS);
    }

    #[test]
    fn exhausted_candidates_return_none() {
        let mut d = Script::new(vec![vec![ScriptAttempt::Err], vec![ScriptAttempt::Err]]);
        assert!(fanout_read(&mut d, 1, &off(), Duration::ZERO).is_none());
        let mut d = Script::new(vec![vec![ok(10)]]);
        assert!(fanout_read(&mut d, 2, &off(), Duration::ZERO).is_none());
    }

    #[test]
    fn same_script_same_schedule() {
        let build = || {
            Script::new(vec![
                vec![ok(30)],
                vec![ScriptAttempt::Corrupt { service_ms: 5, bytes: 7 }, ok(25)],
                vec![ok(40)],
                vec![ok(8)],
            ])
        };
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut d = build();
                let out = fanout_read(&mut d, 2, &on(10, 2), Duration::ZERO).unwrap();
                let winners: Vec<usize> = out.winners.iter().map(|w| w.candidate).collect();
                (out.report.latency, winners, out.hedges)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
