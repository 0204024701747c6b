//! Deterministic multi-client replay: N closed-loop sessions over one
//! shared [`Hyrd`] namespace.
//!
//! # Model
//!
//! The engine simulates N independent clients in a **closed loop**: each
//! session issues one request, waits out its (virtual-time) latency, and
//! only then asks for more work. Work comes from a single global FIFO of
//! [`FsOp`]s — the next free session takes the next op, like N tellers
//! sharing one queue.
//!
//! # The next-event-order interleaving rule
//!
//! Execution is serialized in **virtual next-event order**: every step,
//! the session whose `busy_until` cursor is smallest (ties broken by
//! session id) dequeues the globally-next op, executes it to completion,
//! advances the shared clock by the op's latency, and moves its cursor
//! to the new now. Because the *op order* is the queue order no matter
//! which session runs each op, the merged execution schedule — and with
//! it the merged [`ReplayStats`], every `replay.op` trace event, and the
//! clock itself — is **identical for any client count and any `jobs`
//! value**, and equal to a plain single-session [`super::replay`] of the
//! same op stream. Session identity shows up only in the per-session
//! reports and the `session.*` labeled registry metrics, never in trace
//! events. DESIGN.md §11 states the full determinism contract.
//!
//! # `jobs > 1`: baton passing, not racing
//!
//! With multiple worker threads, each thread claims the next op index
//! and executes it **while holding the engine lock** — threads take
//! turns, they do not overlap. The parallel mode exists to prove the
//! `&self` CRUD surface is genuinely `Sync` (ops really do run on
//! different OS threads against one shared client) while keeping the
//! byte-for-byte output contract; wall-clock speedup is explicitly a
//! non-goal here. Free-running concurrency (no determinism) is what the
//! dispatcher's own thread tests exercise.

use std::time::Duration;

use hyrd_cloudsim::SimClock;
use hyrd_workloads::FsOp;

use super::{effective_jobs, ReplayOptions, ReplayState, ReplayStats, StepCache};
use crate::dispatcher::Hyrd;
use crate::scheme::Scheme;
use crate::stats::LatencyStats;

/// Multi-client replay knobs.
#[derive(Debug, Clone)]
pub struct MultiClientOptions {
    /// Number of closed-loop sessions sharing the namespace (≥ 1;
    /// 0 is treated as 1).
    pub clients: usize,
    /// Worker threads (`0` = one per core). Output is byte-identical
    /// for every value — see the module docs.
    pub jobs: usize,
    /// Per-op replay behaviour (verification, clock advance, telemetry).
    pub replay: ReplayOptions,
}

impl Default for MultiClientOptions {
    fn default() -> Self {
        MultiClientOptions { clients: 1, jobs: 1, replay: ReplayOptions::default() }
    }
}

hyrd_telemetry::json_struct! {
    /// What one session did across every batch run so far.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SessionReport {
        /// Telemetry label ("c00", "c01", …).
        pub label: String,
        /// Ops this session executed successfully.
        pub ops: u64,
        /// Ops this session saw refused.
        pub errors: u64,
        /// Provider operations its ops issued.
        pub provider_ops: u64,
        /// Bytes its ops uploaded.
        pub bytes_in: u64,
        /// Bytes its ops downloaded.
        pub bytes_out: u64,
        /// Total virtual time spent executing (the closed-loop busy time).
        pub busy: Duration,
        /// Latency digest of its ops.
        pub stats: LatencyStats,
    }
}

hyrd_telemetry::json_struct! {
    /// Everything a multi-client run produced.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MultiClientReport {
        /// Session count the engine ran with.
        pub clients: usize,
        /// Merged stats, recorded in execution order — byte-identical for
        /// any client/job count (the artifact `--check` compares).
        pub merged: ReplayStats,
        /// Per-session breakdowns (these legitimately vary with `clients`).
        pub sessions: Vec<SessionReport>,
    }
}

/// The stable per-session telemetry label.
pub fn session_label(session: usize) -> String {
    format!("c{session:02}")
}

struct Inner {
    /// Index of the next op to claim, within the current batch.
    next: usize,
    /// Merged stats for the current batch, in execution order.
    batch: ReplayStats,
    /// Shared namespace bookkeeping, carried across batches.
    state: ReplayState,
    cache: StepCache,
    /// Virtual time each session is busy until.
    busy_until: Vec<Duration>,
    sessions: Vec<SessionReport>,
}

/// The multi-client replay engine. Stateful on purpose: the shared
/// namespace tables persist across [`MultiClient::run_ops`] batches, so
/// harnesses can interleave replay phases with maintenance (recovery,
/// scrub) exactly like the single-session `replay_with_state` pattern.
pub struct MultiClient<'a> {
    scheme: &'a Hyrd,
    clock: &'a SimClock,
    opts: MultiClientOptions,
    inner: std::sync::Mutex<Inner>,
}

impl<'a> MultiClient<'a> {
    /// Builds an engine over a shared scheme and its fleet clock.
    pub fn new(scheme: &'a Hyrd, clock: &'a SimClock, opts: MultiClientOptions) -> Self {
        let clients = opts.clients.max(1);
        let sessions = (0..clients)
            .map(|i| SessionReport { label: session_label(i), ..Default::default() })
            .collect();
        MultiClient {
            scheme,
            clock,
            opts,
            inner: std::sync::Mutex::new(Inner {
                next: 0,
                batch: ReplayStats::default(),
                state: ReplayState::default(),
                cache: StepCache::default(),
                busy_until: vec![Duration::ZERO; clients],
                sessions,
            }),
        }
    }

    /// The options the engine was built with (`clients` clamped to ≥ 1).
    pub fn options(&self) -> &MultiClientOptions {
        &self.opts
    }

    /// Runs one batch of ops through the session pool and returns the
    /// batch's merged stats (execution order). Per-session tallies
    /// accumulate across batches — read them with [`Self::sessions`].
    pub fn run_ops(&self, ops: &[FsOp]) -> ReplayStats {
        {
            let mut inner = self.lock();
            inner.next = 0;
            inner.batch =
                ReplayStats { scheme: self.scheme.name().to_string(), ..Default::default() };
        }
        let jobs = effective_jobs(self.opts.jobs).min(ops.len().max(1));
        if jobs <= 1 {
            let mut inner = self.lock();
            while inner.next < ops.len() {
                let idx = inner.next;
                inner.next += 1;
                self.step(&mut inner, &ops[idx]);
            }
        } else {
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        // Claim-and-execute under one guard: the baton.
                        let mut inner = self.lock();
                        if inner.next >= ops.len() {
                            break;
                        }
                        let idx = inner.next;
                        inner.next += 1;
                        self.step(&mut inner, &ops[idx]);
                    });
                }
            });
        }
        let mut inner = self.lock();
        std::mem::take(&mut inner.batch)
    }

    /// Cumulative per-session reports (cloned snapshot).
    pub fn sessions(&self) -> Vec<SessionReport> {
        self.lock().sessions.clone()
    }

    /// Live files in the shared namespace bookkeeping.
    pub fn live_files(&self) -> usize {
        self.lock().state.live_files()
    }

    /// Paths with verified expected contents, sorted (cloned snapshot).
    pub fn expected_paths(&self) -> Vec<String> {
        self.lock().state.expected_paths().iter().map(|s| s.to_string()).collect()
    }

    /// The bytes the replay expects `path` to hold right now.
    pub fn expected_content(&self, path: &str) -> Option<Vec<u8>> {
        self.lock().state.expected_content(path)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("engine steps do not panic while holding the lock")
    }

    /// Executes one op as the next-free session. Runs entirely under the
    /// engine lock, so steps are totally ordered.
    fn step(&self, inner: &mut Inner, op: &FsOp) {
        let opts = &self.opts.replay;
        // Next-event order: earliest-free session first, ties by id.
        let session = inner
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .expect("at least one session");
        let Inner { state, cache, batch, busy_until, sessions, .. } = inner;
        let tally = &mut sessions[session];
        let mut scheme = self.scheme;
        match super::step(&mut scheme, op, state, cache, batch, opts) {
            Some(done) => {
                tally.ops += 1;
                tally.provider_ops += done.op_count() as u64;
                tally.bytes_in += done.bytes_in();
                tally.bytes_out += done.bytes_out();
                tally.busy += done.latency;
                tally.stats.record(done.latency);
                if opts.telemetry.enabled() {
                    // Metrics only — labels must never reach the trace,
                    // which stays invariant across client counts.
                    opts.telemetry.inc_labeled("session.ops", &tally.label, 1);
                    opts.telemetry.observe_labeled(
                        "session.latency_ns",
                        &tally.label,
                        done.latency.as_nanos() as u64,
                    );
                }
                if opts.advance_clock {
                    self.clock.advance(done.latency);
                }
                busy_until[session] = self.clock.now();
            }
            None => {
                // The step's `replay.error` trace event is
                // session-agnostic — the trace stays client-count invariant.
                tally.errors += 1;
                if opts.telemetry.enabled() {
                    opts.telemetry.inc_labeled("session.errors", &tally.label, 1);
                }
                // A refused op costs no virtual time, but the session
                // was still the one serving it: stamp its cursor so the
                // next pick stays deterministic and nobody starves.
                busy_until[session] = self.clock.now();
            }
        }
    }
}

/// One-shot convenience: builds an engine, runs `ops` as a single batch,
/// and packages merged + per-session results.
pub fn run(
    scheme: &Hyrd,
    clock: &SimClock,
    ops: &[FsOp],
    opts: MultiClientOptions,
) -> MultiClientReport {
    let clients = opts.clients.max(1);
    let engine = MultiClient::new(scheme, clock, opts);
    let merged = engine.run_ops(ops);
    MultiClientReport { clients, merged, sessions: engine.sessions() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_sortable() {
        assert_eq!(session_label(0), "c00");
        assert_eq!(session_label(7), "c07");
        assert_eq!(session_label(16), "c16");
        let mut labels: Vec<String> = (0..17).map(session_label).collect();
        let sorted = labels.clone();
        labels.sort();
        assert_eq!(labels, sorted, "lexicographic == numeric up to 99 sessions");
    }

    #[test]
    fn zero_clients_is_clamped_to_one() {
        let opts = MultiClientOptions { clients: 0, ..Default::default() };
        assert_eq!(opts.clients.max(1), 1);
    }
}
