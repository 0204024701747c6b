//! Deterministic client-crash injection.
//!
//! A [`CrashPlan`] names a single point at which the *client* process
//! dies: either "the Nth admitted provider op, fleet-wide" (an op
//! budget) or "the Kth hit of a named crashpoint" (a semantic boundary
//! the dispatcher declares explicitly, e.g. just before or just after
//! a recovery-log write or a metadata flush). The plan is armed on a
//! [`CrashSwitch`] shared by every provider in a [`Fleet`](crate::Fleet):
//! once the budget is reached the switch latches, the triggering op —
//! and every op after it — fails with
//! [`CloudError::Crashed`](hyrd_gcsapi::CloudError::Crashed), and the
//! dispatcher escalates that to a simulated process death (a panic the
//! crash harness catches). Nothing here is random: a crash-torture
//! sweep first runs the trace with a disarmed switch to *count* ops and
//! crashpoint hits, then replays it once per budget value, which makes
//! the sweep exhaustive rather than sampled.
//!
//! Counters keep counting while the plan is disarmed, so the same
//! switch measures a clean run and then replays crashes from it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use std::sync::Mutex;

use hyrd_gcsapi::sync::lock;

/// Where a crash lands. Carried by [`CrashPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSite {
    /// Die when the fleet admits its `op`-th provider operation
    /// (1-based: `AtOp(1)` kills the very first op).
    AtOp(u64),
    /// Die on the `hit`-th time the named crashpoint is reached
    /// (1-based). Crashpoint names are declared by the dispatcher, e.g.
    /// `wal.append.pre` / `wal.append.post` around recovery-log writes
    /// and `meta.flush.pre` / `meta.flush.post` around metadata flushes.
    AtPoint {
        /// Crashpoint name as declared at the instrumentation site.
        name: String,
        /// 1-based hit count at which to fire.
        hit: u64,
    },
}

/// A seeded, deterministic plan for killing the client. Disarmed by
/// default; build with [`CrashPlan::at_op`] or [`CrashPlan::at_point`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    site: Option<CrashSite>,
}

impl CrashPlan {
    /// A plan that never fires.
    pub fn disarmed() -> Self {
        Self { site: None }
    }

    /// Crash at the `op`-th admitted provider operation (1-based).
    pub fn at_op(op: u64) -> Self {
        Self { site: Some(CrashSite::AtOp(op)) }
    }

    /// Crash at the `hit`-th occurrence of the named crashpoint
    /// (1-based).
    pub fn at_point(name: impl Into<String>, hit: u64) -> Self {
        Self { site: Some(CrashSite::AtPoint { name: name.into(), hit }) }
    }

    /// The site this plan fires at, if armed.
    pub fn site(&self) -> Option<&CrashSite> {
        self.site.as_ref()
    }
}

/// The shared latch every provider in a fleet consults. Created by the
/// fleet, handed to each provider; the dispatcher additionally calls
/// [`CrashSwitch::at_point`] at its named boundaries.
#[derive(Debug, Default)]
pub struct CrashSwitch {
    plan: Mutex<CrashPlan>,
    crashed: AtomicBool,
    ops: AtomicU64,
    points: Mutex<BTreeMap<String, u64>>,
}

impl CrashSwitch {
    /// A fresh, disarmed switch with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a plan. Also clears the latch so a harness can arm,
    /// run, [`reset`](Self::reset), and arm again on the same switch.
    pub fn arm(&self, plan: CrashPlan) {
        self.crashed.store(false, Ordering::SeqCst);
        *lock(&self.plan) = plan;
    }

    /// Disarms the plan and clears the latch. Counters are *kept*: a
    /// harness measures a clean run with the switch disarmed and then
    /// derives exhaustive budgets from [`op_count`](Self::op_count) and
    /// [`point_hits`](Self::point_hits).
    pub fn reset(&self) {
        self.arm(CrashPlan::disarmed());
    }

    /// Zeroes the op and crashpoint counters (start of a fresh run).
    pub fn reset_counters(&self) {
        self.ops.store(0, Ordering::SeqCst);
        lock(&self.points).clear();
    }

    /// Whether the crash has fired and the client is considered dead.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Called by a provider for every admitted operation. Returns
    /// `true` when the client must die at this boundary — either the
    /// latch is already set or this op exhausts an op budget.
    pub fn on_op(&self) -> bool {
        if self.crashed() {
            return true;
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(CrashSite::AtOp(budget)) = lock(&self.plan).site() {
            if n >= *budget {
                self.crashed.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Called by the dispatcher at a named crashpoint. Returns `true`
    /// when the client must die here.
    pub fn at_point(&self, name: &str) -> bool {
        if self.crashed() {
            return true;
        }
        let mut points = lock(&self.points);
        let hits = points.entry(name.to_string()).or_insert(0);
        *hits += 1;
        let n = *hits;
        drop(points);
        if let Some(CrashSite::AtPoint { name: want, hit }) = lock(&self.plan).site() {
            if want == name && n >= *hit {
                self.crashed.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Provider ops admitted since the last counter reset.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Hit counts per crashpoint name since the last counter reset.
    pub fn point_hits(&self) -> BTreeMap<String, u64> {
        lock(&self.points).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_switch_counts_but_never_fires() {
        let s = CrashSwitch::new();
        for _ in 0..10 {
            assert!(!s.on_op());
        }
        assert!(!s.at_point("meta.flush.pre"));
        assert_eq!(s.op_count(), 10);
        assert_eq!(s.point_hits().get("meta.flush.pre"), Some(&1));
        assert!(!s.crashed());
    }

    #[test]
    fn op_budget_fires_on_the_nth_op_and_latches() {
        let s = CrashSwitch::new();
        s.arm(CrashPlan::at_op(3));
        assert!(!s.on_op());
        assert!(!s.on_op());
        assert!(s.on_op(), "third op exhausts the budget");
        assert!(s.crashed());
        assert!(s.on_op(), "latched: every later op fails too");
        assert!(s.at_point("anything"), "latched: crashpoints fail too");
    }

    #[test]
    fn named_crashpoint_fires_on_the_kth_hit() {
        let s = CrashSwitch::new();
        s.arm(CrashPlan::at_point("wal.append.pre", 2));
        assert!(!s.at_point("wal.append.pre"));
        assert!(!s.at_point("wal.append.post"), "other points do not fire");
        assert!(s.at_point("wal.append.pre"), "second hit fires");
        assert!(s.crashed());
        assert!(s.on_op(), "latched for provider ops as well");
    }

    #[test]
    fn reset_clears_the_latch_but_keeps_counters() {
        let s = CrashSwitch::new();
        s.arm(CrashPlan::at_op(1));
        assert!(s.on_op());
        s.reset();
        assert!(!s.crashed());
        assert!(!s.on_op(), "disarmed after reset");
        assert_eq!(s.op_count(), 2, "counters survive the reset");
        s.reset_counters();
        assert_eq!(s.op_count(), 0);
        assert!(s.point_hits().is_empty());
    }
}
