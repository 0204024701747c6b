//! Bounded retry with capped exponential backoff for transient faults.
//!
//! Outages are *not* retried — the paper's recovery design (§III-C)
//! handles those with degraded reads and update logging. Retry only makes
//! sense for throttling/packet-loss style [`CloudError::Transient`]
//! failures, and only a bounded number of times so a misclassified outage
//! cannot stall the dispatcher.
//!
//! Attempt spacing is explicit: attempt `k` (1-based) is followed by a
//! delay of `base_delay * 2^(k-1)`, capped at `max_delay`, multiplied by
//! a deterministic jitter factor in `[0.5, 1.5)` derived from
//! `jitter_seed` — reproducible down to the nanosecond, which is what the
//! virtual-clock simulation needs. A per-operation `deadline` bounds the
//! *total* backoff an operation may accumulate before giving up with
//! `timed_out` set.

use std::time::Duration;

use crate::error::{CloudError, CloudResult};

/// How (and how often) to re-attempt a transiently-failing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (>= 1). 1 means "no retries".
    pub max_attempts: u32,
    /// Delay after the first failed attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on any single inter-attempt delay (after jitter).
    pub max_delay: Duration,
    /// Budget on the *summed* backoff across the whole operation. When a
    /// pending delay would exceed it, the operation fails with
    /// `timed_out` instead of sleeping. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(200),
            max_delay: Duration::from_secs(10),
            deadline: Some(Duration::from_secs(60)),
            jitter_seed: 0x9E3779B9,
        }
    }
}

impl RetryPolicy {
    /// Policy that never retries (and therefore never sleeps).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            deadline: None,
            jitter_seed: 0,
        }
    }

    /// The delay scheduled after failed attempt `attempt` (1-based):
    /// capped exponential backoff with deterministic jitter.
    pub fn delay_for_attempt(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        // Cap the shift so the multiplier cannot overflow; max_delay
        // clamps the result anyway.
        let exp = (attempt - 1).min(20);
        let raw = self.base_delay.saturating_mul(1u32 << exp).min(self.max_delay);
        // SplitMix64 over (seed, attempt) → factor in [0.5, 1.5).
        let mut z = self.jitter_seed ^ (attempt as u64).wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let factor = 0.5 + (z % 1000) as f64 / 1000.0;
        raw.mul_f64(factor).min(self.max_delay)
    }

    /// Runs `op` until it succeeds, fails non-retryably, or attempts or
    /// the deadline budget run out. Returns the last error on exhaustion.
    ///
    /// Compatibility entry point: delays are computed (and counted
    /// against the deadline) but not slept — use [`Self::run_with`] with
    /// a sleep hook to actually advance a clock between attempts.
    pub fn run<T>(&self, op: impl FnMut() -> CloudResult<T>) -> CloudResult<T> {
        self.run_with(|_| {}, op).map_err(|e| e.error)
    }

    /// Runs `op` with explicit attempt spacing: `sleep` is invoked with
    /// each inter-attempt delay (the dispatcher advances the virtual
    /// clock there). The returned [`RetryError`] carries the attempt
    /// count, the total backoff, and the last underlying error.
    pub fn run_with<T>(
        &self,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut() -> CloudResult<T>,
    ) -> Result<T, RetryError> {
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
        let mut attempts = 0u32;
        let mut waited = Duration::ZERO;
        loop {
            attempts += 1;
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempts < self.max_attempts => {
                    let delay = self.delay_for_attempt(attempts);
                    if let Some(budget) = self.deadline {
                        if waited + delay > budget {
                            return Err(RetryError { attempts, waited, error: e, timed_out: true });
                        }
                    }
                    waited += delay;
                    sleep(delay);
                }
                Err(e) => return Err(RetryError { attempts, waited, error: e, timed_out: false }),
            }
        }
    }
}

/// A failed (possibly multi-attempt) operation, with its retry context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryError {
    /// Attempts made (including the final failing one).
    pub attempts: u32,
    /// Total backoff accumulated before giving up.
    pub waited: Duration,
    /// The last underlying error.
    pub error: CloudError,
    /// Whether the deadline budget (not the attempt count) ended the
    /// operation.
    pub timed_out: bool,
}

impl RetryError {
    /// Collapses the retry context back into a [`CloudError`]: deadline
    /// exhaustion becomes [`CloudError::Timeout`], anything else passes
    /// the last error through.
    pub fn into_cloud_error(self) -> CloudError {
        if self.timed_out {
            if let Some(provider) = self.error.provider() {
                return CloudError::Timeout { provider, waited: self.waited };
            }
        }
        self.error
    }
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gave up after {} attempt(s) ({:.3}s backoff{}): {}",
            self.attempts,
            self.waited.as_secs_f64(),
            if self.timed_out { ", deadline exhausted" } else { "" },
            self.error
        )
    }
}

impl std::error::Error for RetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ObjectKey, ProviderId};

    fn transient() -> CloudError {
        CloudError::Transient { provider: ProviderId(0), reason: "throttled" }
    }

    #[test]
    fn succeeds_first_try() {
        let calls = std::cell::Cell::new(0);
        let r = RetryPolicy::default().run(|| {
            calls.set(calls.get() + 1);
            Ok::<_, CloudError>(7)
        });
        assert_eq!(r.unwrap(), 7);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn retries_transient_until_success() {
        let calls = std::cell::Cell::new(0);
        let r = RetryPolicy { max_attempts: 5, ..RetryPolicy::default() }.run(|| {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let calls = std::cell::Cell::new(0);
        let r: CloudResult<()> =
            RetryPolicy { max_attempts: 4, ..RetryPolicy::default() }.run(|| {
                calls.set(calls.get() + 1);
                Err(transient())
            });
        assert!(matches!(r, Err(CloudError::Transient { .. })));
        assert_eq!(calls.get(), 4);
    }

    #[test]
    fn outage_is_not_retried() {
        let calls = std::cell::Cell::new(0);
        let r: CloudResult<()> =
            RetryPolicy { max_attempts: 10, ..RetryPolicy::default() }.run(|| {
                calls.set(calls.get() + 1);
                Err(CloudError::Unavailable { provider: ProviderId(1) })
            });
        assert!(matches!(r, Err(CloudError::Unavailable { .. })));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn not_found_is_not_retried() {
        let calls = std::cell::Cell::new(0);
        let r: CloudResult<()> = RetryPolicy::default().run(|| {
            calls.set(calls.get() + 1);
            Err(CloudError::NoSuchObject { key: ObjectKey::new("c", "o") })
        });
        assert!(r.is_err());
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn none_policy_is_single_shot() {
        let calls = std::cell::Cell::new(0);
        let _: CloudResult<()> = RetryPolicy::none().run(|| {
            calls.set(calls.get() + 1);
            Err(transient())
        });
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn attempt_spacing_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            deadline: None,
            jitter_seed: 42,
        };
        let mut slept: Vec<Duration> = Vec::new();
        let r: Result<(), _> = policy.run_with(|d| slept.push(d), || Err(transient()));
        let err = r.unwrap_err();
        assert_eq!(err.attempts, 8, "attempt counter surfaced in the error");
        assert!(!err.timed_out);
        assert_eq!(slept.len(), 7, "one delay between each pair of attempts");
        // Each observed delay matches the policy's published schedule.
        for (i, d) in slept.iter().enumerate() {
            assert_eq!(*d, policy.delay_for_attempt(i as u32 + 1));
        }
        assert_eq!(err.waited, slept.iter().sum::<Duration>());
        // Jitter stays within [0.5, 1.5) of the capped exponential base,
        // and the cap binds the tail of the schedule.
        for (i, d) in slept.iter().enumerate() {
            let raw =
                Duration::from_millis(100).saturating_mul(1u32 << i).min(Duration::from_secs(2));
            assert!(*d >= raw.mul_f64(0.5) && *d <= Duration::from_secs(2), "attempt {i}: {d:?}");
        }
        // Same seed → identical schedule.
        let mut again: Vec<Duration> = Vec::new();
        let _: Result<(), _> = policy.run_with(|d| again.push(d), || Err(transient()));
        assert_eq!(slept, again);
        // Different seed → different schedule (with overwhelming odds).
        let other = RetryPolicy { jitter_seed: 43, ..policy };
        let mut third: Vec<Duration> = Vec::new();
        let _: Result<(), _> = other.run_with(|d| third.push(d), || Err(transient()));
        assert_ne!(slept, third);
    }

    #[test]
    fn deadline_budget_stops_before_attempts_run_out() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_secs(1),
            max_delay: Duration::from_secs(1),
            deadline: Some(Duration::ZERO),
            jitter_seed: 7,
        };
        let calls = std::cell::Cell::new(0u32);
        let r: Result<(), _> = policy.run_with(
            |_| panic!("must not sleep past a zero deadline"),
            || {
                calls.set(calls.get() + 1);
                Err(transient())
            },
        );
        let err = r.unwrap_err();
        assert!(err.timed_out);
        assert_eq!(err.attempts, 1);
        assert_eq!(calls.get(), 1);
        assert_eq!(err.waited, Duration::ZERO);
        assert!(matches!(
            err.clone().into_cloud_error(),
            CloudError::Timeout { provider: ProviderId(0), .. }
        ));
        // Non-timeout exhaustion passes the last error through.
        let plain = RetryError {
            attempts: 3,
            waited: Duration::from_secs(1),
            error: transient(),
            timed_out: false,
        };
        assert!(matches!(plain.into_cloud_error(), CloudError::Transient { .. }));
    }

    #[test]
    fn retry_error_exposes_source_and_context() {
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let r: Result<(), _> = policy.run_with(|_| {}, || Err(transient()));
        let err = r.unwrap_err();
        assert_eq!(err.attempts, 2);
        let msg = err.to_string();
        assert!(msg.contains("2 attempt"), "attempt count in the message: {msg}");
        let src = std::error::Error::source(&err).expect("source chains to the cloud error");
        assert!(src.to_string().contains("throttled"));
    }
}
