//! Error taxonomy of the GCS-API.
//!
//! The distinction that matters for HyRD is `Unavailable` (the provider
//! is in a service outage — the event the whole paper is about) versus
//! everything else: outages trigger degraded reads and update logging,
//! other errors are client bugs or transient faults. The hardened
//! dispatcher additionally distinguishes `Corrupted` (integrity failure:
//! the bytes came back wrong — repaired by scrub) and `Timeout` (the
//! retry budget ran out — counts against the provider's health score).

use std::time::Duration;

use crate::types::{ObjectKey, ProviderId};

/// Errors returned by cloud storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The provider is in a service outage. Persistent until the outage
    /// ends; retrying does not help, failover does.
    Unavailable {
        /// The unavailable provider.
        provider: ProviderId,
    },
    /// The container does not exist.
    NoSuchContainer {
        /// Offending container name.
        container: String,
    },
    /// The object does not exist.
    NoSuchObject {
        /// Offending key.
        key: ObjectKey,
    },
    /// The container already exists (Create is not idempotent on real
    /// object stores; we mirror that).
    ContainerExists {
        /// Offending container name.
        container: String,
    },
    /// A transient fault (packet loss, throttling). Retrying may help.
    Transient {
        /// Provider that produced the fault.
        provider: ProviderId,
        /// Short description for logs.
        reason: &'static str,
    },
    /// The returned bytes failed an integrity check. Synthesized by the
    /// client (providers do not know the checksums); handled by failover
    /// to another replica/fragment and repaired by the scrub pass, not
    /// by retrying the same corrupted copy.
    Corrupted {
        /// Provider that served the corrupt bytes.
        provider: ProviderId,
        /// The object whose bytes mismatched.
        key: ObjectKey,
    },
    /// The operation (including its retries) exhausted its deadline
    /// budget before succeeding.
    Timeout {
        /// Provider the operation targeted.
        provider: ProviderId,
        /// Backoff time spent before giving up.
        waited: Duration,
    },
    /// The *client* process died at this operation boundary. Synthesized
    /// by the crash-injection harness (`CrashPlan` in the simulator):
    /// once armed, the fleet returns this from every subsequent op, and
    /// the dispatcher escalates it to an immediate simulated process
    /// death — no retry, no failover, no cleanup code may run.
    Crashed {
        /// Provider whose op boundary the crash landed on.
        provider: ProviderId,
    },
}

impl CloudError {
    /// Whether a retry on the same provider is worthwhile.
    pub fn is_retryable(&self) -> bool {
        matches!(self, CloudError::Transient { .. })
    }

    /// Whether this error means the provider is down (failover needed).
    pub fn is_outage(&self) -> bool {
        matches!(self, CloudError::Unavailable { .. })
    }

    /// Whether this error should count against the provider's health
    /// score (circuit breaker). Only the "up but failing" faults do —
    /// transient storms and exhausted retry budgets. `Unavailable` does
    /// not: outages are already modeled by the outage schedule and
    /// handled by failover plus the update log, and a breaker that
    /// re-punished them would keep rejecting a provider after its outage
    /// ended. Client errors (missing object/container) and integrity
    /// failures do not either — corruption is repaired by scrub, not
    /// avoided by tripping the breaker. `Crashed` is exempt too: it is
    /// the *client* dying, not the provider misbehaving, and the restart
    /// path must find the breakers in their persisted-truth state.
    pub fn counts_against_health(&self) -> bool {
        matches!(self, CloudError::Transient { .. } | CloudError::Timeout { .. })
    }

    /// The provider the error concerns, when it names one.
    pub fn provider(&self) -> Option<ProviderId> {
        match self {
            CloudError::Unavailable { provider }
            | CloudError::Transient { provider, .. }
            | CloudError::Corrupted { provider, .. }
            | CloudError::Timeout { provider, .. }
            | CloudError::Crashed { provider } => Some(*provider),
            CloudError::NoSuchContainer { .. }
            | CloudError::NoSuchObject { .. }
            | CloudError::ContainerExists { .. } => None,
        }
    }
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::Unavailable { provider } => {
                write!(f, "{provider} is unavailable (service outage)")
            }
            CloudError::NoSuchContainer { container } => {
                write!(f, "container '{container}' does not exist")
            }
            CloudError::NoSuchObject { key } => write!(f, "object '{key}' does not exist"),
            CloudError::ContainerExists { container } => {
                write!(f, "container '{container}' already exists")
            }
            CloudError::Transient { provider, reason } => {
                write!(f, "transient fault on {provider}: {reason}")
            }
            CloudError::Corrupted { provider, key } => {
                write!(f, "object '{key}' from {provider} failed its integrity check")
            }
            CloudError::Timeout { provider, waited } => {
                write!(
                    f,
                    "operation on {provider} exceeded its deadline budget after {:.3}s of backoff",
                    waited.as_secs_f64()
                )
            }
            CloudError::Crashed { provider } => {
                write!(f, "client crashed at an op boundary on {provider}")
            }
        }
    }
}

impl std::error::Error for CloudError {}

/// Result alias for cloud operations.
pub type CloudResult<T> = Result<T, CloudError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        let t = CloudError::Transient { provider: ProviderId(0), reason: "throttled" };
        assert!(t.is_retryable());
        assert!(!t.is_outage());

        let u = CloudError::Unavailable { provider: ProviderId(0) };
        assert!(!u.is_retryable());
        assert!(u.is_outage());

        let n = CloudError::NoSuchObject { key: ObjectKey::new("c", "o") };
        assert!(!n.is_retryable());
        assert!(!n.is_outage());

        let c = CloudError::Corrupted { provider: ProviderId(1), key: ObjectKey::new("c", "o") };
        assert!(!c.is_retryable(), "corruption is handled by failover + scrub, not retry");
        assert!(!c.is_outage());

        let d = CloudError::Timeout { provider: ProviderId(1), waited: Duration::from_secs(9) };
        assert!(!d.is_retryable(), "the deadline budget is already spent");
        assert!(!d.is_outage());

        let k = CloudError::Crashed { provider: ProviderId(2) };
        assert!(!k.is_retryable(), "a dead client cannot retry anything");
        assert!(!k.is_outage(), "the providers are fine; the client died");
    }

    #[test]
    fn health_accounting_classification() {
        let flaky = [
            CloudError::Transient { provider: ProviderId(0), reason: "burst" },
            CloudError::Timeout { provider: ProviderId(0), waited: Duration::from_secs(1) },
        ];
        for e in flaky {
            assert!(e.counts_against_health(), "{e} should count against health");
            assert_eq!(e.provider(), Some(ProviderId(0)));
        }
        let exempt = [
            CloudError::Unavailable { provider: ProviderId(0) },
            CloudError::NoSuchContainer { container: "c".into() },
            CloudError::NoSuchObject { key: ObjectKey::new("c", "o") },
            CloudError::ContainerExists { container: "c".into() },
            CloudError::Corrupted { provider: ProviderId(0), key: ObjectKey::new("c", "o") },
            CloudError::Crashed { provider: ProviderId(0) },
        ];
        for e in exempt {
            assert!(!e.counts_against_health(), "{e} should not count against health");
        }
    }

    #[test]
    fn display_mentions_the_subject() {
        let e = CloudError::NoSuchContainer { container: "photos".into() };
        assert!(e.to_string().contains("photos"));
        let e = CloudError::Unavailable { provider: ProviderId(2) };
        assert!(e.to_string().contains("provider#2"));
        let e = CloudError::Corrupted { provider: ProviderId(1), key: ObjectKey::new("c", "o") };
        assert!(e.to_string().contains("integrity"));
        let e = CloudError::Timeout { provider: ProviderId(3), waited: Duration::from_secs(2) };
        assert!(e.to_string().contains("deadline"));
        let e = CloudError::Crashed { provider: ProviderId(1) };
        assert!(e.to_string().contains("crashed"));
        assert!(e.to_string().contains("provider#1"));
    }
}
