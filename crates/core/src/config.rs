//! HyRD tunables, defaulting to the paper's evaluated configuration.

use crate::health::BreakerSettings;
use hyrd_gcsapi::RetryPolicy;

/// Which erasure code protects the large-file tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeChoice {
    /// Single XOR parity over `m` data fragments — the paper's choice
    /// ("we choose the RAID5 scheme in HyRD as a case study", §IV-A).
    Raid5 {
        /// Data fragments.
        m: usize,
    },
    /// General Reed-Solomon `RS(m, n)`.
    ReedSolomon {
        /// Data fragments.
        m: usize,
        /// Total fragments.
        n: usize,
    },
    /// Double parity (tolerates two concurrent outages) — the
    /// `paper::code_choice` extension.
    Raid6 {
        /// Data fragments.
        m: usize,
    },
}

impl CodeChoice {
    /// Data fragment count `m`.
    pub fn m(&self) -> usize {
        match *self {
            CodeChoice::Raid5 { m }
            | CodeChoice::Raid6 { m }
            | CodeChoice::ReedSolomon { m, .. } => m,
        }
    }

    /// Total fragment count `n`.
    pub fn n(&self) -> usize {
        match *self {
            CodeChoice::Raid5 { m } => m + 1,
            CodeChoice::Raid6 { m } => m + 2,
            CodeChoice::ReedSolomon { n, .. } => n,
        }
    }
}

/// How the dispatcher picks which `m` fragments to fetch on a large read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentSelection {
    /// Prefer providers with the cheapest egress, break ties by expected
    /// latency — the paper's cost-reduction policy ("by reading data from
    /// the cost-oriented cloud storage providers, HyRD's cloud cost due
    /// to the data out operations is also reduced", §IV-B).
    #[default]
    CheapestEgress,
    /// Prefer the lowest expected latency regardless of egress price —
    /// the ablation alternative.
    Fastest,
}

/// Hedged-read policy (Dean & Barroso's "tail at scale" defense,
/// applied to the fork-join reads of "On the Service Capacity Region of
/// Accessing Erasure Coded Content"): a read first fans out to the
/// minimum fragment/replica set; if it has not completed within `delay`
/// of issue, up to `extra` redundant requests launch against the
/// remaining candidates, the first `k` completions win, and stragglers
/// are cancelled (billing zero payload bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Master switch. Off by default: with hedging disabled the event
    /// engine reproduces the pre-engine serial/parallel read latencies
    /// exactly, byte-identical traces included.
    pub enabled: bool,
    /// How long a read may run before redundant requests launch. The
    /// default sits above the quiet-fleet large-read completion time
    /// (≈7.6 s worst calibrated fragment fetch for the 3 MB files the
    /// open-loop workload reads), so hedges fire only when something is
    /// genuinely slow — keeping extra provider ops within a few percent
    /// — yet far below a ×8 spiked fetch.
    pub delay: std::time::Duration,
    /// Maximum redundant requests per read (candidate list permitting).
    pub extra: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { enabled: false, delay: std::time::Duration::from_secs(8), extra: 1 }
    }
}

/// Adaptive redundancy policy (see [`crate::policy`]): a background
/// migrator re-encodes files between the replication and erasure tiers
/// from observed heat, size and provider health, instead of freezing
/// every file in the tier its creation size picked. Off by default —
/// the static threshold is the paper's evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Master switch. When off, no heat is tracked beyond the hot-copy
    /// counter and [`crate::Hyrd::migrate_pass`] is a no-op.
    pub enabled: bool,
    /// Reads (since creation or the last migration) at which an
    /// erasure-coded file is promoted to whole-object replication on
    /// the performance tier.
    pub promote_reads: u32,
    /// Minimum *virtual* idle time (since last modification) before a
    /// cold replicated file may demote — young files get a grace
    /// period so a burst of creates is not immediately re-encoded.
    pub demote_idle: std::time::Duration,
    /// Smallest replicated file worth demoting: below this, the EC
    /// savings do not pay for the fragment-read overhead.
    pub demote_min_bytes: u64,
    /// Migrations per [`crate::Hyrd::migrate_pass`] — bounds the
    /// background traffic one pass may generate.
    pub max_per_pass: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            enabled: false,
            promote_reads: 3,
            demote_idle: std::time::Duration::from_secs(3600),
            demote_min_bytes: 256 * 1024,
            max_per_pass: 8,
        }
    }
}

/// Full HyRD configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HyrdConfig {
    /// Large/small file boundary in bytes. The paper's sensitivity study
    /// picks 1 MB ("we set the file-size threshold at 1MB", §IV-C).
    pub threshold: u64,
    /// Replicas for metadata and small files. "It is sensible to choose
    /// the replication level of 2 in our current HyRD design" (§III-C);
    /// configurable per the same paragraph.
    pub replication_level: usize,
    /// The large-file erasure code. Default RAID5 over 3 data fragments
    /// (4 providers, matching RACS's configuration for fair comparison).
    pub code: CodeChoice,
    /// Large-read fragment selection policy.
    pub fragment_selection: FragmentSelection,
    /// Bytes of the probe object the evaluator uses to measure provider
    /// latency.
    pub probe_bytes: u64,
    /// Whether frequently-read large files may also be cached on
    /// performance-oriented providers (Figure 2's overlap region).
    /// A file qualifies after `hot_read_threshold` reads.
    pub hot_read_threshold: Option<u32>,
    /// Per-op retry/backoff policy applied to every cloud call.
    pub retry: RetryPolicy,
    /// Per-provider circuit-breaker tuning.
    pub breaker: BreakerSettings,
    /// Hedged/redundant read policy (off by default).
    pub hedge: HedgeConfig,
    /// Shards the client-side metastore (and the hot-read counters) are
    /// hash-partitioned into. Purely a concurrency knob: the flushed
    /// bytes and every trace event are independent of the shard count,
    /// so deterministic runs stay byte-identical across values.
    pub meta_shards: usize,
    /// Adaptive redundancy policy + background migrator (off by
    /// default; see [`crate::policy`]).
    pub policy: PolicyConfig,
}

impl Default for HyrdConfig {
    fn default() -> Self {
        HyrdConfig {
            threshold: 1024 * 1024,
            replication_level: 2,
            code: CodeChoice::Raid5 { m: 3 },
            fragment_selection: FragmentSelection::CheapestEgress,
            probe_bytes: 64 * 1024,
            hot_read_threshold: None,
            retry: RetryPolicy::default(),
            breaker: BreakerSettings::default(),
            hedge: HedgeConfig::default(),
            meta_shards: 16,
            policy: PolicyConfig::default(),
        }
    }
}

impl HyrdConfig {
    /// Validates internal consistency against a fleet of `providers`.
    pub fn validate(&self, providers: usize) -> Result<(), String> {
        if self.threshold == 0 {
            return Err("threshold must be positive".to_string());
        }
        if self.replication_level == 0 {
            return Err("replication level must be at least 1".to_string());
        }
        if providers > crate::MAX_FLEET {
            return Err(format!(
                "fleet of {providers} providers exceeds the {} a client works over",
                crate::MAX_FLEET
            ));
        }
        if self.replication_level > providers {
            return Err(format!(
                "replication level {} exceeds fleet size {providers}",
                self.replication_level
            ));
        }
        let (m, n) = (self.code.m(), self.code.n());
        if m == 0 || n <= m {
            return Err(format!("invalid code shape m={m}, n={n}"));
        }
        if n > providers {
            return Err(format!("code needs {n} providers, fleet has {providers}"));
        }
        if self.hedge.enabled && self.hedge.extra == 0 {
            return Err("hedging enabled with zero extra requests".to_string());
        }
        if self.meta_shards == 0 {
            return Err("meta_shards must be at least 1".to_string());
        }
        if self.policy.enabled {
            if self.policy.promote_reads == 0 {
                return Err("policy.promote_reads must be at least 1".to_string());
            }
            if self.policy.max_per_pass == 0 {
                return Err("policy.max_per_pass must be at least 1".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = HyrdConfig::default();
        assert_eq!(c.threshold, 1024 * 1024);
        assert_eq!(c.replication_level, 2);
        assert_eq!(c.code, CodeChoice::Raid5 { m: 3 });
        assert_eq!(c.code.n(), 4);
        assert_eq!(c.fragment_selection, FragmentSelection::CheapestEgress);
        assert_eq!(c.retry, RetryPolicy::default());
        assert_eq!(c.breaker, BreakerSettings::default());
        assert!(!c.hedge.enabled, "hedging is opt-in");
        assert_eq!(c.hedge.extra, 1);
        assert_eq!(c.meta_shards, 16);
        assert!(!c.policy.enabled, "the adaptive policy is opt-in");
        assert!(c.validate(4).is_ok());
    }

    #[test]
    fn code_shapes() {
        assert_eq!(CodeChoice::Raid5 { m: 3 }.n(), 4);
        assert_eq!(CodeChoice::Raid6 { m: 4 }.n(), 6);
        let rs = CodeChoice::ReedSolomon { m: 4, n: 7 };
        assert_eq!(rs.m(), 4);
        assert_eq!(rs.n(), 7);
    }

    #[test]
    fn validation_catches_misconfiguration() {
        let c = HyrdConfig { threshold: 0, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());

        let c = HyrdConfig { replication_level: 0, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());

        let c = HyrdConfig { replication_level: 5, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());

        // n=5 > 4 providers
        let c = HyrdConfig { code: CodeChoice::Raid5 { m: 4 }, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());
        assert!(c.validate(5).is_ok());

        let c =
            HyrdConfig { code: CodeChoice::ReedSolomon { m: 3, n: 3 }, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());

        let mut c = HyrdConfig::default();
        c.hedge.enabled = true;
        c.hedge.extra = 0;
        assert!(c.validate(4).is_err());
        c.hedge.extra = 1;
        assert!(c.validate(4).is_ok());

        let c = HyrdConfig { meta_shards: 0, ..HyrdConfig::default() };
        assert!(c.validate(4).is_err());

        let mut c = HyrdConfig::default();
        c.policy.enabled = true;
        assert!(c.validate(4).is_ok(), "default policy tunables are valid");
        c.policy.promote_reads = 0;
        assert!(c.validate(4).is_err());
        c.policy.promote_reads = 3;
        c.policy.max_per_pass = 0;
        assert!(c.validate(4).is_err());
    }
}
