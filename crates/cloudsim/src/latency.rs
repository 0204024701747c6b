//! Per-provider latency models.
//!
//! Figure 5 of the paper measures Get/Put latency against request size for
//! the four providers and finds (a) a stable ordering — Aliyun fastest,
//! then Azure, with S3 and Rackspace slowest from the China vantage point;
//! (b) writes slower than reads; and (c) a *disproportionate* jump from
//! 1 MB to 4 MB, which is what makes 1 MB the natural large/small file
//! threshold. The model here is the simplest one with those three
//! properties:
//!
//! ```text
//! latency(op, bytes) = rtt * op_rounds(op)
//!                    + min(bytes, knee) / bandwidth
//!                    + max(bytes - knee, 0) / (bandwidth * knee_factor)
//! ```
//!
//! scaled by a deterministic jitter factor derived from a per-call
//! sequence number — reproducible across runs, but still producing the
//! "three trials, mean ± deviation" spread the paper reports.

use std::time::Duration;

use hyrd_gcsapi::OpKind;

/// The large-transfer knee: beyond this many bytes, effective bandwidth
/// degrades (TCP window / cross-border path effects in the paper's
/// measurements). Set at the paper's 1 MB threshold boundary.
pub const DEFAULT_KNEE_BYTES: u64 = 1024 * 1024;

/// Latency model parameters for one provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// One network round-trip (includes request processing).
    pub rtt: Duration,
    /// Sustained transfer bandwidth in bytes/second below the knee.
    pub bandwidth_bps: f64,
    /// Bytes after which bandwidth degrades.
    pub knee_bytes: u64,
    /// Multiplier (< 1.0) applied to bandwidth beyond the knee.
    pub knee_factor: f64,
    /// Writes are slower than reads by this factor (commit + replication
    /// inside the provider).
    pub write_penalty: f64,
    /// Max fractional jitter, e.g. 0.1 for ±10 %.
    pub jitter: f64,
}

impl LatencyModel {
    /// A featureless fast model for unit tests (1 ms RTT, 1 GB/s).
    pub fn instant() -> Self {
        LatencyModel {
            rtt: Duration::from_millis(1),
            bandwidth_bps: 1e9,
            knee_bytes: DEFAULT_KNEE_BYTES,
            knee_factor: 1.0,
            write_penalty: 1.0,
            jitter: 0.0,
        }
    }

    /// Number of protocol round-trips an op kind costs. Metadata-only ops
    /// (List/Create/Remove) are a single RTT; Get/Put pay one RTT plus
    /// the transfer term.
    fn op_rounds(kind: OpKind) -> f64 {
        match kind {
            OpKind::List => 1.0,
            OpKind::Create => 1.0,
            OpKind::Remove => 1.0,
            OpKind::Get => 1.0,
            OpKind::Put => 1.0,
        }
    }

    /// Deterministic jitter factor in `[1 - jitter, 1 + jitter]` derived
    /// from a sequence number (SplitMix64 over the seed).
    fn jitter_factor(&self, seq: u64) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        let mut z = seq.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.jitter * (2.0 * unit - 1.0)
    }

    /// Latency of an operation moving `bytes` payload bytes, with the
    /// deterministic jitter stream indexed by `seq`.
    pub fn latency(&self, kind: OpKind, bytes: u64, seq: u64) -> Duration {
        let mut secs = self.rtt.as_secs_f64() * Self::op_rounds(kind);
        if matches!(kind, OpKind::Get | OpKind::Put) && bytes > 0 {
            let below = bytes.min(self.knee_bytes) as f64;
            let above = bytes.saturating_sub(self.knee_bytes) as f64;
            let mut xfer = below / self.bandwidth_bps;
            if above > 0.0 {
                xfer += above / (self.bandwidth_bps * self.knee_factor);
            }
            if kind == OpKind::Put {
                xfer *= self.write_penalty;
            }
            secs += xfer;
        }
        secs *= self.jitter_factor(seq);
        Duration::from_secs_f64(secs.max(0.0))
    }

    /// Latency with jitter disabled — the model's central tendency, used
    /// by the evaluator module to rank providers stably.
    pub fn expected_latency(&self, kind: OpKind, bytes: u64) -> Duration {
        let mut no_jitter = *self;
        no_jitter.jitter = 0.0;
        no_jitter.latency(kind, bytes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel {
            rtt: Duration::from_millis(100),
            bandwidth_bps: 1_000_000.0, // 1 MB/s
            knee_bytes: 1024 * 1024,
            knee_factor: 0.5,
            write_penalty: 1.5,
            jitter: 0.0,
        }
    }

    #[test]
    fn metadata_ops_cost_one_rtt() {
        let m = model();
        for kind in [OpKind::List, OpKind::Create, OpKind::Remove] {
            assert_eq!(m.latency(kind, 0, 0), Duration::from_millis(100), "{kind}");
        }
        // Transfer size is ignored for metadata ops.
        assert_eq!(m.latency(OpKind::List, 1 << 30, 0), Duration::from_millis(100));
    }

    #[test]
    fn transfer_term_scales_linearly_below_knee() {
        let m = model();
        let l256k = m.latency(OpKind::Get, 256 * 1024, 0).as_secs_f64();
        let l512k = m.latency(OpKind::Get, 512 * 1024, 0).as_secs_f64();
        let rtt = 0.1;
        assert!(((l512k - rtt) / (l256k - rtt) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn knee_makes_large_transfers_disproportionate() {
        // The Figure 5 observation: 4 MB costs more than 4x the 1 MB
        // latency (minus RTT) because post-knee bandwidth is halved.
        let m = model();
        let rtt = 0.1;
        let l1m = m.latency(OpKind::Get, 1024 * 1024, 0).as_secs_f64() - rtt;
        let l4m = m.latency(OpKind::Get, 4 * 1024 * 1024, 0).as_secs_f64() - rtt;
        assert!(l4m > 4.0 * l1m * 1.5, "l1m={l1m} l4m={l4m}");
    }

    #[test]
    fn writes_pay_the_penalty() {
        let m = model();
        let r = m.latency(OpKind::Get, 512 * 1024, 0).as_secs_f64();
        let w = m.latency(OpKind::Put, 512 * 1024, 0).as_secs_f64();
        assert!(w > r);
        // Penalty applies to the transfer term only.
        let expect = 0.1 + (512.0 * 1024.0 / 1e6) * 1.5;
        assert!((w - expect).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let mut m = model();
        m.jitter = 0.1;
        let base = m.expected_latency(OpKind::Get, 4096).as_secs_f64();
        for seq in 0..1000u64 {
            let l = m.latency(OpKind::Get, 4096, seq).as_secs_f64();
            assert!(l >= base * 0.899 && l <= base * 1.101, "seq={seq} l={l}");
            // Determinism: same seq, same latency.
            assert_eq!(m.latency(OpKind::Get, 4096, seq), m.latency(OpKind::Get, 4096, seq));
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let mut m = model();
        m.jitter = 0.1;
        let a = m.latency(OpKind::Get, 4096, 1);
        let b = m.latency(OpKind::Get, 4096, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_byte_get_is_rtt_only() {
        let m = model();
        assert_eq!(m.latency(OpKind::Get, 0, 0), Duration::from_millis(100));
    }

    #[test]
    fn instant_model_is_fast() {
        let m = LatencyModel::instant();
        assert!(m.latency(OpKind::Put, 1024, 0) < Duration::from_millis(2));
    }
}
