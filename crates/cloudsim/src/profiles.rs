//! Calibrated profiles for the paper's four providers.
//!
//! Latency parameters are calibrated to reproduce the *shape* of Figure 5
//! as measured from the paper's China/CERNET vantage point in 2014:
//!
//! * Aliyun is fastest at every size (and also the cheapest — "both
//!   performance-oriented and cost-oriented", §IV-C),
//! * Windows Azure (China region) is second,
//! * Rackspace and Amazon S3, reached over trans-Pacific links, are the
//!   slowest, with multi-second RTT-dominated small ops and tens of
//!   seconds for 4 MB transfers,
//! * every provider shows the disproportionate 1 MB → 4 MB latency jump
//!   (the bandwidth knee) that the paper uses to set its threshold.
//!
//! Price plans are Table II verbatim; categories are Table II's last row.

use std::time::Duration;

use crate::latency::LatencyModel;
use crate::pricing::{PriceBook, ProviderCategory};

/// A complete description of one provider: identity, prices, latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderProfile {
    /// Human-readable name.
    pub name: String,
    /// Table II price plan.
    pub prices: PriceBook,
    /// Calibrated latency model.
    pub latency: LatencyModel,
    /// Table II category row.
    pub category: ProviderCategory,
}

/// The four providers of the paper's evaluation, with calibrated models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WellKnownProvider {
    /// Amazon S3 (US region, reached from China).
    AmazonS3,
    /// Windows Azure Storage (China region).
    WindowsAzure,
    /// Aliyun Open Storage Service (in-country).
    Aliyun,
    /// Rackspace Cloud Files (reached from China).
    Rackspace,
}

impl WellKnownProvider {
    /// All four, in the paper's column order.
    pub const ALL: [WellKnownProvider; 4] = [
        WellKnownProvider::AmazonS3,
        WellKnownProvider::WindowsAzure,
        WellKnownProvider::Aliyun,
        WellKnownProvider::Rackspace,
    ];

    /// The calibrated profile.
    pub fn profile(self) -> ProviderProfile {
        match self {
            WellKnownProvider::AmazonS3 => ProviderProfile {
                name: "Amazon S3".to_string(),
                prices: PriceBook::AMAZON_S3,
                latency: LatencyModel {
                    rtt: Duration::from_millis(300),
                    bandwidth_bps: 160_000.0,
                    knee_bytes: 1024 * 1024,
                    knee_factor: 0.45,
                    write_penalty: 1.5,
                    jitter: 0.10,
                },
                category: ProviderCategory::CostOriented,
            },
            WellKnownProvider::WindowsAzure => ProviderProfile {
                name: "Windows Azure".to_string(),
                prices: PriceBook::WINDOWS_AZURE,
                latency: LatencyModel {
                    rtt: Duration::from_millis(120),
                    bandwidth_bps: 450_000.0,
                    knee_bytes: 1024 * 1024,
                    knee_factor: 0.50,
                    write_penalty: 1.5,
                    jitter: 0.08,
                },
                category: ProviderCategory::PerformanceOriented,
            },
            WellKnownProvider::Aliyun => ProviderProfile {
                name: "Aliyun".to_string(),
                prices: PriceBook::ALIYUN,
                latency: LatencyModel {
                    rtt: Duration::from_millis(40),
                    bandwidth_bps: 1_200_000.0,
                    knee_bytes: 1024 * 1024,
                    knee_factor: 0.55,
                    write_penalty: 1.4,
                    jitter: 0.06,
                },
                category: ProviderCategory::Both,
            },
            WellKnownProvider::Rackspace => ProviderProfile {
                name: "Rackspace".to_string(),
                prices: PriceBook::RACKSPACE,
                latency: LatencyModel {
                    rtt: Duration::from_millis(350),
                    bandwidth_bps: 220_000.0,
                    knee_bytes: 1024 * 1024,
                    knee_factor: 0.45,
                    write_penalty: 1.5,
                    jitter: 0.10,
                },
                category: ProviderCategory::CostOriented,
            },
        }
    }
}

impl std::fmt::Display for WellKnownProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.profile().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_gcsapi::OpKind;

    /// The request sizes of Figure 5.
    const FIG5_SIZES: [u64; 6] =
        [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024];

    #[test]
    fn aliyun_is_fastest_at_every_figure5_size() {
        let aliyun = WellKnownProvider::Aliyun.profile();
        for other in [
            WellKnownProvider::AmazonS3,
            WellKnownProvider::WindowsAzure,
            WellKnownProvider::Rackspace,
        ] {
            let p = other.profile();
            for sz in FIG5_SIZES {
                for kind in [OpKind::Get, OpKind::Put] {
                    assert!(
                        aliyun.latency.expected_latency(kind, sz)
                            < p.latency.expected_latency(kind, sz),
                        "Aliyun not fastest vs {} at {sz} {kind}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn latency_order_is_stable_across_sizes() {
        // Aliyun < Azure < Rackspace <= S3 for reads at each size.
        for sz in FIG5_SIZES {
            let l = |p: WellKnownProvider| {
                p.profile().latency.expected_latency(OpKind::Get, sz).as_secs_f64()
            };
            assert!(l(WellKnownProvider::Aliyun) < l(WellKnownProvider::WindowsAzure));
            assert!(l(WellKnownProvider::WindowsAzure) < l(WellKnownProvider::Rackspace));
            assert!(l(WellKnownProvider::Rackspace) < l(WellKnownProvider::AmazonS3) * 1.2);
        }
    }

    #[test]
    fn the_1mb_to_4mb_jump_is_disproportionate() {
        // Figure 5 / §IV-C: going 1 MB → 4 MB the latency grows by more
        // than the 4x size ratio for every provider, which is why the
        // paper puts the threshold at 1 MB.
        for p in WellKnownProvider::ALL {
            let lat = p.profile().latency;
            let l1 = lat.expected_latency(OpKind::Get, 1024 * 1024).as_secs_f64();
            let l4 = lat.expected_latency(OpKind::Get, 4 * 1024 * 1024).as_secs_f64();
            assert!(l4 > 4.0 * l1, "{p}: l1={l1:.2}s l4={l4:.2}s");
        }
    }

    #[test]
    fn writes_slower_than_reads() {
        for p in WellKnownProvider::ALL {
            let lat = p.profile().latency;
            for sz in FIG5_SIZES {
                assert!(
                    lat.expected_latency(OpKind::Put, sz) > lat.expected_latency(OpKind::Get, sz),
                    "{p} at {sz}"
                );
            }
        }
    }

    #[test]
    fn latencies_are_in_figure5_magnitude_range() {
        // 4 MB reads land in the tens of seconds (Figure 5a axis 0–60 s),
        // 4 KB reads under a second.
        for p in WellKnownProvider::ALL {
            let lat = p.profile().latency;
            let small = lat.expected_latency(OpKind::Get, 4 * 1024).as_secs_f64();
            let large = lat.expected_latency(OpKind::Get, 4 * 1024 * 1024).as_secs_f64();
            assert!(small < 1.0, "{p} small={small}");
            assert!(large > 3.0 && large < 60.0, "{p} large={large}");
        }
    }

    #[test]
    fn categories_match_table2_last_row() {
        use ProviderCategory::*;
        assert_eq!(WellKnownProvider::AmazonS3.profile().category, CostOriented);
        assert_eq!(WellKnownProvider::WindowsAzure.profile().category, PerformanceOriented);
        assert_eq!(WellKnownProvider::Aliyun.profile().category, Both);
        assert_eq!(WellKnownProvider::Rackspace.profile().category, CostOriented);
    }

    #[test]
    fn aliyun_cheapest_and_fastest_is_both() {
        // §IV-C: "Aliyun has the lowest access latency … combined with the
        // lowest cloud cost, makes Aliyun … both performance-oriented and
        // cost-oriented".
        let a = WellKnownProvider::Aliyun.profile();
        for p in WellKnownProvider::ALL {
            let q = p.profile();
            assert!(a.prices.storage_gb_month <= q.prices.storage_gb_month);
        }
        assert_eq!(a.category, ProviderCategory::Both);
    }
}
