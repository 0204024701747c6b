//! Provider price plans — Table II of the paper, verbatim.
//!
//! "Monthly price plans (in US dollars) for Amazon S3, Windows Azure
//! Storage, Aliyun Open Storage Service and Rackspace Cloud Files, as of
//! September 10th 2014 in the China region." Prices are per GB-month for
//! storage, per GB for transfer, and per 10K transactions split into the
//! Put/Copy/Post/List class and the Get-and-others class.

/// How the paper's evaluator classifies a provider (Table II last row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderCategory {
    /// Low storage price — where HyRD erasure-codes large files.
    CostOriented,
    /// Low access latency — where HyRD replicates metadata + small files.
    PerformanceOriented,
    /// Both at once (Aliyun in the paper's measurements).
    Both,
}

impl ProviderCategory {
    /// Whether this provider qualifies for the cost-oriented tier.
    pub fn is_cost_oriented(self) -> bool {
        matches!(self, ProviderCategory::CostOriented | ProviderCategory::Both)
    }

    /// Whether this provider qualifies for the performance-oriented tier.
    pub fn is_performance_oriented(self) -> bool {
        matches!(self, ProviderCategory::PerformanceOriented | ProviderCategory::Both)
    }
}

/// One provider's price plan (all rates in US dollars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceBook {
    /// Storage, $ per GB per month.
    pub storage_gb_month: f64,
    /// Ingress, $ per GB (free everywhere in Table II, kept for
    /// generality).
    pub data_in_gb: f64,
    /// Egress to the Internet, $ per GB.
    pub data_out_gb: f64,
    /// Put/Copy/Post/List transactions, $ per 10K.
    pub put_class_10k: f64,
    /// Get and other transactions, $ per 10K.
    pub get_class_10k: f64,
}

impl PriceBook {
    /// Amazon S3, Table II column 1.
    pub const AMAZON_S3: PriceBook = PriceBook {
        storage_gb_month: 0.033,
        data_in_gb: 0.0,
        data_out_gb: 0.201,
        put_class_10k: 0.047,
        get_class_10k: 0.0037,
    };

    /// Windows Azure Storage, Table II column 2.
    pub const WINDOWS_AZURE: PriceBook = PriceBook {
        storage_gb_month: 0.157,
        data_in_gb: 0.0,
        data_out_gb: 0.0,
        put_class_10k: 0.0,
        get_class_10k: 0.0,
    };

    /// Aliyun Open Storage Service, Table II column 3.
    pub const ALIYUN: PriceBook = PriceBook {
        storage_gb_month: 0.029,
        data_in_gb: 0.0,
        data_out_gb: 0.123,
        put_class_10k: 0.0016,
        get_class_10k: 0.0016,
    };

    /// Rackspace Cloud Files, Table II column 4.
    pub const RACKSPACE: PriceBook = PriceBook {
        storage_gb_month: 0.13,
        data_in_gb: 0.0,
        data_out_gb: 0.0,
        put_class_10k: 0.0,
        get_class_10k: 0.0,
    };

    /// A free provider, for tests that want pure latency behaviour.
    pub const FREE: PriceBook = PriceBook {
        storage_gb_month: 0.0,
        data_in_gb: 0.0,
        data_out_gb: 0.0,
        put_class_10k: 0.0,
        get_class_10k: 0.0,
    };

    /// Monthly storage cost for `bytes` retained the whole month.
    pub fn storage_cost(&self, bytes: u64) -> f64 {
        gb(bytes) * self.storage_gb_month
    }

    /// Transfer cost for `bytes_in` uploaded and `bytes_out` downloaded.
    pub fn transfer_cost(&self, bytes_in: u64, bytes_out: u64) -> f64 {
        gb(bytes_in) * self.data_in_gb + gb(bytes_out) * self.data_out_gb
    }

    /// Transaction cost for op counts in the two billing classes.
    pub fn transaction_cost(&self, put_class_ops: u64, get_class_ops: u64) -> f64 {
        (put_class_ops as f64 / 10_000.0) * self.put_class_10k
            + (get_class_ops as f64 / 10_000.0) * self.get_class_10k
    }
}

/// Bytes → decimal gigabytes, the unit cloud bills use.
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_the_paper() {
        assert_eq!(PriceBook::AMAZON_S3.storage_gb_month, 0.033);
        assert_eq!(PriceBook::AMAZON_S3.data_out_gb, 0.201);
        assert_eq!(PriceBook::AMAZON_S3.put_class_10k, 0.047);
        assert_eq!(PriceBook::AMAZON_S3.get_class_10k, 0.0037);

        assert_eq!(PriceBook::WINDOWS_AZURE.storage_gb_month, 0.157);
        assert_eq!(PriceBook::WINDOWS_AZURE.data_out_gb, 0.0);

        assert_eq!(PriceBook::ALIYUN.storage_gb_month, 0.029);
        assert_eq!(PriceBook::ALIYUN.data_out_gb, 0.123);
        assert_eq!(PriceBook::ALIYUN.put_class_10k, 0.0016);

        assert_eq!(PriceBook::RACKSPACE.storage_gb_month, 0.13);
        assert_eq!(PriceBook::RACKSPACE.data_out_gb, 0.0);
    }

    #[test]
    fn paper_observation_s3_aliyun_cheapest_storage() {
        // §IV-B: S3 and Aliyun storage is >4x cheaper than Azure/Rackspace.
        for cheap in [PriceBook::AMAZON_S3, PriceBook::ALIYUN] {
            for dear in [PriceBook::WINDOWS_AZURE, PriceBook::RACKSPACE] {
                assert!(dear.storage_gb_month > 3.9 * cheap.storage_gb_month);
            }
        }
    }

    #[test]
    fn paper_observation_read_cost_dominates_s3_aliyun() {
        // §IV-B: for S3 and Aliyun, per-GB egress far exceeds per-GB-month
        // storage, so monthly bills track reads.
        for p in [PriceBook::AMAZON_S3, PriceBook::ALIYUN] {
            assert!(p.data_out_gb > 3.0 * p.storage_gb_month);
        }
    }

    #[test]
    fn cost_arithmetic() {
        let p = PriceBook::AMAZON_S3;
        // 1 TB stored for a month.
        assert!((p.storage_cost(1_000_000_000_000) - 33.0).abs() < 1e-9);
        // 10 GB out.
        assert!((p.transfer_cost(0, 10_000_000_000) - 2.01).abs() < 1e-9);
        // Ingress free.
        assert_eq!(p.transfer_cost(5_000_000_000, 0), 0.0);
        // 20K puts + 10K gets.
        let t = p.transaction_cost(20_000, 10_000);
        assert!((t - (2.0 * 0.047 + 0.0037)).abs() < 1e-12);
    }

    #[test]
    fn category_tiers() {
        assert!(ProviderCategory::CostOriented.is_cost_oriented());
        assert!(!ProviderCategory::CostOriented.is_performance_oriented());
        assert!(ProviderCategory::PerformanceOriented.is_performance_oriented());
        assert!(ProviderCategory::Both.is_cost_oriented());
        assert!(ProviderCategory::Both.is_performance_oriented());
    }

    #[test]
    fn gb_is_decimal() {
        assert_eq!(gb(1_000_000_000), 1.0);
    }
}
