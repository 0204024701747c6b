//! Usage records: what gets billed.

use hyrd_cloudsim::PriceBook;

/// One scheme's consumption on one provider during one month.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonthlyUsage {
    /// Bytes retained on the provider at month end (billed per GB-month;
    /// the paper's model bills the full balance each month, which is why
    /// "the monthly cost … includes the storage cost of all previously
    /// written data").
    pub stored_bytes: u64,
    /// Bytes uploaded during the month (free on all Table II providers,
    /// tracked for completeness).
    pub bytes_in: u64,
    /// Bytes served to the Internet during the month.
    pub bytes_out: u64,
    /// Put/Copy/Post/List-class transactions.
    pub put_class_ops: u64,
    /// Get-and-others-class transactions.
    pub get_class_ops: u64,
}

impl MonthlyUsage {
    /// Dollar cost of this month under a price plan.
    pub fn cost(&self, prices: &PriceBook) -> f64 {
        prices.storage_cost(self.stored_bytes)
            + prices.transfer_cost(self.bytes_in, self.bytes_out)
            + prices.transaction_cost(self.put_class_ops, self.get_class_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_sums_the_three_components() {
        let u = MonthlyUsage {
            stored_bytes: 1_000_000_000_000, // 1 TB
            bytes_in: 5_000_000_000,
            bytes_out: 10_000_000_000, // 10 GB
            put_class_ops: 20_000,
            get_class_ops: 10_000,
        };
        let p = PriceBook::AMAZON_S3;
        let want = 33.0 + 10.0 * 0.201 + 2.0 * 0.047 + 1.0 * 0.0037;
        assert!((u.cost(&p) - want).abs() < 1e-9, "{}", u.cost(&p));
    }

    #[test]
    fn free_provider_costs_nothing() {
        let u = MonthlyUsage {
            stored_bytes: u64::MAX / 2,
            bytes_in: 1,
            bytes_out: 1,
            put_class_ops: 1,
            get_class_ops: 1,
        };
        assert_eq!(u.cost(&PriceBook::FREE), 0.0);
    }
}
