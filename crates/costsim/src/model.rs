//! Per-scheme accounting models.
//!
//! Each model translates one month of trace traffic into per-provider
//! [`MonthlyUsage`], encoding the same placement rules the executable
//! schemes in `hyrd` / `hyrd-baselines` implement (the integration tests
//! cross-check the two). Providers are indexed in Table II column order:
//! 0 = Amazon S3, 1 = Windows Azure, 2 = Aliyun, 3 = Rackspace.

use hyrd_workloads::filesize::FileSizeDist;
use hyrd_workloads::ia_trace::MonthTraffic;

use crate::usage::MonthlyUsage;

/// Table II column order indices.
pub const S3: usize = 0;
/// Windows Azure.
pub const AZURE: usize = 1;
/// Aliyun.
pub const ALIYUN: usize = 2;
/// Rackspace.
pub const RACKSPACE: usize = 3;
/// Fleet size.
pub const N: usize = 4;

/// A scheme's cost-accounting model. Stateful: retained bytes accumulate
/// month over month ("the monthly cost … also includes the storage cost
/// of all previously written data").
pub trait CostModel {
    /// Scheme name for the report.
    fn name(&self) -> &str;
    /// Advances one month, returning per-provider usage (Table II order).
    fn month(&mut self, traffic: &MonthTraffic) -> Vec<MonthlyUsage>;
}

// ---------------------------------------------------------------------
// Single cloud
// ---------------------------------------------------------------------

/// Everything on one provider.
pub struct SingleModel {
    name: String,
    provider: usize,
    retained: u64,
}

impl SingleModel {
    /// Builds the model for provider index `provider` (Table II order).
    pub fn new(name: impl Into<String>, provider: usize) -> Self {
        assert!(provider < N);
        SingleModel { name: name.into(), provider, retained: 0 }
    }
}

impl CostModel for SingleModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn month(&mut self, t: &MonthTraffic) -> Vec<MonthlyUsage> {
        self.retained += t.bytes_written;
        let mut out = vec![MonthlyUsage::default(); N];
        out[self.provider] = MonthlyUsage {
            stored_bytes: self.retained,
            bytes_in: t.bytes_written,
            bytes_out: t.bytes_read,
            put_class_ops: t.write_requests,
            get_class_ops: t.read_requests,
        };
        out
    }
}

// ---------------------------------------------------------------------
// DuraCloud
// ---------------------------------------------------------------------

/// Full replication on S3 (primary) + Azure (backup); reads are served
/// by the primary — DuraCloud is a synchronization service, so user I/O
/// stays on the primary store and the mirror exists for durability
/// (matching `hyrd_baselines::Replicated::duracloud_standard`).
pub struct DuraCloudModel {
    retained: u64,
}

impl DuraCloudModel {
    /// Builds the standard S3+Azure pairing.
    pub fn new() -> Self {
        DuraCloudModel { retained: 0 }
    }
}

impl Default for DuraCloudModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModel for DuraCloudModel {
    fn name(&self) -> &str {
        "DuraCloud"
    }

    fn month(&mut self, t: &MonthTraffic) -> Vec<MonthlyUsage> {
        self.retained += t.bytes_written;
        let mut out = vec![MonthlyUsage::default(); N];
        for idx in [S3, AZURE] {
            out[idx] = MonthlyUsage {
                stored_bytes: self.retained,
                bytes_in: t.bytes_written,
                bytes_out: 0,
                put_class_ops: t.write_requests,
                get_class_ops: 0,
            };
        }
        // All reads from the primary (S3) — it bills $0.201/GB egress,
        // which is a large part of why Figure 4 finds DuraCloud the most
        // costly scheme.
        out[S3].bytes_out = t.bytes_read;
        out[S3].get_class_ops = t.read_requests;
        out
    }
}

// ---------------------------------------------------------------------
// RACS
// ---------------------------------------------------------------------

/// RAID5(3+1) striping of everything across all four providers with
/// rotating parity; reads fetch the three data fragments.
pub struct RacsModel {
    retained: u64,
}

impl RacsModel {
    /// Builds the 4-provider RACS model.
    pub fn new() -> Self {
        RacsModel { retained: 0 }
    }
}

impl Default for RacsModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModel for RacsModel {
    fn name(&self) -> &str {
        "RACS"
    }

    fn month(&mut self, t: &MonthTraffic) -> Vec<MonthlyUsage> {
        self.retained += t.bytes_written;
        let mut out = vec![MonthlyUsage::default(); N];
        for u in out.iter_mut() {
            // Each provider stores 1/4 of the 4/3-encoded data = w/3, and
            // takes one fragment put per logical write.
            u.stored_bytes = self.retained / 3;
            u.bytes_in = t.bytes_written / 3;
            u.put_class_ops = t.write_requests;
            // Each read fetches the 3 data fragments; parity rotation
            // means each provider holds a data fragment for 3/4 of the
            // objects, serving 1/3 of the bytes when it does.
            u.bytes_out = t.bytes_read / 4;
            u.get_class_ops = t.read_requests * 3 / 4;
        }
        out
    }
}

// ---------------------------------------------------------------------
// DepSky
// ---------------------------------------------------------------------

/// Full replication on all four providers; fastest-replica (Aliyun)
/// reads.
pub struct DepSkyModel {
    retained: u64,
}

impl DepSkyModel {
    /// Builds the 4-provider DepSky model.
    pub fn new() -> Self {
        DepSkyModel { retained: 0 }
    }
}

impl Default for DepSkyModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModel for DepSkyModel {
    fn name(&self) -> &str {
        "DepSky"
    }

    fn month(&mut self, t: &MonthTraffic) -> Vec<MonthlyUsage> {
        self.retained += t.bytes_written;
        let mut out = vec![MonthlyUsage::default(); N];
        for u in out.iter_mut() {
            u.stored_bytes = self.retained;
            u.bytes_in = t.bytes_written;
            u.put_class_ops = t.write_requests;
        }
        out[ALIYUN].bytes_out = t.bytes_read;
        out[ALIYUN].get_class_ops = t.read_requests;
        out
    }
}

// ---------------------------------------------------------------------
// HyRD
// ---------------------------------------------------------------------

/// The hybrid model: small files + metadata replicated (level 2) on the
/// performance tier {Aliyun, Azure}; large files RAID5(3+1) across all
/// four; small reads from the fastest replica (Aliyun); large reads from
/// the cheapest-egress fragment holders {Azure, Rackspace, Aliyun}.
pub struct HyrdModel {
    threshold: u64,
    /// Fraction of bytes in small files (≤ threshold).
    small_bytes_frac: f64,
    /// Fraction of requests hitting small files.
    small_count_frac: f64,
    retained_small: u64,
    retained_large: u64,
}

impl HyrdModel {
    /// Builds the model from the trace's file-size mix at a threshold.
    pub fn new(threshold: u64, dist: &FileSizeDist) -> Self {
        HyrdModel {
            threshold,
            small_bytes_frac: 1.0 - dist.bytes_frac_above(threshold),
            small_count_frac: dist.count_frac_below(threshold),
            retained_small: 0,
            retained_large: 0,
        }
    }

    /// The paper's configuration: 1 MB threshold over the Agrawal mix.
    pub fn paper_default() -> Self {
        HyrdModel::new(1024 * 1024, &FileSizeDist::agrawal())
    }

    /// The active threshold (for sweep harnesses).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl CostModel for HyrdModel {
    fn name(&self) -> &str {
        "HyRD"
    }

    fn month(&mut self, t: &MonthTraffic) -> Vec<MonthlyUsage> {
        let fs = self.small_bytes_frac;
        let fc = self.small_count_frac;
        let w_small = (t.bytes_written as f64 * fs) as u64;
        let w_large = t.bytes_written - w_small;
        self.retained_small += w_small;
        self.retained_large += w_large;
        let wq_small = (t.write_requests as f64 * fc) as u64;
        let wq_large = t.write_requests - wq_small;
        let r_small = (t.bytes_read as f64 * fs) as u64;
        let r_large = t.bytes_read - r_small;
        let rq_small = (t.read_requests as f64 * fc) as u64;
        let rq_large = t.read_requests - rq_small;

        let mut out = vec![MonthlyUsage::default(); N];

        // Small tier: replicas on Aliyun + Azure.
        for idx in [ALIYUN, AZURE] {
            out[idx].stored_bytes += self.retained_small;
            out[idx].bytes_in += w_small;
            out[idx].put_class_ops += wq_small;
        }
        // Small reads from the fastest replica: Aliyun.
        out[ALIYUN].bytes_out += r_small;
        out[ALIYUN].get_class_ops += rq_small;

        // Large tier: RAID5 over all four.
        for u in out.iter_mut() {
            u.stored_bytes += self.retained_large / 3;
            u.bytes_in += w_large / 3;
            u.put_class_ops += wq_large;
        }
        // Large reads: the three cheapest-egress fragment holders.
        for idx in [AZURE, RACKSPACE, ALIYUN] {
            out[idx].bytes_out += r_large / 3;
            out[idx].get_class_ops += rq_large;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> MonthTraffic {
        MonthTraffic {
            month: 0,
            label: "t".into(),
            bytes_written: 3_000_000_000_000,
            bytes_read: 6_300_000_000_000,
            write_requests: 100_000_000,
            read_requests: 350_000_000,
        }
    }

    #[test]
    fn single_model_accumulates_storage() {
        let mut m = SingleModel::new("S3", S3);
        let u1 = m.month(&traffic());
        let u2 = m.month(&traffic());
        assert_eq!(u1[S3].stored_bytes, 3_000_000_000_000);
        assert_eq!(u2[S3].stored_bytes, 6_000_000_000_000);
        assert_eq!(u1[AZURE], MonthlyUsage::default());
    }

    #[test]
    fn duracloud_stores_twice_and_reads_from_the_primary() {
        let mut m = DuraCloudModel::new();
        let u = m.month(&traffic());
        assert_eq!(u[S3].stored_bytes, u[AZURE].stored_bytes);
        assert_eq!(u[S3].bytes_out, traffic().bytes_read, "primary serves reads");
        assert_eq!(u[AZURE].bytes_out, 0, "the mirror is write-only in normal state");
        assert_eq!(u[ALIYUN], MonthlyUsage::default());
    }

    #[test]
    fn racs_total_storage_is_4_thirds() {
        let mut m = RacsModel::new();
        let u = m.month(&traffic());
        let total: u64 = u.iter().map(|x| x.stored_bytes).sum();
        let want = traffic().bytes_written as f64 * 4.0 / 3.0;
        assert!((total as f64 - want).abs() / want < 0.01);
        // Total egress equals the read volume, spread evenly.
        let out: u64 = u.iter().map(|x| x.bytes_out).sum();
        assert_eq!(out, traffic().bytes_read / 4 * 4);
    }

    #[test]
    fn hyrd_small_tier_is_a_tiny_byte_fraction() {
        let m = HyrdModel::paper_default();
        assert!(m.small_bytes_frac < 0.2, "fs = {}", m.small_bytes_frac);
        assert!(m.small_count_frac > 0.8, "fc = {}", m.small_count_frac);
    }

    #[test]
    fn hyrd_avoids_s3_egress_entirely() {
        let mut m = HyrdModel::paper_default();
        let u = m.month(&traffic());
        assert_eq!(u[S3].bytes_out, 0);
        assert_eq!(u[S3].get_class_ops, 0);
        // And S3 never takes small-file puts: its put count is the
        // large-file fragment puts only.
        assert!(u[S3].put_class_ops < u[ALIYUN].put_class_ops);
    }

    #[test]
    fn hyrd_total_storage_near_4_thirds_of_large_plus_2x_small() {
        let mut m = HyrdModel::paper_default();
        let fs = m.small_bytes_frac;
        let u = m.month(&traffic());
        let total: f64 = u.iter().map(|x| x.stored_bytes as f64).sum();
        let w = traffic().bytes_written as f64;
        let want = w * fs * 2.0 + w * (1.0 - fs) * 4.0 / 3.0;
        assert!((total - want).abs() / want < 0.01, "total={total} want={want}");
    }

    #[test]
    fn depsky_is_4x_storage() {
        let mut m = DepSkyModel::new();
        let u = m.month(&traffic());
        let total: u64 = u.iter().map(|x| x.stored_bytes).sum();
        assert_eq!(total, 4 * traffic().bytes_written);
    }
}
