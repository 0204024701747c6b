//! Synthetic Internet Archive trace (Figure 3).
//!
//! The paper's cost analysis replays "one year of activity on the
//! Internet Archive servers from Feb. 2008 to Jan. 2009", a trace that is
//! not publicly distributable. The cost simulation consumes only monthly
//! aggregates, so we synthesize a trace with exactly the statistics
//! Figure 3 reports:
//!
//! * data volume dominated by reads, read:write **2.1 : 1** by bytes,
//! * read requests outnumbering writes **3.5 : 1**,
//! * TB-scale monthly volumes with month-to-month variation,
//! * HTTP/FTP document-and-media file mix (the Agrawal-style size
//!   distribution from [`crate::filesize`]).
//!
//! The ratios are enforced *exactly* over the year (scaling the sampled
//! series), so the headline statistics of Figure 3 are reproduced by
//! construction and the monthly wiggle comes from the seeded RNG.

use crate::filesize::FileSizeDist;
use crate::rng::Rng;

/// Read:write byte-volume ratio reported in Figure 3a.
pub const VOLUME_RATIO: f64 = 2.1;
/// Read:write request-count ratio reported in Figure 3b.
pub const REQUEST_RATIO: f64 = 3.5;

/// One month of aggregate traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthTraffic {
    /// 0-based month index (0 = Feb 2008).
    pub month: usize,
    /// Human label ("Feb-08").
    pub label: String,
    /// Bytes uploaded to the archive this month.
    pub bytes_written: u64,
    /// Bytes served to users this month.
    pub bytes_read: u64,
    /// Write (upload) requests this month.
    pub write_requests: u64,
    /// Read (download) requests this month.
    pub read_requests: u64,
}

/// The synthesized 12-month trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IaTrace {
    months: Vec<MonthTraffic>,
    size_dist: FileSizeDist,
}

const MONTH_LABELS: [&str; 12] = [
    "Feb-08", "Mar-08", "Apr-08", "May-08", "Jun-08", "Jul-08", "Aug-08", "Sep-08", "Oct-08",
    "Nov-08", "Dec-08", "Jan-09",
];

impl IaTrace {
    /// Synthesizes the calibrated trace. `seed` only affects the monthly
    /// wiggle; the year-total ratios are exact.
    pub fn synthesize(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);

        // Baseline write volume ~3.5 TB/month, growing ~2 %/month (the
        // archive accretes), ±15 % noise.
        let base_written: f64 = 3.5e12;
        let written: Vec<f64> = (0..12)
            .map(|m| {
                let growth = 1.02f64.powi(m);
                let noise = 1.0 + rng.range_f64(-0.15, 0.15);
                base_written * growth * noise
            })
            .collect();

        // Read volumes: same shape scaled, separate noise, then rescaled
        // so the yearly ratio is exactly VOLUME_RATIO.
        let mut read: Vec<f64> =
            written.iter().map(|w| w * VOLUME_RATIO * (1.0 + rng.range_f64(-0.20, 0.20))).collect();
        let w_sum: f64 = written.iter().sum();
        let r_sum: f64 = read.iter().sum();
        let scale = VOLUME_RATIO * w_sum / r_sum;
        for r in &mut read {
            *r *= scale;
        }

        // Request counts: writes average ~35 KB per request (mixed
        // metadata + file uploads), reads rescaled to hit REQUEST_RATIO.
        let avg_write_req_bytes = 35_000.0;
        let w_reqs: Vec<f64> = written.iter().map(|w| w / avg_write_req_bytes).collect();
        let mut r_reqs: Vec<f64> = read
            .iter()
            .map(|r| r / avg_write_req_bytes * (1.0 + rng.range_f64(-0.10, 0.10)))
            .collect();
        let wq: f64 = w_reqs.iter().sum();
        let rq: f64 = r_reqs.iter().sum();
        let qscale = REQUEST_RATIO * wq / rq;
        for q in &mut r_reqs {
            *q *= qscale;
        }

        let months = (0..12)
            .map(|m| MonthTraffic {
                month: m,
                label: MONTH_LABELS[m].to_string(),
                bytes_written: written[m] as u64,
                bytes_read: read[m] as u64,
                write_requests: w_reqs[m] as u64,
                read_requests: r_reqs[m] as u64,
            })
            .collect();

        IaTrace { months, size_dist: FileSizeDist::agrawal() }
    }

    /// The twelve months in order.
    pub fn months(&self) -> &[MonthTraffic] {
        &self.months
    }

    /// The file-size mix of written data.
    pub fn size_dist(&self) -> &FileSizeDist {
        &self.size_dist
    }

    /// Year-total bytes written.
    pub fn total_written(&self) -> u64 {
        self.months.iter().map(|m| m.bytes_written).sum()
    }

    /// Year-total bytes read.
    pub fn total_read(&self) -> u64 {
        self.months.iter().map(|m| m.bytes_read).sum()
    }

    /// Year read:write volume ratio.
    pub fn volume_ratio(&self) -> f64 {
        self.total_read() as f64 / self.total_written() as f64
    }

    /// Year read:write request-count ratio.
    pub fn request_ratio(&self) -> f64 {
        let r: u64 = self.months.iter().map(|m| m.read_requests).sum();
        let w: u64 = self.months.iter().map(|m| m.write_requests).sum();
        r as f64 / w as f64
    }

    /// Samples a request-level operation stream for one *day* of a month,
    /// scaled down by `scale` (e.g. `1e-6` turns ~3 M daily writes into
    /// ~3): creates with sizes from the archive's file mix, interleaved
    /// with reads of already-ingested documents at the month's
    /// read:write request ratio. This bridges the aggregate trace to the
    /// replayable [`crate::FsOp`] level.
    pub fn sample_day_ops(&self, month: usize, scale: f64, seed: u64) -> Vec<crate::FsOp> {
        let m = &self.months[month];
        let writes = ((m.write_requests as f64 / 30.0) * scale).round().max(1.0) as usize;
        let reads = ((m.read_requests as f64 / 30.0) * scale).round() as usize;
        let mut rng = Rng::seed_from_u64(seed ^ (month as u64) << 32);

        let mut ops = Vec::with_capacity(writes + reads);
        let mut pool: Vec<String> = Vec::with_capacity(writes);
        // Interleave: spread the reads between the writes so reads always
        // target ingested content (the archive serves while it ingests).
        let reads_per_write = reads as f64 / writes as f64;
        let mut read_budget = 0.0f64;
        for i in 0..writes {
            let path = format!("/ia/m{month:02}/d{i:06}");
            let size = self.size_dist.sample(&mut rng);
            ops.push(crate::FsOp::Create { path: path.clone(), size });
            pool.push(path);
            read_budget += reads_per_write;
            while read_budget >= 1.0 {
                read_budget -= 1.0;
                let target = pool[rng.index(pool.len())].clone();
                ops.push(crate::FsOp::Read { path: target });
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_months_feb08_to_jan09() {
        let t = IaTrace::synthesize(1);
        assert_eq!(t.months().len(), 12);
        assert_eq!(t.months()[0].label, "Feb-08");
        assert_eq!(t.months()[11].label, "Jan-09");
        for (i, m) in t.months().iter().enumerate() {
            assert_eq!(m.month, i);
        }
    }

    #[test]
    fn figure3_ratios_hold_exactly() {
        for seed in [0u64, 1, 42, 999] {
            let t = IaTrace::synthesize(seed);
            assert!((t.volume_ratio() - VOLUME_RATIO).abs() < 1e-6, "seed {seed}");
            assert!((t.request_ratio() - REQUEST_RATIO).abs() < 1e-3, "seed {seed}");
        }
    }

    #[test]
    fn volumes_are_tb_scale_with_variation() {
        let t = IaTrace::synthesize(7);
        for m in t.months() {
            assert!(m.bytes_written > 2e12 as u64, "{}: {}", m.label, m.bytes_written);
            assert!(m.bytes_written < 8e12 as u64);
            assert!(m.bytes_read > m.bytes_written, "reads dominate each month");
        }
        // Some month-to-month wiggle exists.
        let vols: Vec<u64> = t.months().iter().map(|m| m.bytes_written).collect();
        assert!(vols.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn request_counts_are_hundreds_of_millions() {
        // Figure 3b plots counts in the 10^8 range.
        let t = IaTrace::synthesize(3);
        for m in t.months() {
            assert!(m.write_requests > 50_000_000, "{}", m.write_requests);
            assert!(m.read_requests > 200_000_000, "{}", m.read_requests);
            assert!(m.read_requests < 1_000_000_000);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(IaTrace::synthesize(5), IaTrace::synthesize(5));
        assert_ne!(IaTrace::synthesize(5), IaTrace::synthesize(6));
    }

    #[test]
    fn sampled_day_reflects_the_request_ratio() {
        let t = IaTrace::synthesize(1);
        let ops = t.sample_day_ops(0, 3e-5, 7);
        let writes = ops.iter().filter(|o| matches!(o, crate::FsOp::Create { .. })).count();
        let reads = ops.iter().filter(|o| matches!(o, crate::FsOp::Read { .. })).count();
        assert!(writes >= 50, "writes={writes}");
        // A day is the month's own request counts scaled and rounded; the
        // month carries ±10-20 % noise around the yearly REQUEST_RATIO,
        // which `synthesize` enforces on the year (see above).
        let m = &t.months()[0];
        let day = |requests: u64| (requests as f64 / 30.0 * 3e-5).round() as usize;
        assert_eq!(writes, day(m.write_requests));
        assert!(reads.abs_diff(day(m.read_requests)) <= 1, "reads={reads}");
        let month_ratio = m.read_requests as f64 / m.write_requests as f64;
        let ratio = reads as f64 / writes as f64;
        assert!((ratio - month_ratio).abs() < 0.05, "ratio={ratio} month={month_ratio}");
        // Every read targets an already-created path.
        let mut live = std::collections::HashSet::new();
        for op in &ops {
            match op {
                crate::FsOp::Create { path, .. } => {
                    live.insert(path.clone());
                }
                crate::FsOp::Read { path } => assert!(live.contains(path)),
                _ => unreachable!("day samples only create/read"),
            }
        }
    }

    #[test]
    fn sampled_day_is_deterministic_and_scales() {
        let t = IaTrace::synthesize(2);
        assert_eq!(t.sample_day_ops(3, 1e-5, 9).len(), t.sample_day_ops(3, 1e-5, 9).len());
        assert!(t.sample_day_ops(3, 2e-5, 9).len() > t.sample_day_ops(3, 1e-5, 9).len());
    }
}
