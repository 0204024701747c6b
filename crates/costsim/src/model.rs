//! The cost model: one [`Layout`] value per scheme, priced one way.
//!
//! A layout says where a scheme keeps its bytes and which providers serve
//! its reads; [`Layout::monthly_usage`] turns months of trace traffic
//! into per-provider [`MonthlyUsage`] from that alone. Replication is the
//! 1-of-n point of the same design space as an m-of-n stripe (HyRES), so
//! one [`Tier`] covers both, and HyRD is a threshold [`Layout::Split`] of
//! a replicated tier and a striped one. Read rules carry the data path's
//! names and are resolved from the Table II profiles in `hyrd-cloudsim`.
//! Usage arrays are in Table II column order ([`WellKnownProvider::ALL`]).

use hyrd_cloudsim::gcsapi::OpKind;
use hyrd_cloudsim::WellKnownProvider::{self, Aliyun, AmazonS3, WindowsAzure};
use hyrd_workloads::filesize::FileSizeDist;
use hyrd_workloads::ia_trace::MonthTraffic;

use crate::usage::MonthlyUsage;

/// Fleet size: the four Table II providers.
pub const N: usize = WellKnownProvider::ALL.len();

/// Which providers serve a tier's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRule {
    /// The first `m` of the tier's providers in their listed order — the
    /// primary of a replica set (single cloud, DuraCloud).
    PrimaryFirst,
    /// The `m` with the lowest expected Get latency (DepSky, HyRD's small
    /// reads).
    FastestFirst,
    /// The `m` with the cheapest egress, ties to the faster (HyRD's
    /// large reads).
    CheapestEgress,
    /// The `m` data fragments, which rotate with the parity over all `n`
    /// providers: each serves `m / n` of the reads (RACS).
    Rotating,
}

/// One redundancy tier: `m`-of-`n` over the providers `on`, each of
/// which keeps `1/m` of every object. `m = 1` is replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    /// Fragments a read needs (1: a whole replica).
    pub m: usize,
    /// The providers holding a fragment or a replica, primary first.
    pub on: &'static [WellKnownProvider],
    /// Which of them serve reads.
    pub read: ReadRule,
}

/// Where a scheme keeps its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every file in one tier.
    Whole(Tier),
    /// HyRD: files of at most `threshold` bytes in `small`, the rest in
    /// `large`, split by the trace's file-size mix.
    Split {
        /// Largest small file, in bytes.
        threshold: u64,
        /// The tier of small files.
        small: Tier,
        /// The tier of large files.
        large: Tier,
    },
}

impl Tier {
    /// Full copies on every provider of `on`.
    pub const fn replicate(on: &'static [WellKnownProvider], read: ReadRule) -> Tier {
        Tier { m: 1, on, read }
    }

    /// An `m`-of-`on.len()` stripe.
    pub const fn stripe(m: usize, on: &'static [WellKnownProvider], read: ReadRule) -> Tier {
        Tier { m, on, read }
    }

    /// Adds this tier's share of a month to `usage`: `retained` bytes
    /// kept, and the month's writes and reads.
    fn charge(&self, share: &Share, retained: u64, usage: &mut [MonthlyUsage; N]) {
        let (m, n) = (self.m as u64, self.on.len() as u64);
        for &p in self.on {
            let u = &mut usage[column(p)];
            u.stored_bytes += retained / m;
            u.bytes_in += share.written / m;
            u.put_class_ops += share.writes;
        }
        let ranked = self.read.rank(self.on);
        let (readers, bytes_out, gets) = match self.read {
            ReadRule::Rotating => (&ranked[..], share.read / n, share.reads * m / n),
            _ => (&ranked[..self.m], share.read / m, share.reads),
        };
        for &p in readers {
            let u = &mut usage[column(p)];
            u.bytes_out += bytes_out;
            u.get_class_ops += gets;
        }
    }
}

impl ReadRule {
    /// The providers of `on` in the order this rule reads them.
    fn rank(self, on: &[WellKnownProvider]) -> Vec<WellKnownProvider> {
        let get =
            |p: &WellKnownProvider| p.profile().latency.expected_latency(OpKind::Get, 64 << 10);
        let egress = |p: &WellKnownProvider| p.profile().prices.data_out_gb;
        let mut order = on.to_vec();
        match self {
            ReadRule::PrimaryFirst | ReadRule::Rotating => {}
            ReadRule::FastestFirst => order.sort_by_key(get),
            ReadRule::CheapestEgress => {
                order.sort_by(|a, b| egress(a).total_cmp(&egress(b)).then(get(a).cmp(&get(b))))
            }
        }
        order
    }
}

/// One tier's part of a month's traffic.
#[derive(Debug, Clone, Copy)]
struct Share {
    written: u64,
    read: u64,
    writes: u64,
    reads: u64,
}

impl Share {
    fn all(t: &MonthTraffic) -> Share {
        Share {
            written: t.bytes_written,
            read: t.bytes_read,
            writes: t.write_requests,
            reads: t.read_requests,
        }
    }

    /// The small and the large tier's parts: bytes cut at the fraction
    /// `bytes`, requests at `count`, the remainder to the large tier.
    fn split(t: &MonthTraffic, bytes: f64, count: f64) -> [Share; 2] {
        let cut = |x: u64, frac: f64| {
            let small = (x as f64 * frac) as u64;
            [small, x - small]
        };
        let (w, r) = (cut(t.bytes_written, bytes), cut(t.bytes_read, bytes));
        let (wq, rq) = (cut(t.write_requests, count), cut(t.read_requests, count));
        [0, 1].map(|i| Share { written: w[i], read: r[i], writes: wq[i], reads: rq[i] })
    }
}

impl Layout {
    /// Everything on one provider.
    pub const fn single(on: &'static WellKnownProvider) -> Layout {
        Layout::Whole(Tier::replicate(std::slice::from_ref(on), ReadRule::PrimaryFirst))
    }

    /// HyRD at a threshold: small files replicated on the performance
    /// tier {Aliyun, Azure}, large files RAID5(3+1) over all four.
    pub const fn hyrd(threshold: u64) -> Layout {
        Layout::Split {
            threshold,
            small: Tier::replicate(&[Aliyun, WindowsAzure], ReadRule::FastestFirst),
            large: Tier::stripe(3, &WellKnownProvider::ALL, ReadRule::CheapestEgress),
        }
    }

    /// What the layout consumes on each provider in each month of
    /// `months`: every byte written so far is still kept ("the monthly
    /// cost … also includes the storage cost of all previously written
    /// data"). `mix` is the file-size mix a [`Layout::Split`] divides
    /// the traffic by.
    pub fn monthly_usage(
        &self,
        months: &[MonthTraffic],
        mix: &FileSizeDist,
    ) -> Vec<[MonthlyUsage; N]> {
        let mut retained = [0u64; 2];
        months
            .iter()
            .map(|t| {
                let tiers = match *self {
                    Layout::Whole(tier) => vec![(tier, Share::all(t))],
                    Layout::Split { threshold, small, large } => {
                        let bytes = 1.0 - mix.bytes_frac_above(threshold);
                        let [s, l] = Share::split(t, bytes, mix.count_frac_below(threshold));
                        vec![(small, s), (large, l)]
                    }
                };
                let mut usage = [MonthlyUsage::default(); N];
                for ((tier, share), retained) in tiers.iter().zip(&mut retained) {
                    *retained += share.written;
                    tier.charge(share, *retained, &mut usage);
                }
                usage
            })
            .collect()
    }
}

/// DuraCloud: full copies on S3 (primary) and Azure; the primary serves
/// every read, the mirror exists for durability.
pub const DURACLOUD: Layout =
    Layout::Whole(Tier::replicate(&[AmazonS3, WindowsAzure], ReadRule::PrimaryFirst));

/// RACS: RAID5(3+1) over all four with rotating parity.
pub const RACS: Layout =
    Layout::Whole(Tier::stripe(3, &WellKnownProvider::ALL, ReadRule::Rotating));

/// DepSky: full copies on all four, read from the fastest.
pub const DEPSKY: Layout =
    Layout::Whole(Tier::replicate(&WellKnownProvider::ALL, ReadRule::FastestFirst));

/// HyRD as the paper evaluates it: the 1 MB threshold.
pub const HYRD: Layout = Layout::hyrd(1 << 20);

/// A provider's index in a usage array: Table II column order, which
/// is the declaration order of [`WellKnownProvider`].
pub(crate) const fn column(p: WellKnownProvider) -> usize {
    p as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::WellKnownProvider::Rackspace;

    const S3: usize = column(AmazonS3);
    const AZURE: usize = column(WindowsAzure);
    const ALIYUN: usize = column(Aliyun);

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

    /// The usage of the last of `months` months of [`traffic`].
    fn usage(layout: Layout, months: usize) -> [MonthlyUsage; N] {
        let traffic = vec![traffic(); months];
        *layout.monthly_usage(&traffic, &FileSizeDist::agrawal()).last().expect("a month")
    }

    fn total(u: &[MonthlyUsage; N], field: fn(&MonthlyUsage) -> u64) -> u64 {
        u.iter().map(field).sum()
    }

    #[test]
    fn columns_follow_table_ii() {
        assert_eq!(WellKnownProvider::ALL.map(column), [0, 1, 2, 3]);
    }

    #[test]
    fn single_model_accumulates_storage() {
        let layout = Layout::single(&AmazonS3);
        assert_eq!(usage(layout, 1)[S3].stored_bytes, 3_000_000_000_000);
        assert_eq!(usage(layout, 2)[S3].stored_bytes, 6_000_000_000_000);
        assert_eq!(usage(layout, 1)[AZURE], MonthlyUsage::default());
    }

    #[test]
    fn duracloud_stores_twice_and_reads_from_the_primary() {
        let u = usage(DURACLOUD, 1);
        assert_eq!(u[S3].stored_bytes, u[AZURE].stored_bytes);
        assert_eq!(u[S3].bytes_out, traffic().bytes_read, "primary serves reads");
        assert_eq!(u[AZURE].bytes_out, 0, "the mirror is write-only in normal state");
        assert_eq!(u[AZURE].get_class_ops, 0);
        assert_eq!(u[ALIYUN], MonthlyUsage::default());
    }

    #[test]
    fn racs_total_storage_is_4_thirds() {
        let u = usage(RACS, 1);
        let want = traffic().bytes_written as f64 * 4.0 / 3.0;
        let stored = total(&u, |x| x.stored_bytes) as f64;
        assert!((stored - want).abs() / want < 0.01);
        // Total egress equals the read volume, spread evenly.
        assert_eq!(total(&u, |x| x.bytes_out), traffic().bytes_read / 4 * 4);
        assert!(u.iter().all(|x| x.get_class_ops == traffic().read_requests * 3 / 4));
    }

    #[test]
    fn hyrd_small_tier_is_a_tiny_byte_fraction() {
        // The small tier's two replicas keep twice its bytes on Aliyun
        // and Azure beside their quarter-of-4/3 share of the large tier.
        let dist = FileSizeDist::agrawal();
        let (bytes, count) = (1.0 - dist.bytes_frac_above(1 << 20), dist.count_frac_below(1 << 20));
        assert!(bytes < 0.2, "fs = {bytes}");
        assert!(count > 0.8, "fc = {count}");
        let u = usage(HYRD, 1);
        let t = traffic();
        let small = u[ALIYUN].stored_bytes - u[S3].stored_bytes;
        assert_eq!(small, (t.bytes_written as f64 * bytes) as u64);
        let small_puts = u[ALIYUN].put_class_ops - u[S3].put_class_ops;
        assert_eq!(small_puts, (t.write_requests as f64 * count) as u64);
    }

    #[test]
    fn hyrd_avoids_s3_egress_entirely() {
        let u = usage(HYRD, 1);
        assert_eq!(u[S3].bytes_out, 0);
        assert_eq!(u[S3].get_class_ops, 0);
        // And S3 never takes small-file puts: its put count is the
        // large-file fragment puts only.
        assert!(u[S3].put_class_ops < u[ALIYUN].put_class_ops);
    }

    #[test]
    fn hyrd_total_storage_near_4_thirds_of_large_plus_2x_small() {
        let fs = 1.0 - FileSizeDist::agrawal().bytes_frac_above(1 << 20);
        let u = usage(HYRD, 1);
        let stored = total(&u, |x| x.stored_bytes) as f64;
        let w = traffic().bytes_written as f64;
        let want = w * fs * 2.0 + w * (1.0 - fs) * 4.0 / 3.0;
        assert!((stored - want).abs() / want < 0.01, "total={stored} want={want}");
    }

    #[test]
    fn depsky_is_4x_storage() {
        assert_eq!(total(&usage(DEPSKY, 1), |x| x.stored_bytes), 4 * traffic().bytes_written);
    }

    #[test]
    fn read_rules_pick_the_data_paths_providers() {
        let ranked = |rule: ReadRule| rule.rank(&WellKnownProvider::ALL);
        assert_eq!(ranked(ReadRule::PrimaryFirst)[0], AmazonS3);
        assert_eq!(ranked(ReadRule::FastestFirst)[..2], [Aliyun, WindowsAzure]);
        assert_eq!(ranked(ReadRule::CheapestEgress), [WindowsAzure, Rackspace, Aliyun, AmazonS3]);
    }
}
