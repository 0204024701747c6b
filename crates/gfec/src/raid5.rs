//! RAID5: the single-XOR-parity code `RS(m, m+1)` the paper uses for both
//! RACS and HyRD's large-file tier.
//!
//! A dedicated implementation (rather than routing through the generic
//! Reed-Solomon matrix machinery) buys two things:
//!
//! 1. a pure-XOR hot path — no table lookups at all, and
//! 2. the read-modify-write **partial update** the paper's motivation
//!    hinges on: a small update costs 2 reads + 2 writes (old data + old
//!    parity in, new data + new parity out), exactly the 4-access
//!    amplification quoted for RACS in §I.

use crate::gf256::{combine_into, Gf256, ONES};
use crate::{check_encode_shapes, ErasureCode, GfecError, Result};

/// XOR-parity erasure code with `m` data fragments and one parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raid5 {
    m: usize,
}

impl Raid5 {
    /// Creates a RAID5 code over `m` data fragments (n = m + 1).
    pub fn new(m: usize) -> Result<Self> {
        if m == 0 || m + 1 > 255 {
            return Err(GfecError::InvalidParams { m, n: m + 1 });
        }
        Ok(Raid5 { m })
    }

    /// Computes the new parity after an in-place update of one data
    /// fragment without touching the other data fragments:
    /// `P' = P ^ D_old ^ D_new` — the RAID5 read-modify-write identity.
    ///
    /// All three slices must have equal length.
    pub fn update_parity(old_parity: &[u8], old_data: &[u8], new_data: &[u8]) -> Result<Vec<u8>> {
        if old_data.len() != old_parity.len() || new_data.len() != old_parity.len() {
            return Err(GfecError::FragmentSizeMismatch {
                expected: old_parity.len(),
                got: old_data.len().max(new_data.len()),
            });
        }
        let mut p = Vec::with_capacity(old_parity.len());
        combine_into(&mut p, old_parity.len(), &[old_parity, old_data, new_data]);
        Ok(p)
    }
}

impl ErasureCode for Raid5 {
    fn data_fragments(&self) -> usize {
        self.m
    }

    fn total_fragments(&self) -> usize {
        self.m + 1
    }

    fn encode_into(&self, shards: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<()> {
        let len = check_encode_shapes(self, shards, parity)?;
        combine_into(&mut parity[0], len, shards);
        Ok(())
    }

    fn parity_row(&self, j: usize) -> &[Gf256] {
        assert_eq!(j, 0, "RAID5 has one parity row");
        &ONES[..self.m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::reconstruct_parallel;
    use crate::Fragment;

    fn mk_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| (0..len).map(|b| (b as u8) ^ (i as u8).wrapping_mul(0x3b)).collect())
            .collect()
    }

    #[test]
    fn parity_is_xor_of_data() {
        let r = Raid5::new(3).unwrap();
        let d = mk_shards(3, 32);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let p = r.encode(&refs).unwrap();
        assert_eq!(p.len(), 1);
        for b in 0..32 {
            assert_eq!(p[0][b], d[0][b] ^ d[1][b] ^ d[2][b]);
        }
    }

    #[test]
    fn any_single_loss_recovers() {
        let r = Raid5::new(4).unwrap();
        let d = mk_shards(4, 64);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let parity = r.encode(&refs).unwrap().remove(0);
        let mut frags: Vec<Fragment> =
            d.iter().enumerate().map(|(i, x)| Fragment::new(i, x.clone())).collect();
        frags.push(Fragment::new(4, parity));

        for lost in 0..5 {
            let avail: Vec<Fragment> = frags.iter().filter(|f| f.index != lost).cloned().collect();
            let got = reconstruct_parallel(&r, &avail, 64).unwrap();
            assert_eq!(got, d, "lost={lost}");
        }
    }

    #[test]
    fn double_loss_fails() {
        let r = Raid5::new(3).unwrap();
        let d = mk_shards(3, 16);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let parity = r.encode(&refs).unwrap().remove(0);
        let frags = vec![Fragment::new(0, d[0].clone()), Fragment::new(3, parity)];
        assert!(matches!(
            reconstruct_parallel(&r, &frags, 16),
            Err(GfecError::NotEnoughFragments { .. })
        ));
    }

    #[test]
    fn rmw_parity_update_matches_full_reencode() {
        let r = Raid5::new(3).unwrap();
        let mut d = mk_shards(3, 32);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let old_parity = r.encode(&refs).unwrap().remove(0);

        let new_d1: Vec<u8> = (0..32).map(|b| (b as u8).wrapping_mul(91)).collect();
        let updated = Raid5::update_parity(&old_parity, &d[1], &new_d1).unwrap();

        d[1] = new_d1;
        let refs2: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let full = r.encode(&refs2).unwrap().remove(0);
        assert_eq!(updated, full);
    }

    #[test]
    fn rmw_rejects_mismatched_lengths() {
        assert!(matches!(
            Raid5::update_parity(&[0; 8], &[0; 8], &[0; 4]),
            Err(GfecError::FragmentSizeMismatch { .. })
        ));
    }

    #[test]
    fn agrees_with_generic_rs_on_data_recovery() {
        use crate::rs::ReedSolomon;
        let raid = Raid5::new(3).unwrap();
        let rs = ReedSolomon::with_kind(3, 4, crate::rs::MatrixKind::Vandermonde).unwrap();
        let d = mk_shards(3, 48);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();

        let frags_rs = rs.encode_fragments(d.clone()).unwrap();
        let avail: Vec<Fragment> = frags_rs.iter().filter(|f| f.index != 1).cloned().collect();
        // Both codes recover identical data from index loss 1 (parity
        // encodings differ; the recovered *data* must not).
        let via_rs = reconstruct_parallel(&rs, &avail, 48).unwrap();

        let parity = raid.encode(&refs).unwrap().remove(0);
        let mut frags_r5: Vec<Fragment> =
            d.iter().enumerate().map(|(i, x)| Fragment::new(i, x.clone())).collect();
        frags_r5.push(Fragment::new(3, parity));
        let avail5: Vec<Fragment> = frags_r5.iter().filter(|f| f.index != 1).cloned().collect();
        let via_r5 = reconstruct_parallel(&raid, &avail5, 48).unwrap();

        assert_eq!(via_rs, via_r5);
        assert_eq!(via_r5, d);
    }

    #[test]
    fn encode_into_overwrites_dirty_rows() {
        let r = Raid5::new(3).unwrap();
        let d = mk_shards(3, 50);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let expect = r.encode(&refs).unwrap();
        // Appended after the row's own bytes, into capacity that held
        // other ones.
        let mut row = vec![0xABu8; 60];
        row.truncate(3);
        let mut parity = [row];
        r.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity[0], [&[0xAB; 3][..], &expect[0][..]].concat());
        // A shard of the wrong length is an error, and no row grows.
        assert!(matches!(
            r.encode_into(&[refs[0], refs[1], &d[2][..9]], &mut parity),
            Err(GfecError::FragmentSizeMismatch { expected: 50, got: 9 })
        ));
        assert_eq!(parity[0].len(), 53);
    }

    #[test]
    fn invalid_params() {
        assert!(Raid5::new(0).is_err());
        assert!(Raid5::new(255).is_err());
        assert!(Raid5::new(254).is_ok());
    }

    #[test]
    fn rate_reflects_single_parity() {
        let r = Raid5::new(4).unwrap();
        assert!((r.rate() - 0.8).abs() < 1e-12);
        assert_eq!(r.parity_fragments(), 1);
    }
}
