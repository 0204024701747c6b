//! RAID6: double parity (P + Q) tolerating any two erasures.
//!
//! This extends the paper's RAID5 choice for the large-file tier and backs
//! the `paper::code_choice` section (DESIGN.md §4.4): what does HyRD
//! pay/gain if the Cloud-of-Clouds must survive two concurrent outages?
//!
//! P is the plain XOR parity; Q is the Reed-Solomon-style syndrome
//! `Q = sum_i g^i * D_i` over GF(2^8) — the classic Anvin construction
//! used by Linux md.

use crate::gf256::{combine_into, Gf256, ONES, POWERS};
use crate::inline::{InlineVec, INLINE};
use crate::{check_encode_shapes, ErasureCode, GfecError, Result};

/// Double-parity erasure code: `m` data fragments, parity fragments P
/// (index `m`) and Q (index `m + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raid6 {
    m: usize,
}

impl Raid6 {
    /// Creates a RAID6 code over `m` data fragments (n = m + 2).
    pub fn new(m: usize) -> Result<Self> {
        if m == 0 || m + 2 > 255 {
            return Err(GfecError::InvalidParams { m, n: m + 2 });
        }
        Ok(Raid6 { m })
    }
}

impl ErasureCode for Raid6 {
    fn data_fragments(&self) -> usize {
        self.m
    }

    fn total_fragments(&self) -> usize {
        self.m + 2
    }

    fn encode_into(&self, shards: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<()> {
        let len = check_encode_shapes(self, shards, parity)?;
        // P, then Q: each row appended in one lockstep pass over the shards.
        for (j, row) in parity.iter_mut().enumerate() {
            let terms: InlineVec<(Gf256, &[u8]), INLINE> =
                self.parity_row(j).iter().copied().zip(shards.iter().copied()).collect();
            combine_into(row, len, &terms);
        }
        Ok(())
    }

    fn parity_row(&self, j: usize) -> &[Gf256] {
        [&ONES[..self.m], &POWERS[..self.m]][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::reconstruct_parallel;
    use crate::Fragment;

    fn mk_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| (0..len).map(|b| (b as u8).wrapping_mul(17) ^ (i as u8 + 1)).collect())
            .collect()
    }

    fn frags_for(r: &Raid6, d: &[Vec<u8>]) -> Vec<Fragment> {
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let parity = r.encode(&refs).unwrap();
        let mut frags: Vec<Fragment> =
            d.iter().enumerate().map(|(i, x)| Fragment::new(i, x.clone())).collect();
        frags.push(Fragment::new(d.len(), parity[0].clone()));
        frags.push(Fragment::new(d.len() + 1, parity[1].clone()));
        frags
    }

    #[test]
    fn every_double_loss_recovers() {
        let m = 4;
        let r = Raid6::new(m).unwrap();
        let d = mk_shards(m, 40);
        let frags = frags_for(&r, &d);
        let n = m + 2;
        for a in 0..n {
            for b in (a + 1)..n {
                let avail: Vec<Fragment> =
                    frags.iter().filter(|f| f.index != a && f.index != b).cloned().collect();
                let got = reconstruct_parallel(&r, &avail, 40).unwrap();
                assert_eq!(got, d, "lost=({a},{b})");
            }
        }
    }

    #[test]
    fn single_loss_recovers_via_q_when_p_also_gone() {
        let m = 3;
        let r = Raid6::new(m).unwrap();
        let d = mk_shards(m, 24);
        let frags = frags_for(&r, &d);
        // Lose data shard 1 AND parity P — forces the Q path.
        let avail: Vec<Fragment> =
            frags.iter().filter(|f| f.index != 1 && f.index != m).cloned().collect();
        assert_eq!(reconstruct_parallel(&r, &avail, 24).unwrap(), d);
    }

    #[test]
    fn triple_loss_fails() {
        let m = 4;
        let r = Raid6::new(m).unwrap();
        let d = mk_shards(m, 16);
        let frags = frags_for(&r, &d);
        let avail: Vec<Fragment> = frags.iter().filter(|f| f.index > 2).cloned().collect();
        assert!(matches!(
            reconstruct_parallel(&r, &avail, 16),
            Err(GfecError::NotEnoughFragments { .. })
        ));
    }

    #[test]
    fn q_parity_matches_definition() {
        let m = 3;
        let r = Raid6::new(m).unwrap();
        let d = mk_shards(m, 8);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let parity = r.encode(&refs).unwrap();
        for b in 0..8 {
            let mut q = Gf256::ZERO;
            for (i, shard) in d.iter().enumerate() {
                q = q + Gf256::exp(i) * Gf256(shard[b]);
            }
            assert_eq!(parity[1][b], q.0);
        }
    }

    #[test]
    fn encode_into_overwrites_dirty_rows() {
        let m = 4;
        let r = Raid6::new(m).unwrap();
        let d = mk_shards(m, 100);
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        let expect = r.encode(&refs).unwrap();
        // Rows whose spare capacity held other bytes.
        let mut parity = vec![vec![0x11u8; 100], vec![0x22u8; 100]];
        parity.iter_mut().for_each(Vec::clear);
        r.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity, expect);
    }

    #[test]
    fn params_and_rate() {
        assert!(Raid6::new(0).is_err());
        assert!(Raid6::new(254).is_err());
        let r = Raid6::new(4).unwrap();
        assert_eq!(r.total_fragments(), 6);
        assert_eq!(r.parity_fragments(), 2);
        assert!((r.rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        let r = Raid6::new(3).unwrap();
        let d = mk_shards(3, 16);
        let frags = frags_for(&r, &d);
        let dup = vec![frags[0].clone(), frags[0].clone(), frags[1].clone()];
        assert!(matches!(
            reconstruct_parallel(&r, &dup, 16),
            Err(GfecError::DuplicateFragment { .. })
        ));
        let bad = vec![frags[0].clone(), frags[1].clone(), Fragment::new(99, vec![0; 16])];
        assert!(matches!(
            reconstruct_parallel(&r, &bad, 16),
            Err(GfecError::BadFragmentIndex { .. })
        ));
    }
}
