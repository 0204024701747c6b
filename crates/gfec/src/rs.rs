//! Systematic Reed-Solomon codes over GF(2^8).
//!
//! The encode matrix is built the way Plank's tutorial and production
//! systems (Backblaze, HDFS-EC) do it: take a distinct-row matrix
//! (Vandermonde or Cauchy-extended identity), normalize so its top `m`
//! rows are the identity, and use the bottom `n - m` rows as parity
//! generators. The systematic property means data fragments are verbatim
//! slices of the object — reads that lose no fragment never pay a decode.

use crate::gf256::Gf256;
use crate::matrix::Matrix;
use crate::{check_encode_shapes, ErasureCode, Fragment, GfecError, Result};

/// Which matrix construction generates the parity rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixKind {
    /// Vandermonde matrix normalized to systematic form.
    Vandermonde,
    /// Identity stacked on a Cauchy matrix (already systematic; every
    /// square submatrix of a Cauchy matrix is invertible).
    #[default]
    Cauchy,
}

/// A systematic `RS(m, n)` code: `m` data fragments, `n - m` parity
/// fragments, tolerating any `n - m` erasures.
///
/// ```
/// use hyrd_gfec::parallel::reconstruct_parallel;
/// use hyrd_gfec::{Fragment, ReedSolomon};
///
/// let rs = ReedSolomon::new(3, 5).unwrap();
/// let shards: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 64]).collect();
/// let fragments = rs.encode_fragments(shards.clone()).unwrap();
///
/// // Lose any two of the five fragments — the data still decodes.
/// let survivors: Vec<Fragment> =
///     fragments.into_iter().filter(|f| f.index != 0 && f.index != 4).collect();
/// assert_eq!(reconstruct_parallel(&rs, &survivors, 64).unwrap(), shards);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    m: usize,
    n: usize,
    /// Full `n x m` encode matrix; top `m` rows are the identity.
    encode_matrix: Matrix,
    /// The bottom `n - m` parity rows, pre-selected at construction so
    /// every encode goes straight into the fused kernel without an
    /// allocating `select_rows` per call.
    parity_matrix: Matrix,
    /// The same rows as field elements, row-major, for
    /// [`ErasureCode::parity_row`] to lend.
    parity_rows: Vec<Gf256>,
}

impl ReedSolomon {
    /// Creates an `RS(m, n)` code with the default (Cauchy) construction.
    pub fn new(m: usize, n: usize) -> Result<Self> {
        Self::with_kind(m, n, MatrixKind::default())
    }

    /// Creates an `RS(m, n)` code with an explicit matrix construction.
    pub fn with_kind(m: usize, n: usize, kind: MatrixKind) -> Result<Self> {
        if m == 0 || n <= m || n > 255 {
            return Err(GfecError::InvalidParams { m, n });
        }
        let encode_matrix = match kind {
            MatrixKind::Vandermonde => {
                // Normalize V (n x m) so the top m x m block becomes I:
                // E = V * inv(V_top). Any m rows of E stay independent
                // because row operations preserve that property.
                let v = Matrix::vandermonde(n, m);
                let top = v.select_rows(&(0..m).collect::<Vec<_>>());
                let top_inv = top.invert().map_err(|_| GfecError::SingularMatrix)?;
                v.mul(&top_inv)
            }
            MatrixKind::Cauchy => {
                let mut e = Matrix::zero(n, m);
                for i in 0..m {
                    e.set(i, i, Gf256::ONE);
                }
                let c = Matrix::cauchy(n - m, m);
                for i in 0..(n - m) {
                    for j in 0..m {
                        e.set(m + i, j, c.get(i, j));
                    }
                }
                e
            }
        };
        let parity_matrix = encode_matrix.select_rows(&(m..n).collect::<Vec<_>>());
        let parity_rows =
            (0..n - m).flat_map(|r| parity_matrix.row(r)).map(|&c| Gf256(c)).collect();
        Ok(ReedSolomon { m, n, encode_matrix, parity_matrix, parity_rows })
    }

    /// The full `n x m` encode matrix (top `m` rows are the identity).
    pub fn encode_matrix(&self) -> &Matrix {
        &self.encode_matrix
    }

    /// Encodes `m` equal-length data shards into the full fragment set
    /// (data fragments first, verbatim, then parity). Takes the shards by
    /// value: the code is systematic, so each data shard is *moved* into
    /// its fragment rather than copied — only parity bytes are produced.
    pub fn encode_fragments(&self, shards: Vec<Vec<u8>>) -> Result<Vec<Fragment>> {
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let parity = self.encode(&refs)?;
        let mut out = Vec::with_capacity(self.n);
        for (i, s) in shards.into_iter().enumerate() {
            out.push(Fragment::new(i, s));
        }
        for (k, p) in parity.into_iter().enumerate() {
            out.push(Fragment::new(self.m + k, p));
        }
        Ok(out)
    }
}

impl ErasureCode for ReedSolomon {
    fn data_fragments(&self) -> usize {
        self.m
    }

    fn total_fragments(&self) -> usize {
        self.n
    }

    fn encode_into(&self, shards: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<()> {
        check_encode_shapes(self, shards, parity)?;
        self.parity_matrix.mul_shards_into(shards, parity);
        Ok(())
    }

    fn parity_row(&self, j: usize) -> &[Gf256] {
        &self.parity_rows[j * self.m..(j + 1) * self.m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::reconstruct_parallel;

    fn shards(m: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len).map(|b| (b as u8).wrapping_mul(31).wrapping_add(seed + i as u8)).collect()
            })
            .collect()
    }

    fn roundtrip(kind: MatrixKind, m: usize, n: usize) {
        let rs = ReedSolomon::with_kind(m, n, kind).unwrap();
        let data = shards(m, 64, 7);
        let frags = rs.encode_fragments(data.clone()).unwrap();
        assert_eq!(frags.len(), n);

        // Every way of losing up to n-m fragments must still decode.
        for lost_a in 0..n {
            for lost_b in 0..n {
                let avail: Vec<Fragment> = frags
                    .iter()
                    .filter(|f| f.index != lost_a && f.index != lost_b)
                    .cloned()
                    .collect();
                if avail.len() < m {
                    continue;
                }
                let got = reconstruct_parallel(&rs, &avail, 64).unwrap();
                assert_eq!(got, data, "kind={kind:?} m={m} n={n} lost=({lost_a},{lost_b})");
            }
        }
    }

    #[test]
    fn roundtrip_raid5_shape_cauchy() {
        roundtrip(MatrixKind::Cauchy, 3, 4);
    }

    #[test]
    fn roundtrip_raid5_shape_vandermonde() {
        roundtrip(MatrixKind::Vandermonde, 3, 4);
    }

    #[test]
    fn roundtrip_wide_codes() {
        roundtrip(MatrixKind::Cauchy, 4, 6);
        roundtrip(MatrixKind::Vandermonde, 4, 6);
        roundtrip(MatrixKind::Cauchy, 6, 9);
        roundtrip(MatrixKind::Cauchy, 10, 14);
    }

    #[test]
    fn systematic_top_is_identity() {
        for kind in [MatrixKind::Cauchy, MatrixKind::Vandermonde] {
            let rs = ReedSolomon::with_kind(4, 6, kind).unwrap();
            let e = rs.encode_matrix();
            for i in 0..4 {
                for j in 0..4 {
                    let want = if i == j { 1 } else { 0 };
                    assert_eq!(e.get(i, j).0, want, "kind={kind:?} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn data_fragments_are_verbatim() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = shards(3, 32, 1);
        let frags = rs.encode_fragments(data.clone()).unwrap();
        for i in 0..3 {
            assert_eq!(frags[i].data, data[i]);
        }
    }

    #[test]
    fn reconstruct_single_fragment_data_and_parity() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = shards(3, 48, 9);
        let frags = rs.encode_fragments(data).unwrap();
        for target in 0..5 {
            let avail: Vec<Fragment> =
                frags.iter().filter(|f| f.index != target).cloned().collect();
            let views: Vec<(usize, &[u8])> =
                avail.iter().map(|f| (f.index, f.data.as_slice())).collect();
            let rebuilt = crate::rebuild_fragment(&rs, 48, &views, target).unwrap();
            assert_eq!(rebuilt, frags[target].data, "target={target}");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(ReedSolomon::new(0, 4), Err(GfecError::InvalidParams { .. })));
        assert!(matches!(ReedSolomon::new(4, 4), Err(GfecError::InvalidParams { .. })));
        assert!(matches!(ReedSolomon::new(4, 3), Err(GfecError::InvalidParams { .. })));
        assert!(matches!(ReedSolomon::new(200, 256), Err(GfecError::InvalidParams { .. })));
    }

    #[test]
    fn decode_input_validation() {
        let rs = ReedSolomon::new(3, 4).unwrap();
        let data = shards(3, 16, 2);
        let frags = rs.encode_fragments(data).unwrap();

        // Too few.
        let err = reconstruct_parallel(&rs, &frags[..2], 16).unwrap_err();
        assert!(matches!(err, GfecError::NotEnoughFragments { have: 2, need: 3 }));

        // Duplicate index.
        let dup = vec![frags[0].clone(), frags[0].clone(), frags[1].clone()];
        assert!(matches!(
            reconstruct_parallel(&rs, &dup, 16),
            Err(GfecError::DuplicateFragment { index: 0 })
        ));

        // Bad index.
        let bad = vec![frags[0].clone(), frags[1].clone(), Fragment::new(9, vec![0; 16])];
        assert!(matches!(
            reconstruct_parallel(&rs, &bad, 16),
            Err(GfecError::BadFragmentIndex { index: 9, .. })
        ));

        // Ragged sizes.
        let ragged = vec![frags[0].clone(), frags[1].clone(), Fragment::new(2, vec![0; 8])];
        assert!(matches!(
            reconstruct_parallel(&rs, &ragged, 16),
            Err(GfecError::FragmentSizeMismatch { expected: 16, got: 8 })
        ));
    }

    #[test]
    fn encode_shard_validation() {
        let rs = ReedSolomon::new(3, 4).unwrap();
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        assert!(matches!(
            rs.encode(&[a.as_slice(), a.as_slice(), b.as_slice()]),
            Err(GfecError::FragmentSizeMismatch { .. })
        ));
        assert!(matches!(rs.encode(&[a.as_slice()]), Err(GfecError::NotEnoughFragments { .. })));
    }

    #[test]
    fn encode_into_matches_encode_with_dirty_rows() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = shards(3, 100, 4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expect = rs.encode(&refs).unwrap();
        // Rows whose spare capacity held other bytes.
        let mut parity = vec![vec![0xDDu8; 100], vec![0u8; 100]];
        parity.iter_mut().for_each(Vec::clear);
        rs.encode_into(&refs, &mut parity).unwrap();
        // Validation errors surface before any buffer is touched.
        assert!(rs.encode_into(&refs[..2], &mut parity).is_err());
        assert_eq!(parity, expect);
    }

    #[test]
    fn rate_and_overhead() {
        let rs = ReedSolomon::new(3, 4).unwrap();
        assert_eq!(rs.data_fragments(), 3);
        assert_eq!(rs.total_fragments(), 4);
        assert_eq!(rs.parity_fragments(), 1);
        assert!((rs.rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn constant_data_encodes_to_constant_fragments_vandermonde() {
        // The normalized Vandermonde rows are Lagrange basis evaluations,
        // which sum to 1 — so all-equal data shards must yield all-equal
        // fragments (the interpolating polynomial is constant).
        let rs = ReedSolomon::with_kind(3, 5, MatrixKind::Vandermonde).unwrap();
        let d = vec![0x5Au8; 16];
        let frags = rs.encode_fragments(vec![d.clone(), d.clone(), d.clone()]).unwrap();
        for f in &frags {
            assert_eq!(f.data, d, "fragment {} not constant", f.index);
        }
    }
}
