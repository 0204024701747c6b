//! Dense matrices over GF(2^8).
//!
//! These are small (`n <= 255` per side) matrices used to build and invert
//! encoding matrices, so a simple row-major `Vec<u8>` with Gaussian
//! elimination is the right tool — no blocking or pivot heuristics needed
//! beyond partial pivoting for singularity detection.

use crate::gf256::{combine_into_at, Gf256, Kernel, FUSED_BLOCK};
use crate::{GfecError, Result};

/// A row-major dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Builds a matrix from nested slices (rows of equal length).
    ///
    /// # Panics
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<u8>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Vandermonde matrix: `A[i][j] = (g^i)^j` — any `cols` rows are
    /// linearly independent because the evaluation points `g^i` are
    /// distinct field elements.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 255, "GF(2^8) Vandermonde limited to 255 rows");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = Gf256::exp(i);
            for j in 0..cols {
                m.set(i, j, x.pow(j as u32));
            }
        }
        m
    }

    /// Cauchy matrix `A[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + cols`, `y_j = j` — every square submatrix is invertible,
    /// which makes Cauchy the safer construction for parity rows.
    pub fn cauchy(rows: usize, cols: usize) -> Self {
        assert!(rows + cols <= 256, "Cauchy construction needs rows+cols <= 256 distinct elements");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let xi = Gf256((i + cols) as u8);
            for j in 0..cols {
                let yj = Gf256(j as u8);
                m.set(i, j, (xi + yj).inv());
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf256 {
        Gf256(self.data[r * self.cols + c])
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Gf256) {
        self.data[r * self.cols + c] = v.0;
    }

    /// Borrow one row as a byte slice.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix dimension mismatch in mul");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.0 == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * rhs.get(k, j));
                }
            }
        }
        out
    }

    /// Returns a new matrix made of the given rows of `self`, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (oi, &ri) in indices.iter().enumerate() {
            assert!(ri < self.rows, "row index out of range");
            let dst_start = oi * self.cols;
            out.data[dst_start..dst_start + self.cols].copy_from_slice(self.row(ri));
        }
        out
    }

    /// Gauss-Jordan inversion. Returns `GfecError::SingularMatrix` if the
    /// matrix has no inverse.
    pub fn invert(&self) -> Result<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let mut inv = Matrix::zero(self.rows, self.cols);
        invert_into(&mut self.data.clone(), &mut inv.data, self.rows)?;
        Ok(inv)
    }

    /// Multiplies this matrix by a set of equal-length data shards:
    /// `out[i] = sum_j A[i][j] * shards[j]`, the core codeword transform.
    ///
    /// # Panics
    /// Panics if `shards.len() != cols` or shard lengths differ.
    pub fn mul_shards(&self, shards: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = shards.first().map_or(0, |s| s.len());
        let mut out: Vec<Vec<u8>> = (0..self.rows).map(|_| Vec::with_capacity(len)).collect();
        self.mul_shards_into(shards, &mut out);
        out
    }

    /// Cache-blocked `mul_shards` appended to caller-provided rows: row
    /// `i` grows by the shard length, written straight into its spare
    /// capacity (no zero fill), so nothing payload-sized is allocated when
    /// the rows already have the room.
    ///
    /// The sweep is blocked along the byte axis in [`FUSED_BLOCK`]
    /// columns; within a column every output row is one lockstep
    /// combination over all the shards, so the first row streams the
    /// column's data in from memory, the others find it in cache, and
    /// each row byte is stored once — memory traffic is one pass over the
    /// data plus one write pass per output row.
    ///
    /// # Panics
    /// Panics if `shards.len() != cols`, `out.len() != rows`, or the
    /// shards differ in length.
    pub fn mul_shards_into(&self, shards: &[&[u8]], out: &mut [Vec<u8>]) {
        assert_eq!(shards.len(), self.cols, "shard count must equal matrix cols");
        assert_eq!(out.len(), self.rows, "output row count must equal matrix rows");
        let len = shards.first().map_or(0, |s| s.len());
        assert!(shards.iter().all(|s| s.len() == len), "ragged shards");
        let kernel = Kernel::detect();
        let mut terms: Vec<(Gf256, &[u8])> = Vec::with_capacity(self.cols);
        for start in (0..len).step_by(FUSED_BLOCK) {
            let width = (len - start).min(FUSED_BLOCK);
            for (i, row) in out.iter_mut().enumerate() {
                terms.clear();
                terms.extend(shards.iter().enumerate().map(|(j, &s)| (self.get(i, j), s)));
                combine_into_at(kernel, row, width, start, &terms);
            }
        }
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:02x} ", self.get(r, c).0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Gauss-Jordan inversion of the row-major `n x n` matrix `a`, which the
/// elimination consumes, into `inv` (`n * n` bytes, overwritten) — the
/// one inversion behind [`Matrix::invert`] and the decoder's plan, which
/// keeps both on the stack. `GfecError::SingularMatrix` if `a` has no
/// inverse.
pub(crate) fn invert_into(a: &mut [u8], inv: &mut [u8], n: usize) -> Result<()> {
    assert!(a.len() == n * n && inv.len() == n * n, "square matrices of side {n}");
    for (i, v) in inv.iter_mut().enumerate() {
        *v = u8::from(i / n == i % n);
    }
    let at = |r: usize, c: usize| r * n + c;
    for col in 0..n {
        // Partial pivot: find a nonzero entry at or below the diagonal.
        let pivot = (col..n).find(|&r| a[at(r, col)] != 0).ok_or(GfecError::SingularMatrix)?;
        for c in 0..n {
            a.swap(at(pivot, c), at(col, c));
            inv.swap(at(pivot, c), at(col, c));
        }
        // Scale the pivot row to make the diagonal 1.
        let p = Gf256(a[at(col, col)]).inv();
        for c in 0..n {
            a[at(col, c)] = (Gf256(a[at(col, c)]) * p).0;
            inv[at(col, c)] = (Gf256(inv[at(col, c)]) * p).0;
        }
        // Eliminate the column everywhere else: `row[r] += f * row[col]`.
        for r in (0..n).filter(|&r| r != col) {
            let f = Gf256(a[at(r, col)]);
            if f.0 == 0 {
                continue;
            }
            for c in 0..n {
                a[at(r, c)] ^= (f * Gf256(a[at(col, c)])).0;
                inv[at(r, c)] ^= (f * Gf256(inv[at(col, c)])).0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn vandermonde_square_inverts() {
        for n in 1..=8 {
            let v = Matrix::vandermonde(n, n);
            let inv = v.invert().expect("vandermonde must invert");
            assert_eq!(v.mul(&inv), Matrix::identity(n));
            assert_eq!(inv.mul(&v), Matrix::identity(n));
        }
    }

    #[test]
    fn cauchy_every_square_submatrix_inverts() {
        // Take a 4x6 Cauchy and check all C(4..) square row/col picks of
        // small sizes invert — the defining property of Cauchy matrices.
        let c = Matrix::cauchy(4, 6);
        for r1 in 0..4 {
            for r2 in (r1 + 1)..4 {
                for c1 in 0..6 {
                    for c2 in (c1 + 1)..6 {
                        let sub = Matrix::from_rows(&[
                            vec![c.get(r1, c1).0, c.get(r1, c2).0],
                            vec![c.get(r2, c1).0, c.get(r2, c2).0],
                        ]);
                        sub.invert().expect("cauchy submatrix must invert");
                    }
                }
            }
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let m = Matrix::from_rows(&[vec![1, 2], vec![1, 2]]);
        assert_eq!(m.invert().unwrap_err(), GfecError::SingularMatrix);
        let z = Matrix::zero(3, 3);
        assert_eq!(z.invert().unwrap_err(), GfecError::SingularMatrix);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let v = Matrix::vandermonde(5, 3);
        let s = v.select_rows(&[4, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
        assert_eq!(s.row(2), v.row(2));
    }

    #[test]
    fn mul_shards_matches_elementwise_mul() {
        let a = Matrix::cauchy(2, 3);
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let out = a.mul_shards(&refs);
        for (i, row) in out.iter().enumerate() {
            for (b, byte) in row.iter().enumerate() {
                let mut expect = Gf256::ZERO;
                for (j, shard) in shards.iter().enumerate() {
                    expect = expect + a.get(i, j) * Gf256(shard[b]);
                }
                assert_eq!(*byte, expect.0);
            }
        }
    }

    #[test]
    fn mul_shards_into_overwrites_dirty_rows() {
        let a = Matrix::cauchy(3, 4);
        let shards: Vec<Vec<u8>> = (0..4u8).map(|j| vec![j * 17 + 1; 100]).collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let expect = a.mul_shards(&refs);
        // Rows whose spare capacity held garbage must still come out
        // identical — they are never pre-zeroed.
        let mut out = vec![vec![0xEEu8; 100], vec![0x55u8; 100], vec![1u8; 100]];
        out.iter_mut().for_each(Vec::clear);
        a.mul_shards_into(&refs, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn display_renders_hex_grid() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert!(s.contains("01 00"));
        assert!(s.contains("00 01"));
    }
}
