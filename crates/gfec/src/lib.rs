//! # hyrd-gfec — erasure-coding substrate for HyRD
//!
//! Everything the HyRD Cloud-of-Clouds layer needs to turn an object into
//! redundant fragments and back, built from scratch:
//!
//! * [`gf256`] — arithmetic over GF(2^8) with compile-time log/exp tables.
//! * [`matrix`] — dense matrices over GF(2^8): multiplication, Gaussian
//!   inversion, Vandermonde and Cauchy constructions.
//! * [`rs`] — systematic Reed-Solomon codes `RS(m, n)`: any `m` of the `n`
//!   fragments reconstruct the object.
//! * [`raid5`] — the XOR-parity special case `RS(m, m+1)` the paper uses,
//!   with a fast path and read-modify-write partial updates.
//! * [`raid6`] — P+Q double parity (extension beyond the paper's RAID5).
//! * [`stripe`] — the fragment planner: how an object of arbitrary size is
//!   padded, split into stripes and mapped onto provider fragments.
//! * [`update`] — partial-update planning: which fragments a byte-range
//!   update must read and rewrite (the write-amplification the paper
//!   measures for RACS).
//! * [`decode`] — the borrowed decode core: fragments come in as
//!   `(index, &[u8])` views and the object (or one rebuilt fragment)
//!   goes out in a single buffer written once.
//! * [`parallel`] — owned-shard adapters over the encode and decode cores.
//! * [`inline`] — the list a plan keeps on the stack, one entry per
//!   fragment, spilling to the heap only for codes wider than a fleet.
//!
//! The code-rate terminology follows the paper (§II-B): a code that splits
//! an object into `m` data fragments and stores `n` total fragments has
//! rate `r = m/n` and space overhead `1/r`.

pub mod decode;
pub mod gf256;
pub mod inline;
pub mod matrix;
pub mod parallel;
pub mod raid5;
pub mod raid6;
pub mod rs;
pub mod stripe;
pub mod update;

pub use decode::{decode_object, decode_object_with, rebuild_fragment};
pub use gf256::Gf256;
pub use inline::{InlineVec, INLINE};
pub use matrix::Matrix;
pub use raid5::Raid5;
pub use raid6::Raid6;
pub use rs::ReedSolomon;
pub use stripe::{FragmentLayout, StripePlanner};

/// Errors produced by the erasure-coding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfecError {
    /// The requested code parameters are impossible (`m == 0`, `n <= m`,
    /// or `n > 255` which GF(2^8) cannot index).
    InvalidParams { m: usize, n: usize },
    /// Fewer than `m` fragments were supplied to a decode.
    NotEnoughFragments { have: usize, need: usize },
    /// Fragments passed to a single decode had differing lengths.
    FragmentSizeMismatch { expected: usize, got: usize },
    /// A fragment index was out of range for the code.
    BadFragmentIndex { index: usize, n: usize },
    /// The same fragment index appeared twice in a decode input.
    DuplicateFragment { index: usize },
    /// A matrix that must be invertible was singular. With Vandermonde /
    /// Cauchy constructions this indicates corrupted fragment indices.
    SingularMatrix,
    /// An update touched a byte range outside the encoded object.
    RangeOutOfBounds { offset: usize, len: usize, object: usize },
}

impl std::fmt::Display for GfecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GfecError::InvalidParams { m, n } => {
                write!(f, "invalid code parameters m={m}, n={n} (need 0 < m < n <= 255)")
            }
            GfecError::NotEnoughFragments { have, need } => {
                write!(f, "not enough fragments to decode: have {have}, need {need}")
            }
            GfecError::FragmentSizeMismatch { expected, got } => {
                write!(f, "fragment size mismatch: expected {expected} bytes, got {got}")
            }
            GfecError::BadFragmentIndex { index, n } => {
                write!(f, "fragment index {index} out of range for n={n}")
            }
            GfecError::DuplicateFragment { index } => {
                write!(f, "fragment index {index} supplied more than once")
            }
            GfecError::SingularMatrix => write!(f, "decode matrix is singular"),
            GfecError::RangeOutOfBounds { offset, len, object } => {
                write!(f, "update range {offset}+{len} outside object of {object} bytes")
            }
        }
    }
}

impl std::error::Error for GfecError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GfecError>;

/// A single erasure-coded fragment: its index within the code word plus
/// its bytes. Fragments are what HyRD ships to individual cloud providers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Position in the code word: `0..m` are data fragments (systematic),
    /// `m..n` are parity fragments.
    pub index: usize,
    /// Fragment payload. All fragments of one stripe have equal length.
    pub data: Vec<u8>,
}

impl Fragment {
    /// Creates a fragment.
    pub fn new(index: usize, data: Vec<u8>) -> Self {
        Fragment { index, data }
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Validates one `encode_into` call of `code`: exactly `m` equal-length
/// shards and `n - m` parity rows. Returns the shard length.
///
/// # Panics
/// Panics if the number of parity rows is not `n - m` — a caller bug,
/// not an input condition.
pub(crate) fn check_encode_shapes<C: ErasureCode + ?Sized>(
    code: &C,
    shards: &[&[u8]],
    parity: &[Vec<u8>],
) -> Result<usize> {
    let m = code.data_fragments();
    if shards.len() != m {
        return Err(GfecError::NotEnoughFragments { have: shards.len(), need: m });
    }
    assert_eq!(parity.len(), code.parity_fragments(), "parity row count must equal n - m");
    let len = shards[0].len();
    if let Some(got) = shards.iter().map(|s| s.len()).find(|&l| l != len) {
        return Err(GfecError::FragmentSizeMismatch { expected: len, got });
    }
    Ok(len)
}

/// Common interface over the concrete codes (RS, RAID5, RAID6) so the
/// dispatcher can switch the large-file tier's code (ablation §4.4 in
/// DESIGN.md) without caring which one is active.
pub trait ErasureCode: Send + Sync {
    /// Number of data fragments `m`.
    fn data_fragments(&self) -> usize;
    /// Total number of fragments `n`.
    fn total_fragments(&self) -> usize;
    /// Appends the `n - m` parity rows of `m` equal-length data shards to
    /// the caller's `parity` buffers, one shard length each — the entry
    /// point every encode goes through. Each row is written straight into
    /// its buffer's spare capacity: no zero fill, every parity byte stored
    /// once, and nothing payload-sized allocated when the buffers already
    /// have the room. On an error no buffer has changed.
    fn encode_into(&self, shards: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<()>;

    /// Encodes equal-length data shards into `n - m` freshly allocated
    /// parity shards, each exactly the shard length. `shards` must
    /// contain exactly `m` equal-length slices.
    fn encode(&self, shards: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
        let len = shards.first().map_or(0, |s| s.len());
        let mut parity: Vec<Vec<u8>> =
            (0..self.parity_fragments()).map(|_| Vec::with_capacity(len)).collect();
        self.encode_into(shards, &mut parity)?;
        Ok(parity)
    }

    /// Parity row `j < n - m`, lent: entry `i` is the factor applied to
    /// data shard `i` when computing parity shard `m + j`
    /// (`parity_j[pos] = sum_i row_j[i] * data_i[pos]`). Each code builds
    /// its rows once — RAID5 and RAID6 at compile time, Reed-Solomon at
    /// construction — so asking costs nothing. Because every code here is
    /// linear and positionwise, these coefficients also drive
    /// *range-granular* parity updates:
    /// `P_j'[pos] = P_j[pos] + c_ji * (old_i[pos] + new_i[pos])`.
    ///
    /// # Panics
    /// Panics if `j >= n - m`.
    fn parity_row(&self, j: usize) -> &[gf256::Gf256];

    /// Every parity row, copied out: `coeffs[j]` is [`Self::parity_row`]`(j)`.
    fn parity_coefficients(&self) -> Vec<Vec<gf256::Gf256>> {
        (0..self.parity_fragments()).map(|j| self.parity_row(j).to_vec()).collect()
    }

    /// Number of parity fragments `n - m`.
    fn parity_fragments(&self) -> usize {
        self.total_fragments() - self.data_fragments()
    }

    /// Code rate `r = m / n` (paper §II-B); storage overhead is `1/r`.
    fn rate(&self) -> f64 {
        self.data_fragments() as f64 / self.total_fragments() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GfecError::InvalidParams { m: 0, n: 4 };
        assert!(e.to_string().contains("m=0"));
        let e = GfecError::NotEnoughFragments { have: 2, need: 3 };
        assert!(e.to_string().contains("have 2"));
        let e = GfecError::RangeOutOfBounds { offset: 10, len: 5, object: 12 };
        assert!(e.to_string().contains("10+5"));
    }

    #[test]
    fn fragment_basics() {
        let f = Fragment::new(3, vec![1, 2, 3]);
        assert_eq!(f.index, 3);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert!(Fragment::new(0, vec![]).is_empty());
    }
}
