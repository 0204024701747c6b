//! The borrowed decode core: the one place fragments become an object
//! (or one rebuilt fragment) again.
//!
//! Fragments come in as `(index, bytes)` views (`&[u8]`, or anything
//! else that lends its bytes, such as the `Bytes` a provider returned):
//! whatever buffer they were fetched into is borrowed, never converted.
//! The result goes out in a single `Vec` that is written exactly once.
//! Fragments that are present are copied straight to their offset; only
//! *absent* ones cost arithmetic, and that arithmetic is the same for
//! every code: an absent fragment is a fixed linear combination of any
//! `m` present ones, with coefficients read off the inverse of those
//! fragments' generator rows. For RAID5 every coefficient is 1 and the
//! kernel degenerates to the plain XOR of the survivors; a healthy read
//! does no arithmetic at all.
//!
//! [`decode_object`] walks the stripe in [`FUSED_BLOCK`]-wide columns. In
//! each it first copies every present data shard's block into place,
//! then combines every absent shard's block from the same column of the
//! basis fragments — which the copies have just pulled into cache — all
//! survivors walked in lockstep. So each fetched byte is read from memory
//! once and each output byte stored once, into the buffer's spare
//! capacity: no zero fill, no second visit (DESIGN.md §8.1).

use crate::gf256::{combine_into, combine_window, Gf256, Kernel, Term, FUSED_BLOCK};
use crate::inline::{InlineVec, INLINE};
use crate::matrix::invert_into;
use crate::stripe::FragmentLayout;
use crate::{ErasureCode, GfecError, Result};

/// A square matrix over the basis, row-major: `INLINE x INLINE` in place.
type Square = InlineVec<u8, { INLINE * INLINE }>;

/// A validated set of borrowed fragments of one stripe, ready to produce
/// any fragment of that stripe: the decode plan for the `m` fragments
/// that arrived. It lives on the stack of the read that uses it — its
/// tables are inline up to [`INLINE`] fragments — and borrows the code's
/// parity rows, so building one allocates nothing.
pub(crate) struct Decoder<'a, C: ErasureCode + ?Sized> {
    code: &'a C,
    m: usize,
    n: usize,
    by_index: InlineVec<Option<&'a [u8]>, INLINE>,
    /// The `m` present fragments every absent one is computed from:
    /// lowest indices first, so data before parity.
    basis: InlineVec<usize, INLINE>,
    /// Inverse of the basis fragments' generator rows; empty when the
    /// basis is the data fragments themselves (the identity).
    inverse: Square,
}

impl<'a, C: ErasureCode + ?Sized> Decoder<'a, C> {
    /// Validates a decode input: at least `m` fragments, indices in range
    /// and exactly once, every payload `shard_len` bytes.
    pub(crate) fn new<B: AsRef<[u8]>>(
        code: &'a C,
        shard_len: usize,
        available: &'a [(usize, B)],
    ) -> Result<Self> {
        let (m, n) = (code.data_fragments(), code.total_fragments());
        if available.len() < m {
            return Err(GfecError::NotEnoughFragments { have: available.len(), need: m });
        }
        let mut by_index: InlineVec<Option<&'a [u8]>, INLINE> =
            std::iter::repeat_n(None, n).collect();
        for (index, bytes) in available {
            let (index, bytes) = (*index, bytes.as_ref());
            if index >= n {
                return Err(GfecError::BadFragmentIndex { index, n });
            }
            if by_index[index].is_some() {
                return Err(GfecError::DuplicateFragment { index });
            }
            if bytes.len() != shard_len {
                return Err(GfecError::FragmentSizeMismatch {
                    expected: shard_len,
                    got: bytes.len(),
                });
            }
            by_index[index] = Some(bytes);
        }
        let basis = (0..n).filter(|&i| by_index[i].is_some()).take(m).collect();
        let mut decoder = Decoder { code, m, n, by_index, basis, inverse: Square::new() };
        if decoder.basis.iter().copied().ne(0..m) {
            let mut rows: Square = decoder
                .basis
                .iter()
                .flat_map(|&i| (0..m).map(move |col| (i, col)))
                .map(|(i, col)| decoder.generator(i, col).0)
                .collect();
            decoder.inverse = std::iter::repeat_n(0, m * m).collect();
            invert_into(&mut rows, &mut decoder.inverse, m)?;
        }
        Ok(decoder)
    }

    /// Entry `col` of fragment `index`'s generator row.
    fn generator(&self, index: usize, col: usize) -> Gf256 {
        if index < self.m {
            Gf256(u8::from(index == col))
        } else {
            self.code.parity_row(index - self.m)[col]
        }
    }

    /// The nonzero `(coefficient, source)` terms whose GF(2^8) sum is the
    /// absent fragment `index`: its generator row pushed through the
    /// inverse of the basis rows.
    fn terms(&self, index: usize) -> impl Iterator<Item = (Gf256, &'a [u8])> + '_ {
        self.basis
            .iter()
            .enumerate()
            .map(move |(j, &i)| {
                let c = if self.inverse.is_empty() {
                    self.generator(index, j)
                } else {
                    (0..self.m).fold(Gf256::ZERO, |acc, k| {
                        acc + self.generator(index, k) * Gf256(self.inverse[k * self.m + j])
                    })
                };
                (c, self.by_index[i].expect("basis fragments are present"))
            })
            .filter(|(c, _)| c.0 != 0)
    }

    /// Appends the first `take` bytes of fragment `index` to `out`: one
    /// copy when the fragment is present, otherwise its linear
    /// combination of the basis fragments, computed where it lands.
    pub(crate) fn append(&self, index: usize, take: usize, out: &mut Vec<u8>) {
        match self.by_index[index] {
            Some(src) => out.extend_from_slice(&src[..take]),
            None => {
                let terms: InlineVec<_, INLINE> = self.terms(index).collect();
                combine_into(out, take, &terms);
            }
        }
    }
}

/// One term of an absent data shard's combination, tagged with the shard
/// it makes, so that every absent shard's terms share one list.
struct Part<'a> {
    shard: usize,
    coefficient: Gf256,
    source: &'a [u8],
}

impl Term for Part<'_> {
    fn coefficient(&self) -> Gf256 {
        self.coefficient
    }
    fn source(&self) -> &[u8] {
        self.source
    }
}

/// Decodes an object from any `m` of its fragments: the data shards
/// concatenated into one buffer of `layout.object_len` bytes (the tail
/// shard trimmed, no padded intermediate). The degraded read is implicit
/// — an absent data shard is computed in place from the survivors.
///
/// ```
/// use hyrd_gfec::{decode_object, Raid5, StripePlanner};
///
/// let planner = StripePlanner::new(3, 4).unwrap();
/// let code = Raid5::new(3).unwrap();
/// let object = vec![7u8; 10_000];
/// let (layout, fragments) = planner.split_encode(&code, &object).unwrap();
///
/// // Any single fragment may vanish (one cloud outage).
/// let survivors: Vec<(usize, &[u8])> = fragments
///     .iter()
///     .enumerate()
///     .filter(|(i, _)| *i != 2)
///     .map(|(i, f)| (i, f.as_slice()))
///     .collect();
/// assert_eq!(decode_object(&code, &layout, &survivors).unwrap(), object);
/// ```
pub fn decode_object<C: ErasureCode + ?Sized, B: AsRef<[u8]>>(
    code: &C,
    layout: &FragmentLayout,
    available: &[(usize, B)],
) -> Result<Vec<u8>> {
    decode_object_with(Kernel::detect(), code, layout, available)
}

/// [`decode_object`] on a chosen kernel — for the bit-identity tests,
/// which must reach every implementation on one host.
pub fn decode_object_with<C: ErasureCode + ?Sized, B: AsRef<[u8]>>(
    kernel: Kernel,
    code: &C,
    layout: &FragmentLayout,
    available: &[(usize, B)],
) -> Result<Vec<u8>> {
    let decoder = Decoder::new(code, layout.shard_len, available)?;
    let (m, shard_len) = (decoder.m, layout.shard_len);
    // The fragments bound the allocation, whatever the layout claims.
    let len = layout.object_len.min(m * shard_len);
    let absent = (0..m).filter(|&shard| decoder.by_index[shard].is_none());
    // Every absent shard's terms in one list, shard by shard: at most
    // `m` for each of at most `n - m` absent shards, so `n² / 4` in all,
    // which is inline up to `INLINE` fragments.
    let mut parts: InlineVec<Part, { INLINE * INLINE / 4 }> = InlineVec::new();
    for shard in absent.clone() {
        parts.extend(decoder.terms(shard).map(|(coefficient, source)| Part {
            shard,
            coefficient,
            source,
        }));
    }
    let mut object = Vec::with_capacity(len);
    let out = &mut object.spare_capacity_mut()[..len];
    for column in (0..len.min(shard_len)).step_by(FUSED_BLOCK) {
        // Shard `s`'s block of this column, clipped to the object.
        let block = |s: usize| {
            let start = (s * shard_len + column).min(len);
            start..(start + FUSED_BLOCK).min((s + 1) * shard_len).min(len)
        };
        for (s, fragment) in decoder.by_index[..m].iter().enumerate() {
            if let Some(fragment) = fragment {
                let dst = &mut out[block(s)];
                dst.write_copy_of_slice(&fragment[column..column + dst.len()]);
            }
        }
        let mut rest = &parts[..];
        for s in absent.clone() {
            let (run, tail) = rest.split_at(rest.iter().take_while(|p| p.shard == s).count());
            combine_window(kernel, &mut out[block(s)], column, run);
            rest = tail;
        }
    }
    // SAFETY: every byte of every window was stored — a present shard's
    // by `write_copy_of_slice`, an absent one's by `combine_window` (an
    // empty run stores zeros) — and the windows tile `0..len`: data shard
    // `s` owns `s * shard_len..(s + 1) * shard_len` clipped to `len`,
    // never more than `min(len, shard_len)` bytes, which the columns
    // cover, and every data shard got its window of every column.
    unsafe { object.set_len(len) };
    Ok(object)
}

/// Rebuilds one whole fragment — data or parity — from any `m` others:
/// the per-fragment unit of outage recovery and scrub repair.
pub fn rebuild_fragment<C: ErasureCode + ?Sized, B: AsRef<[u8]>>(
    code: &C,
    shard_len: usize,
    available: &[(usize, B)],
    target: usize,
) -> Result<Vec<u8>> {
    let decoder = Decoder::new(code, shard_len, available)?;
    if target >= decoder.n {
        return Err(GfecError::BadFragmentIndex { index: target, n: decoder.n });
    }
    let mut fragment = Vec::with_capacity(shard_len);
    decoder.append(target, shard_len, &mut fragment);
    Ok(fragment)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gf256::FUSED_BLOCK;
    use crate::raid5::Raid5;
    use crate::raid6::Raid6;
    use crate::rs::ReedSolomon;
    use crate::stripe::StripePlanner;

    /// Borrowed views of every fragment except the `lost` ones.
    pub(crate) fn without<'a>(fragments: &'a [Vec<u8>], lost: &[usize]) -> Vec<(usize, &'a [u8])> {
        fragments
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(i, f)| (i, f.as_slice()))
            .collect()
    }

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31) % 251) as u8).collect()
    }

    #[test]
    fn every_single_loss_decodes_across_block_boundaries() {
        let planner = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let obj = object(48 * FUSED_BLOCK + 777);
        let (layout, frags) = planner.split_encode(&code, &obj).unwrap();
        assert!(layout.shard_len > 16 * FUSED_BLOCK, "the lost shard spans many blocks");
        for lost in 0..4 {
            let back = decode_object(&code, &layout, &without(&frags, &[lost])).unwrap();
            assert_eq!(back, obj, "lost={lost}");
        }
    }

    #[test]
    fn every_double_loss_decodes_and_rebuilds_for_two_parity_codes() {
        let planner = StripePlanner::new(4, 6).unwrap();
        let obj = object(5_555);
        let codes: [&dyn ErasureCode; 2] =
            [&Raid6::new(4).unwrap(), &ReedSolomon::new(4, 6).unwrap()];
        for code in codes {
            let (layout, frags) = planner.split_encode(code, &obj).unwrap();
            for a in 0..6 {
                for b in a..6 {
                    let avail = without(&frags, &[a, b]);
                    assert_eq!(decode_object(code, &layout, &avail).unwrap(), obj, "({a},{b})");
                    for lost in [a, b] {
                        let rebuilt = rebuild_fragment(code, layout.shard_len, &avail, lost);
                        assert_eq!(rebuilt.unwrap(), frags[lost], "({a},{b}) -> {lost}");
                    }
                }
            }
        }
    }

    #[test]
    fn output_is_trimmed_to_the_object_and_allocated_once() {
        let planner = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        // One byte: shards 1 and 2 are pure padding and never touched.
        let (layout, frags) = planner.split_encode(&code, &[0xA5]).unwrap();
        let back = decode_object(&code, &layout, &without(&frags, &[0])).unwrap();
        assert_eq!(back, vec![0xA5]);
        assert_eq!(back.capacity(), 1);
        // A layout that claims more than the fragments hold is bounded by them.
        let greedy = FragmentLayout { object_len: usize::MAX, ..layout };
        let all = decode_object(&code, &greedy, &without(&frags, &[3])).unwrap();
        assert_eq!(all.len(), 3 * layout.shard_len);
    }

    #[test]
    fn decode_input_validation_names_the_defect() {
        let planner = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let (layout, frags) = planner.split_encode(&code, &object(1000)).unwrap();
        let f = |i: usize| (i, frags[i].as_slice());
        let decode = |avail: &[(usize, &[u8])]| decode_object(&code, &layout, avail).unwrap_err();

        // Too few: more than n - m erasures.
        assert_eq!(decode(&[f(0), f(3)]), GfecError::NotEnoughFragments { have: 2, need: 3 });
        assert_eq!(decode(&[f(0), f(0), f(1)]), GfecError::DuplicateFragment { index: 0 });
        assert_eq!(
            decode(&[f(0), f(1), (9, frags[2].as_slice())]),
            GfecError::BadFragmentIndex { index: 9, n: 4 }
        );
        assert_eq!(
            decode(&[f(0), f(1), (2, &frags[2][..8])]),
            GfecError::FragmentSizeMismatch { expected: layout.shard_len, got: 8 }
        );
        assert_eq!(
            rebuild_fragment(&code, layout.shard_len, &[f(0), f(1), f(2)], 4).unwrap_err(),
            GfecError::BadFragmentIndex { index: 4, n: 4 }
        );
    }
}
