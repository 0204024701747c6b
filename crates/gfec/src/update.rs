//! Partial-update planning: the read-modify-write cost model behind the
//! paper's core motivation.
//!
//! §I of the paper: "a small update in the RACS system will incur a total
//! of 4 accesses, including traffic of 2 reads and 2 writes over the
//! network." This module computes exactly which fragments a byte-range
//! update must read and rewrite under a single-parity (RAID5) layout, and
//! applies the update given those fragments — so both the simulator and
//! the real dispatcher share one authoritative amplification model.

use crate::gf256::{combine_acc, Gf256};
use crate::stripe::FragmentLayout;
use crate::{GfecError, Result};

/// The I/O plan for one byte-range update of an erasure-coded object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePlan {
    /// Data-shard indices whose old contents must be read.
    pub reads: Vec<usize>,
    /// Parity fragment indices that must be read (old parity for RMW).
    pub parity_reads: Vec<usize>,
    /// Data-shard indices that will be rewritten.
    pub writes: Vec<usize>,
    /// Parity fragment indices that will be rewritten.
    pub parity_writes: Vec<usize>,
    /// The byte sub-ranges of each touched shard: `(shard, start, len)`.
    pub touched: Vec<(usize, usize, usize)>,
}

impl UpdatePlan {
    /// Total network accesses (reads + writes) the update costs — the
    /// write-amplification figure the paper quotes.
    pub fn total_accesses(&self) -> usize {
        self.reads.len() + self.parity_reads.len() + self.writes.len() + self.parity_writes.len()
    }

    /// Read amplification: bytes that must be fetched per byte updated.
    pub fn read_ops(&self) -> usize {
        self.reads.len() + self.parity_reads.len()
    }

    /// Number of write ops issued.
    pub fn write_ops(&self) -> usize {
        self.writes.len() + self.parity_writes.len()
    }
}

/// Plans a RAID5-style read-modify-write for updating
/// `new_data.len()` bytes at `offset` in an object with `layout`.
///
/// If the update covers *all* data shards the plan degenerates to a full
/// re-encode (no reads needed). Otherwise every touched shard and the
/// parity must be read and rewritten.
pub fn plan_update(layout: &FragmentLayout, offset: usize, len: usize) -> Result<UpdatePlan> {
    let touched = layout.shards_for_range(offset, len)?;
    let shards: Vec<usize> = touched.iter().map(|&(s, _, _)| s).collect();
    let parity: Vec<usize> = (layout.m..layout.n).collect();

    let full_rewrite = shards.len() == layout.m
        && touched.iter().all(|&(_, start, l)| start == 0 && l == layout.shard_len);

    if full_rewrite {
        Ok(UpdatePlan {
            reads: Vec::new(),
            parity_reads: Vec::new(),
            writes: shards,
            parity_writes: parity,
            touched,
        })
    } else {
        Ok(UpdatePlan {
            reads: shards.clone(),
            parity_reads: parity.clone(),
            writes: shards,
            parity_writes: parity,
            touched,
        })
    }
}

/// The parity byte-window `[lo, hi)` a set of touched segments dirties.
/// Every touched data range XORs into the parity at the same in-shard
/// offsets, so the parity I/O covers the union of the touched ranges.
pub fn parity_window(touched: &[(usize, usize, usize)]) -> (usize, usize) {
    let lo = touched.iter().map(|&(_, start, _)| start).min().unwrap_or(0);
    let hi = touched.iter().map(|&(_, start, len)| start + len).max().unwrap_or(0);
    (lo, hi)
}

/// Range-granular read-modify-write for any linear code: given the *old*
/// bytes of each touched data-shard segment (in `touched` order), every
/// parity shard's old bytes over [`parity_window`] and the new bytes,
/// produces the new data segments and the new parity windows — exactly
/// what gets `put_range`'d back. Transfers only the touched bytes instead
/// of whole fragments, matching object stores' HTTP Range semantics.
///
/// Parity `j` moves by its [`crate::ErasureCode::parity_coefficients`]
/// row: `P_j'[pos] = P_j[pos] + c_js * (old_s[pos] + new_s[pos])`. The
/// old segments and windows are only read, so fetched buffers can be
/// passed as they are (`Bytes`, `Vec<u8>`, slices).
// The pair is (new data segments, new parity windows), each one buffer per
// touched shard; an alias would rename it without saying more.
#[allow(clippy::type_complexity)]
pub fn apply_ranged_update_multi<S: AsRef<[u8]>, P: AsRef<[u8]>>(
    touched: &[(usize, usize, usize)],
    old_segments: &[S],
    old_parity_windows: &[P],
    new_bytes: &[u8],
    coeffs: &[Vec<Gf256>],
) -> Result<(Vec<Vec<u8>>, Vec<Vec<u8>>)> {
    if old_segments.len() != touched.len() {
        return Err(GfecError::NotEnoughFragments {
            have: old_segments.len(),
            need: touched.len(),
        });
    }
    if old_parity_windows.len() != coeffs.len() {
        return Err(GfecError::NotEnoughFragments {
            have: old_parity_windows.len(),
            need: coeffs.len(),
        });
    }
    let (lo, hi) = parity_window(touched);
    for w in old_parity_windows {
        if w.as_ref().len() != hi - lo {
            return Err(GfecError::FragmentSizeMismatch {
                expected: hi - lo,
                got: w.as_ref().len(),
            });
        }
    }
    let mut parities: Vec<Vec<u8>> =
        old_parity_windows.iter().map(|w| w.as_ref().to_vec()).collect();
    let mut segments = Vec::with_capacity(touched.len());
    let mut consumed = 0usize;
    for (&(shard, start, len), old_seg) in touched.iter().zip(old_segments) {
        let old_seg = old_seg.as_ref();
        if old_seg.len() != len {
            return Err(GfecError::FragmentSizeMismatch { expected: len, got: old_seg.len() });
        }
        let new_seg = &new_bytes[consumed..consumed + len];
        consumed += len;
        // c * (old + new) = c * old + c * new: both terms in one
        // accumulate pass per parity, no scratch buffer for the difference.
        for (parity, row) in parities.iter_mut().zip(coeffs) {
            let c = row
                .get(shard)
                .copied()
                .ok_or(GfecError::BadFragmentIndex { index: shard, n: row.len() })?;
            let w = &mut parity[start - lo..start - lo + len];
            combine_acc(w, &[(c, old_seg), (c, new_seg)]);
        }
        segments.push(new_seg.to_vec());
    }
    debug_assert_eq!(consumed, new_bytes.len());
    Ok((segments, parities))
}

/// Single-parity (RAID5) form of [`apply_ranged_update_multi`]: every
/// coefficient is 1, so the identity is `P' = P ^ D_old ^ D_new` over the
/// touched ranges.
pub fn apply_ranged_update(
    touched: &[(usize, usize, usize)],
    old_segments: &[Vec<u8>],
    old_parity_window: &[u8],
    new_bytes: &[u8],
) -> Result<(Vec<Vec<u8>>, Vec<u8>)> {
    let shards = touched.iter().map(|&(shard, _, _)| shard + 1).max().unwrap_or(0);
    let (segments, mut parities) = apply_ranged_update_multi(
        touched,
        old_segments,
        &[old_parity_window],
        new_bytes,
        &[vec![Gf256::ONE; shards]],
    )?;
    Ok((segments, parities.swap_remove(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid5::Raid5;
    use crate::stripe::StripePlanner;
    use crate::ErasureCode;

    fn setup(obj_len: usize) -> (StripePlanner, Raid5, Vec<u8>, FragmentLayout, Vec<Vec<u8>>) {
        let p = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let obj: Vec<u8> = (0..obj_len).map(|i| (i * 13 % 256) as u8).collect();
        let (layout, frags) = p.split_encode(&code, &obj).unwrap();
        (p, code, obj, layout, frags)
    }

    #[test]
    fn small_update_costs_four_accesses() {
        // The paper's headline number: small update = 2 reads + 2 writes.
        let (_, _, _, layout, _) = setup(64 * 1024);
        let plan = plan_update(&layout, 100, 64).unwrap();
        assert_eq!(plan.reads, vec![0]);
        assert_eq!(plan.parity_reads, vec![3]);
        assert_eq!(plan.writes, vec![0]);
        assert_eq!(plan.parity_writes, vec![3]);
        assert_eq!(plan.total_accesses(), 4);
        assert_eq!(plan.read_ops(), 2);
        assert_eq!(plan.write_ops(), 2);
    }

    #[test]
    fn boundary_crossing_update_touches_two_shards() {
        let (_, _, _, layout, _) = setup(64 * 1024);
        let plan = plan_update(&layout, layout.shard_len - 8, 16).unwrap();
        assert_eq!(plan.reads, vec![0, 1]);
        assert_eq!(plan.total_accesses(), 6); // 3 reads + 3 writes
    }

    #[test]
    fn full_rewrite_needs_no_reads() {
        let p = StripePlanner::new(3, 4).unwrap();
        // Exactly shard-aligned object: full-range update covers all shards.
        let obj_len = 3 * 64; // aligned to 64 * m
        let layout = p.plan(obj_len);
        assert_eq!(layout.padding(), 0);
        let plan = plan_update(&layout, 0, obj_len).unwrap();
        assert!(plan.reads.is_empty());
        assert!(plan.parity_reads.is_empty());
        assert_eq!(plan.writes.len(), 3);
        assert_eq!(plan.parity_writes, vec![3]);
    }

    #[test]
    fn ranged_update_matches_full_reencode() {
        let (planner, code, mut obj, layout, mut frags) = setup(8192);
        for (offset, len) in [(10usize, 30usize), (layout.shard_len - 5, 11), (7000, 192)] {
            let plan = plan_update(&layout, offset, len).unwrap();
            let new_bytes: Vec<u8> = (0..len).map(|i| (i * 37 + offset) as u8).collect();

            // Simulate the ranged reads.
            let old_segments: Vec<Vec<u8>> = plan
                .touched
                .iter()
                .map(|&(shard, start, l)| frags[shard][start..start + l].to_vec())
                .collect();
            let (lo, hi) = parity_window(&plan.touched);
            let old_parity_window = frags[3][lo..hi].to_vec();

            let (new_segs, new_parity) =
                apply_ranged_update(&plan.touched, &old_segments, &old_parity_window, &new_bytes)
                    .unwrap();

            // Apply the ranged writes locally.
            for (k, &(shard, start, l)) in plan.touched.iter().enumerate() {
                frags[shard][start..start + l].copy_from_slice(&new_segs[k]);
            }
            frags[3][lo..hi].copy_from_slice(&new_parity);

            // Oracle: full re-encode of the patched object.
            obj[offset..offset + len].copy_from_slice(&new_bytes);
            let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
            for (got, want) in frags.iter().zip(&oracle) {
                assert_eq!(got, want, "after ({offset},{len})");
            }
        }
    }

    #[test]
    fn multi_parity_ranged_update_matches_reencode_for_every_code() {
        use crate::raid6::Raid6;
        use crate::rs::ReedSolomon;

        fn check<C: ErasureCode>(code: &C, planner: &StripePlanner) {
            let mut obj: Vec<u8> = (0..6000).map(|i| (i * 11 % 256) as u8).collect();
            let (layout, mut frags) = planner.split_encode(code, &obj).unwrap();
            let coeffs = code.parity_coefficients();

            for (offset, len) in [(0usize, 40usize), (2500, 300), (5990, 10)] {
                let plan = plan_update(&layout, offset, len).unwrap();
                let new_bytes: Vec<u8> = (0..len).map(|i| (i * 73 + offset) as u8).collect();
                let (lo, hi) = parity_window(&plan.touched);

                let old_segments: Vec<Vec<u8>> =
                    plan.touched.iter().map(|&(s, st, l)| frags[s][st..st + l].to_vec()).collect();
                let old_parities: Vec<Vec<u8>> =
                    (layout.m..layout.n).map(|p| frags[p][lo..hi].to_vec()).collect();

                let (new_segs, new_parities) = apply_ranged_update_multi(
                    &plan.touched,
                    &old_segments,
                    &old_parities,
                    &new_bytes,
                    &coeffs,
                )
                .unwrap();
                for (k, &(s, st, l)) in plan.touched.iter().enumerate() {
                    frags[s][st..st + l].copy_from_slice(&new_segs[k]);
                }
                for (j, w) in new_parities.iter().enumerate() {
                    frags[layout.m + j][lo..hi].copy_from_slice(w);
                }

                obj[offset..offset + len].copy_from_slice(&new_bytes);
                let (_, oracle) = planner.split_encode(code, &obj).unwrap();
                for (got, want) in frags.iter().zip(&oracle) {
                    assert_eq!(got, want, "offset={offset} len={len}");
                }
            }
        }

        check(&Raid5::new(3).unwrap(), &StripePlanner::new(3, 4).unwrap());
        check(&Raid6::new(3).unwrap(), &StripePlanner::new(3, 5).unwrap());
        check(&ReedSolomon::new(2, 4).unwrap(), &StripePlanner::new(2, 4).unwrap());
        check(&ReedSolomon::new(4, 7).unwrap(), &StripePlanner::new(4, 7).unwrap());
    }

    #[test]
    fn encoding_windows_yields_the_windows_of_the_parity() {
        use crate::rs::ReedSolomon;
        let code = ReedSolomon::new(3, 5).unwrap();
        let shards: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..256).map(|b| (b as u8).wrapping_mul(i as u8 + 3)).collect())
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let full_parity = code.encode(&refs).unwrap();

        // The codes are positionwise, so the degraded update path may
        // re-encode just the window [64, 160) of every data shard.
        let windows: Vec<&[u8]> = shards.iter().map(|s| &s[64..160]).collect();
        let got = code.encode(&windows).unwrap();
        for (j, w) in got.iter().enumerate() {
            assert_eq!(&w[..], &full_parity[j][64..160]);
        }
    }

    #[test]
    fn ranged_update_validates_inputs() {
        let touched = vec![(0usize, 4usize, 8usize)];
        // Wrong segment count.
        assert!(apply_ranged_update(&touched, &[], &[0u8; 8], &[0u8; 8]).is_err());
        // Wrong parity window size.
        assert!(apply_ranged_update(&touched, &[vec![0u8; 8]], &[0u8; 4], &[0u8; 8]).is_err());
        // Wrong segment size.
        assert!(apply_ranged_update(&touched, &[vec![0u8; 3]], &[0u8; 8], &[0u8; 8]).is_err());
    }

    #[test]
    fn parity_window_spans_touched_union() {
        let touched = vec![(0, 100, 20), (1, 0, 8)];
        assert_eq!(parity_window(&touched), (0, 120));
        assert_eq!(parity_window(&[]), (0, 0));
    }

    #[test]
    fn plan_rejects_out_of_bounds() {
        let (_, _, _, layout, _) = setup(100);
        assert!(matches!(plan_update(&layout, 90, 20), Err(GfecError::RangeOutOfBounds { .. })));
    }
}
