//! Partial-update planning: the read-modify-write cost model behind the
//! paper's core motivation.
//!
//! §I of the paper: "a small update in the RACS system will incur a total
//! of 4 accesses, including traffic of 2 reads and 2 writes over the
//! network." This module computes exactly which fragments a byte-range
//! update must read and rewrite under a single-parity (RAID5) layout, and
//! applies the update given those fragments — so both the simulator and
//! the real dispatcher share one authoritative amplification model.

use crate::gf256::combine_acc;
use crate::inline::{InlineVec, INLINE};
use crate::raid5::Raid5;
use crate::stripe::FragmentLayout;
use crate::{ErasureCode, GfecError, Result};

/// Fragment indices, inline up to [`INLINE`].
pub type Indices = InlineVec<usize, INLINE>;

/// The byte sub-ranges of the data shards an update touches, inline:
/// `(shard, start, len)`, in shard order.
pub type Touched = InlineVec<(usize, usize, usize), INLINE>;

/// The I/O plan for one byte-range update of an erasure-coded object.
/// Its lists are inline, so planning allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePlan {
    /// Data-shard indices whose old contents must be read.
    pub reads: Indices,
    /// Parity fragment indices that must be read (old parity for RMW).
    pub parity_reads: Indices,
    /// Data-shard indices that will be rewritten.
    pub writes: Indices,
    /// Parity fragment indices that will be rewritten.
    pub parity_writes: Indices,
    /// The byte sub-ranges of each touched shard: `(shard, start, len)`.
    pub touched: Touched,
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
    let shards: Indices = touched.iter().map(|&(s, _, _)| s).collect();
    let parity: Indices = (layout.m..layout.n).collect();

    let full_rewrite = shards.len() == layout.m
        && touched.iter().all(|&(_, start, l)| start == 0 && l == layout.shard_len);
    let (reads, parity_reads) =
        if full_rewrite { Default::default() } else { (shards.clone(), parity.clone()) };
    Ok(UpdatePlan { reads, parity_reads, writes: shards, parity_writes: parity, touched })
}

/// The parity byte-window `[lo, hi)` a set of touched segments dirties.
/// Every touched data range XORs into the parity at the same in-shard
/// offsets, so the parity I/O covers the union of the touched ranges.
pub fn parity_window(touched: &[(usize, usize, usize)]) -> (usize, usize) {
    let lo = touched.iter().map(|&(_, start, _)| start).min().unwrap_or(0);
    let hi = touched.iter().map(|&(_, start, len)| start + len).max().unwrap_or(0);
    (lo, hi)
}

/// Range-granular read-modify-write for any linear code, into a buffer
/// the caller provides: given the *old* bytes of each touched data-shard
/// segment (in `touched` order), every parity shard's old bytes over
/// [`parity_window`] and the new bytes, appends the `n - m` new parity
/// windows to `parity`, back to back (window `j` is parity fragment
/// `m + j`'s) — exactly what gets `put_range`'d back beside the new
/// bytes themselves, which are the new data segments. Transfers only the
/// touched bytes instead of whole fragments, matching object stores'
/// HTTP Range semantics, and allocates nothing when `parity` has the
/// room.
///
/// Parity `j` moves by its [`ErasureCode::parity_row`]:
/// `P_j'[pos] = P_j[pos] + c_js * (old_s[pos] + new_s[pos])`. The old
/// segments and windows are only read, so fetched buffers can be passed
/// as they are (`Bytes`, `Vec<u8>`, slices). On an error `parity` has not
/// changed.
pub fn apply_ranged_update_into<C, S, P>(
    code: &C,
    touched: &[(usize, usize, usize)],
    old_segments: &[S],
    old_parity_windows: &[P],
    new_bytes: &[u8],
    parity: &mut Vec<u8>,
) -> Result<()>
where
    C: ErasureCode + ?Sized,
    S: AsRef<[u8]>,
    P: AsRef<[u8]>,
{
    let (m, parities) = (code.data_fragments(), code.parity_fragments());
    if old_segments.len() != touched.len() {
        return Err(GfecError::NotEnoughFragments {
            have: old_segments.len(),
            need: touched.len(),
        });
    }
    if old_parity_windows.len() != parities {
        return Err(GfecError::NotEnoughFragments {
            have: old_parity_windows.len(),
            need: parities,
        });
    }
    let (lo, hi) = parity_window(touched);
    let width = hi - lo;
    if let Some(w) = old_parity_windows.iter().find(|w| w.as_ref().len() != width) {
        return Err(GfecError::FragmentSizeMismatch { expected: width, got: w.as_ref().len() });
    }
    for (&(shard, _, len), old) in touched.iter().zip(old_segments) {
        if old.as_ref().len() != len {
            return Err(GfecError::FragmentSizeMismatch { expected: len, got: old.as_ref().len() });
        }
        if shard >= m {
            return Err(GfecError::BadFragmentIndex { index: shard, n: m });
        }
    }
    let base = parity.len();
    parity.reserve(parities * width);
    old_parity_windows.iter().for_each(|w| parity.extend_from_slice(w.as_ref()));
    let mut consumed = 0usize;
    for (&(shard, start, len), old) in touched.iter().zip(old_segments) {
        let new = &new_bytes[consumed..consumed + len];
        consumed += len;
        // c * (old + new) = c * old + c * new: both terms in one
        // accumulate pass per parity, no scratch buffer for the difference.
        for j in 0..parities {
            let c = code.parity_row(j)[shard];
            let at = base + j * width + start - lo;
            combine_acc(&mut parity[at..at + len], &[(c, old.as_ref()), (c, new)]);
        }
    }
    debug_assert_eq!(consumed, new_bytes.len());
    Ok(())
}

/// Single-parity (RAID5) form of [`apply_ranged_update_into`] on owned
/// buffers: every coefficient is 1, so the identity is
/// `P' = P ^ D_old ^ D_new` over the touched ranges. Returns the new data
/// segments and the new parity window.
pub fn apply_ranged_update(
    touched: &[(usize, usize, usize)],
    old_segments: &[Vec<u8>],
    old_parity_window: &[u8],
    new_bytes: &[u8],
) -> Result<(Vec<Vec<u8>>, Vec<u8>)> {
    // Any RAID5 as wide as the touched shards: all its rows are ones.
    let m = touched.iter().map(|&(shard, _, _)| shard + 1).max().unwrap_or(1);
    let mut parity = Vec::with_capacity(old_parity_window.len());
    apply_ranged_update_into(
        &Raid5::new(m)?,
        touched,
        old_segments,
        &[old_parity_window],
        new_bytes,
        &mut parity,
    )?;
    let mut consumed = 0usize;
    let segments = touched
        .iter()
        .map(|&(_, _, len)| {
            consumed += len;
            new_bytes[consumed - len..consumed].to_vec()
        })
        .collect();
    Ok((segments, parity))
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
        assert_eq!(plan.reads[..], [0]);
        assert_eq!(plan.parity_reads[..], [3]);
        assert_eq!(plan.writes[..], [0]);
        assert_eq!(plan.parity_writes[..], [3]);
        assert_eq!(plan.total_accesses(), 4);
        assert_eq!(plan.read_ops(), 2);
        assert_eq!(plan.write_ops(), 2);
    }

    #[test]
    fn boundary_crossing_update_touches_two_shards() {
        let (_, _, _, layout, _) = setup(64 * 1024);
        let plan = plan_update(&layout, layout.shard_len - 8, 16).unwrap();
        assert_eq!(plan.reads[..], [0, 1]);
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
        assert_eq!(plan.parity_writes[..], [3]);
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

            for (offset, len) in [(0usize, 40usize), (2500, 300), (5990, 10)] {
                let plan = plan_update(&layout, offset, len).unwrap();
                let new_bytes: Vec<u8> = (0..len).map(|i| (i * 73 + offset) as u8).collect();
                let (lo, hi) = parity_window(&plan.touched);

                let old_segments: Vec<&[u8]> =
                    plan.touched.iter().map(|&(s, st, l)| &frags[s][st..st + l]).collect();
                let old_parities: Vec<&[u8]> =
                    (layout.m..layout.n).map(|p| &frags[p][lo..hi]).collect();
                // Appended after what the buffer already holds.
                let mut parity = vec![0xEE; 3];
                apply_ranged_update_into(
                    code,
                    &plan.touched,
                    &old_segments,
                    &old_parities,
                    &new_bytes,
                    &mut parity,
                )
                .unwrap();
                assert_eq!(parity[..3], [0xEE; 3]);
                let mut consumed = 0;
                for &(s, st, l) in &plan.touched {
                    frags[s][st..st + l].copy_from_slice(&new_bytes[consumed..consumed + l]);
                    consumed += l;
                }
                for (j, w) in parity[3..].chunks(hi - lo).enumerate() {
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
