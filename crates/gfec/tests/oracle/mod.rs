//! The owning decode and encode paths this crate shipped before the
//! borrowed core (`hyrd_gfec::decode`, `StripePlanner::split_encode`),
//! kept as the property-test oracle the new paths are proven
//! bit-identical against — the role [`reference`] plays for the slice
//! kernels. Each code keeps its own hand-written `reconstruct`
//! (XOR rebuild, the RAID6 two-erasure solve, invert-and-multiply), so
//! agreement with the one generic core is a real cross-check. The
//! shard-major borrowed decode the column decode replaced lives here too
//! ([`shard_major_decode`]), and so does the owning ranged-update kernel
//! the caller-buffer one replaced ([`apply_ranged_update_multi`]), as are
//! the integration tests' shared fragment-view helper. Never used outside
//! tests.

#![allow(dead_code)]

use hyrd_gfec::gf256::{combine_into_with, Gf256, Kernel};
use hyrd_gfec::{
    ErasureCode, Fragment, FragmentLayout, GfecError, Matrix, Raid5, Raid6, ReedSolomon,
    StripePlanner,
};
use reference::{mul_slice, mul_slice_acc, xor_slice};

type Result<T> = std::result::Result<T, GfecError>;

/// Borrowed views of every fragment except the `lost` ones.
pub fn without<'a>(fragments: &'a [Vec<u8>], lost: &[usize]) -> Vec<(usize, &'a [u8])> {
    fragments
        .iter()
        .enumerate()
        .filter(|(i, _)| !lost.contains(i))
        .map(|(i, f)| (i, f.as_slice()))
        .collect()
}

/// A code that still knows its pre-core owning decode.
pub trait OwningDecode: ErasureCode {
    fn reconstruct(&self, available: &[Fragment], shard_len: usize) -> Result<Vec<Vec<u8>>>;
}

/// Index the fragments, with the validation every code shared.
fn by_index(
    m: usize,
    n: usize,
    available: &[Fragment],
    shard_len: usize,
) -> Result<Vec<Option<&Fragment>>> {
    if available.len() < m {
        return Err(GfecError::NotEnoughFragments { have: available.len(), need: m });
    }
    let mut by_index: Vec<Option<&Fragment>> = vec![None; n];
    for f in available {
        if f.index >= n {
            return Err(GfecError::BadFragmentIndex { index: f.index, n });
        }
        if by_index[f.index].is_some() {
            return Err(GfecError::DuplicateFragment { index: f.index });
        }
        if f.data.len() != shard_len {
            return Err(GfecError::FragmentSizeMismatch { expected: shard_len, got: f.data.len() });
        }
        by_index[f.index] = Some(f);
    }
    Ok(by_index)
}

impl OwningDecode for Raid5 {
    fn reconstruct(&self, available: &[Fragment], shard_len: usize) -> Result<Vec<Vec<u8>>> {
        let m = self.data_fragments();
        let by_index = by_index(m, m + 1, available, shard_len)?;
        let missing: Vec<usize> = (0..=m).filter(|&i| by_index[i].is_none()).collect();
        let mut data: Vec<Vec<u8>> = Vec::with_capacity(m);
        if missing.first().is_some_and(|&lost| lost < m) {
            // A data fragment is lost: XOR of all survivors rebuilds it.
            let lost = missing[0];
            let mut rebuilt = vec![0u8; shard_len];
            for f in by_index.iter().flatten() {
                xor_slice(&mut rebuilt, &f.data);
            }
            for (i, f) in by_index.iter().enumerate().take(m) {
                if i == lost {
                    data.push(rebuilt.clone());
                } else {
                    data.push(f.expect("only `lost` is missing").data.clone());
                }
            }
        } else {
            for f in by_index.iter().take(m) {
                data.push(f.expect("data fragment present").data.clone());
            }
        }
        Ok(data)
    }
}

impl OwningDecode for Raid6 {
    fn reconstruct(&self, available: &[Fragment], shard_len: usize) -> Result<Vec<Vec<u8>>> {
        let m = self.data_fragments();
        let by_index = by_index(m, m + 2, available, shard_len)?;
        let present = |i: usize| by_index[i].expect("present").data.clone();
        let missing_data: Vec<usize> = (0..m).filter(|&i| by_index[i].is_none()).collect();
        match missing_data[..] {
            [] => Ok((0..m).map(present).collect()),
            [lost] => {
                // Prefer P-based XOR rebuild; fall back to Q if P is gone.
                let rebuilt = if let Some(p) = by_index[m] {
                    let mut r = p.data.clone();
                    for (i, f) in by_index.iter().enumerate().take(m) {
                        if let (true, Some(f)) = (i != lost, f) {
                            xor_slice(&mut r, &f.data);
                        }
                    }
                    r
                } else {
                    // Q ^ sum_{i != lost} g^i D_i = g^lost * D_lost
                    let mut syn = by_index[m + 1].expect("P lost, so Q survives").data.clone();
                    for (i, f) in by_index.iter().enumerate().take(m) {
                        if let (true, Some(f)) = (i != lost, f) {
                            mul_slice_acc(&mut syn, &f.data, Gf256::exp(i));
                        }
                    }
                    let mut r = vec![0u8; shard_len];
                    mul_slice(&mut r, &syn, Gf256::exp(lost).inv());
                    r
                };
                Ok((0..m).map(|i| if i == lost { rebuilt.clone() } else { present(i) }).collect())
            }
            [a, b] => {
                // Pxy = P ^ sum(surviving data); Qxy = Q ^ sum(g^i * surviving data)
                let mut pxy = present(m);
                let mut qxy = present(m + 1);
                for (i, f) in by_index.iter().enumerate().take(m) {
                    if let Some(f) = f {
                        xor_slice(&mut pxy, &f.data);
                        mul_slice_acc(&mut qxy, &f.data, Gf256::exp(i));
                    }
                }
                // Solve: Da ^ Db = Pxy ; g^a*Da ^ g^b*Db = Qxy
                // => Da = (g^b * Pxy ^ Qxy) / (g^a ^ g^b); Db = Pxy ^ Da
                let (ga, gb) = (Gf256::exp(a), Gf256::exp(b));
                let mut t = vec![0u8; shard_len];
                mul_slice(&mut t, &pxy, gb);
                xor_slice(&mut t, &qxy);
                let mut da = vec![0u8; shard_len];
                mul_slice(&mut da, &t, (ga + gb).inv());
                let mut db = pxy;
                xor_slice(&mut db, &da);
                Ok((0..m)
                    .map(|i| match i {
                        i if i == a => da.clone(),
                        i if i == b => db.clone(),
                        i => present(i),
                    })
                    .collect())
            }
            _ => unreachable!("at least m distinct fragments of m + 2 leave at most two erasures"),
        }
    }
}

impl OwningDecode for ReedSolomon {
    fn reconstruct(&self, available: &[Fragment], shard_len: usize) -> Result<Vec<Vec<u8>>> {
        let (m, n) = (self.data_fragments(), self.total_fragments());
        let by_index = by_index(m, n, available, shard_len)?;
        // Fast path: all data fragments present — systematic, just copy.
        if (0..m).all(|i| by_index[i].is_some()) {
            return Ok((0..m)
                .map(|i| by_index[i].expect("checked present").data.clone())
                .collect());
        }
        // General path: pick m fragments (data first), invert, multiply.
        let picked: Vec<&Fragment> = by_index.iter().flatten().take(m).copied().collect();
        let rows: Vec<usize> = picked.iter().map(|f| f.index).collect();
        let decode: Matrix = self.encode_matrix().select_rows(&rows).invert()?;
        let refs: Vec<&[u8]> = picked.iter().map(|f| f.data.as_slice()).collect();
        Ok(decode.mul_shards(&refs))
    }
}

/// Splits an object into `m` zero-padded data shards per `planner.plan`.
pub fn split(planner: &StripePlanner, m: usize, object: &[u8]) -> (FragmentLayout, Vec<Vec<u8>>) {
    let layout = planner.plan(object.len());
    let mut shards = Vec::with_capacity(m);
    for i in 0..m {
        let start = (i * layout.shard_len).min(object.len());
        let end = ((i + 1) * layout.shard_len).min(object.len());
        let mut shard = vec![0u8; layout.shard_len];
        shard[..end - start].copy_from_slice(&object[start..end]);
        shards.push(shard);
    }
    (layout, shards)
}

/// Reassembles an object from its data shards, trimming padding.
pub fn join(layout: &FragmentLayout, shards: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(layout.object_len);
    for s in shards {
        let remaining = layout.object_len - out.len();
        out.extend_from_slice(&s[..remaining.min(s.len())]);
    }
    out
}

/// Split + whole-shard encode, data fragments first then parity.
pub fn encode_object<C: ErasureCode + ?Sized>(
    planner: &StripePlanner,
    code: &C,
    object: &[u8],
) -> Result<(FragmentLayout, Vec<Fragment>)> {
    let (layout, shards) = split(planner, code.data_fragments(), object);
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    let parity = code.encode(&refs)?;
    let frags =
        shards.into_iter().chain(parity).enumerate().map(|(i, s)| Fragment::new(i, s)).collect();
    Ok((layout, frags))
}

/// Owning reconstruct of the data shards + join.
pub fn decode_object<C: OwningDecode + ?Sized>(
    code: &C,
    layout: &FragmentLayout,
    available: &[Fragment],
) -> Result<Vec<u8>> {
    Ok(join(layout, &code.reconstruct(available, layout.shard_len)?))
}

/// The borrowed decode as it was before it walked columns: one data
/// shard after another, whole — copied when present, else one
/// `combine_into_with` over the basis fragments (the lowest `m` present
/// indices), its coefficients the shard's row of the inverse of their
/// generator rows. Takes well-formed input only (`m` distinct in-range
/// fragments of `shard_len` bytes).
pub fn shard_major_decode<C: ErasureCode + ?Sized>(
    kernel: Kernel,
    code: &C,
    layout: &FragmentLayout,
    available: &[(usize, &[u8])],
) -> Result<Vec<u8>> {
    let (m, n) = (code.data_fragments(), code.total_fragments());
    let mut by_index: Vec<Option<&[u8]>> = vec![None; n];
    for &(index, bytes) in available {
        by_index[index] = Some(bytes);
    }
    let basis: Vec<usize> = (0..n).filter(|&i| by_index[i].is_some()).take(m).collect();
    let parity = code.parity_coefficients();
    let generator = |i: usize| -> Vec<u8> {
        match i.checked_sub(m) {
            None => (0..m).map(|col| u8::from(col == i)).collect(),
            Some(p) => parity[p].iter().map(|c| c.0).collect(),
        }
    };
    let rows: Vec<Vec<u8>> = basis.iter().map(|&i| generator(i)).collect();
    let inverse = Matrix::from_rows(&rows).invert()?;
    let len = layout.object_len.min(m * layout.shard_len);
    let mut object = Vec::with_capacity(len);
    for shard in 0..m {
        let take = (len - object.len()).min(layout.shard_len);
        match by_index[shard] {
            Some(bytes) => object.extend_from_slice(&bytes[..take]),
            None => {
                let terms: Vec<(Gf256, &[u8])> = basis
                    .iter()
                    .enumerate()
                    .map(|(j, &i)| (inverse.get(shard, j), by_index[i].expect("present")))
                    .filter(|(c, _)| c.0 != 0)
                    .collect();
                combine_into_with(kernel, &mut object, take, &terms);
            }
        }
    }
    Ok(object)
}

/// The owning ranged-update kernel `hyrd_gfec::update` shipped before
/// `apply_ranged_update_into`, on the byte-at-a-time kernels: from the
/// old touched segments (in `touched` order), every parity window over
/// `parity_window(touched)` and the new bytes, the new data segments and
/// the new parity windows, one owned buffer each. Parity `j` moves by
/// `coeffs[j]`: `P_j' = P_j + c_js * (old_s + new_s)`.
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
    let lo = touched.iter().map(|&(_, start, _)| start).min().unwrap_or(0);
    let hi = touched.iter().map(|&(_, start, len)| start + len).max().unwrap_or(0);
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
        for (parity, row) in parities.iter_mut().zip(coeffs) {
            let c = row
                .get(shard)
                .copied()
                .ok_or(GfecError::BadFragmentIndex { index: shard, n: row.len() })?;
            let w = &mut parity[start - lo..start - lo + len];
            mul_slice_acc(w, old_seg, c);
            mul_slice_acc(w, new_seg, c);
        }
        segments.push(new_seg.to_vec());
    }
    Ok((segments, parities))
}

/// The slice kernels straight from the field's definition: one
/// [`Gf256`] multiplication (a log→exp lookup) per byte, no product
/// tables, no wide loads — what the split-nibble SIMD/SWAR kernels in
/// `hyrd_gfec::gf256` are proven bit-identical against.
pub mod reference {
    use hyrd_gfec::gf256::Gf256;

    /// `dst[i] ^= c * src[i]`.
    pub fn mul_slice_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
        assert_eq!(dst.len(), src.len(), "mul_slice_acc length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= (c * Gf256(*s)).0;
        }
    }

    /// `dst[i] = c * src[i]`.
    pub fn mul_slice(dst: &mut [u8], src: &[u8], c: Gf256) {
        assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = (c * Gf256(*s)).0;
        }
    }

    /// `Σ c_j * src_j[i]` for `i < len`, one product at a time.
    pub fn combine(len: usize, terms: &[(Gf256, &[u8])]) -> Vec<u8> {
        (0..len)
            .map(|i| terms.iter().fold(0, |sum, &(c, src)| sum ^ (c * Gf256(src[i])).0))
            .collect()
    }

    /// `dst[i] ^= src[i]`.
    pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
    }
}
