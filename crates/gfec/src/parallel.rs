//! Rayon-parallel encoding for large objects, plus the owned-shard
//! adapters over the borrowed cores.
//!
//! The paper's large-file tier erasure-codes objects up to 100 MB; the
//! GF(2^8) parity loops are embarrassingly parallel across byte blocks,
//! so [`encode_into_parallel`] chunks the preallocated parity rows into
//! fixed-size blocks and fills each block in its own task. Results are
//! bit-identical to the sequential path (the code is a per-byte linear
//! map, so any partition of the byte axis commutes with encoding).
//! Decoding is blocked the same way inside [`crate::decode`].

use rayon::prelude::*;

use crate::decode::Decoder;
use crate::{check_encode_shapes, ErasureCode, Fragment, Result};

/// Block size for parallel encoding and decoding. Large enough that
/// per-task overhead vanishes, small enough to parallelize a few-MB
/// object across cores.
pub const PARALLEL_BLOCK: usize = 256 * 1024;

/// Fills caller-provided parity rows for `shards`, one task per
/// [`PARALLEL_BLOCK`] of the byte axis, each writing its block of every
/// row in place.
///
/// Falls back to one plain [`ErasureCode::encode_into`] for inputs below
/// one block — spawning tasks for a 4 KB shard costs more than the XORs
/// themselves.
pub fn encode_into_parallel<C: ErasureCode + ?Sized>(
    code: &C,
    shards: &[&[u8]],
    parity: &mut [&mut [u8]],
) -> Result<()> {
    // Lengths must be known equal before block views are sliced out.
    let len = check_encode_shapes(code, shards, parity)?;
    if len <= PARALLEL_BLOCK {
        return code.encode_into(shards, parity);
    }
    // Block `b` of every parity row, grouped so each task owns its outputs.
    let mut blocks: Vec<Vec<&mut [u8]>> =
        (0..len.div_ceil(PARALLEL_BLOCK)).map(|_| Vec::with_capacity(parity.len())).collect();
    for row in parity.iter_mut() {
        for (b, chunk) in row.chunks_mut(PARALLEL_BLOCK).enumerate() {
            blocks[b].push(chunk);
        }
    }
    blocks
        .into_par_iter()
        .enumerate()
        .map(|(b, mut rows)| {
            let start = b * PARALLEL_BLOCK;
            let end = (start + PARALLEL_BLOCK).min(len);
            let views: Vec<&[u8]> = shards.iter().map(|s| &s[start..end]).collect();
            code.encode_into(&views, &mut rows)
        })
        .collect()
}

/// Encodes the parity shards for `shards` in parallel blocks, into
/// freshly allocated rows — [`encode_into_parallel`] for callers that
/// have no fragments to fill.
pub fn encode_parallel<C: ErasureCode + ?Sized>(
    code: &C,
    shards: &[&[u8]],
) -> Result<Vec<Vec<u8>>> {
    let len = shards.first().map_or(0, |s| s.len());
    let mut parity: Vec<Vec<u8>> = (0..code.parity_fragments()).map(|_| vec![0u8; len]).collect();
    let mut rows: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    encode_into_parallel(code, shards, &mut rows)?;
    Ok(parity)
}

/// Reconstructs the `m` data shards from any `m` fragments as `m` owned
/// buffers — the borrowed decode core for callers that hold owned
/// [`Fragment`]s and want whole shards rather than an object.
pub fn reconstruct_parallel<C: ErasureCode + ?Sized>(
    code: &C,
    available: &[Fragment],
    shard_len: usize,
) -> Result<Vec<Vec<u8>>> {
    let views: Vec<(usize, &Vec<u8>)> = available.iter().map(|f| (f.index, &f.data)).collect();
    let decoder = Decoder::new(code, shard_len, &views)?;
    Ok((0..code.data_fragments())
        .map(|i| {
            let mut shard = Vec::with_capacity(shard_len);
            decoder.append(i, shard_len, &mut shard);
            shard
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid5::Raid5;
    use crate::rs::ReedSolomon;
    use crate::GfecError;

    fn big_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| (0..len).map(|b| ((b * 2654435761usize) >> 7) as u8 ^ (i as u8)).collect())
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_raid5() {
        let code = Raid5::new(3).unwrap();
        // Non-multiple of the block size to exercise the tail block.
        let len = 2 * PARALLEL_BLOCK + 12_345;
        let shards = big_shards(3, len);
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let seq = code.encode(&refs).unwrap();
        let par = encode_parallel(&code, &refs).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_matches_sequential_rs() {
        let code = ReedSolomon::new(4, 6).unwrap();
        let len = PARALLEL_BLOCK + 1;
        let shards = big_shards(4, len);
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        assert_eq!(code.encode(&refs).unwrap(), encode_parallel(&code, &refs).unwrap());
    }

    #[test]
    fn small_input_takes_sequential_path() {
        let code = Raid5::new(2).unwrap();
        let shards = big_shards(2, 128);
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        assert_eq!(code.encode(&refs).unwrap(), encode_parallel(&code, &refs).unwrap());
    }

    #[test]
    fn errors_propagate_from_blocks() {
        let code = Raid5::new(3).unwrap();
        let a = vec![0u8; 2 * PARALLEL_BLOCK];
        // Wrong shard count should error, not panic.
        assert!(encode_parallel(&code, &[a.as_slice()]).is_err());
    }

    #[test]
    fn reconstruct_recovers_the_shards_across_a_block_boundary() {
        let code = ReedSolomon::new(3, 5).unwrap();
        let shard_len = PARALLEL_BLOCK + 4_321;
        let shards = big_shards(3, shard_len);
        let frags = code.encode_fragments(shards.clone()).unwrap();
        // Drop two fragments (one data, one parity) — a degraded read.
        let avail: Vec<Fragment> =
            frags.into_iter().filter(|f| f.index != 1 && f.index != 4).collect();
        assert_eq!(reconstruct_parallel(&code, &avail, shard_len).unwrap(), shards);
    }

    #[test]
    fn reconstruct_validates_lengths() {
        let code = Raid5::new(2).unwrap();
        let shard_len = PARALLEL_BLOCK + 1;
        let frags = vec![Fragment::new(0, vec![0u8; shard_len]), Fragment::new(1, vec![0u8; 16])];
        assert!(matches!(
            reconstruct_parallel(&code, &frags, shard_len),
            Err(GfecError::FragmentSizeMismatch { .. })
        ));
    }
}
