//! Owned-shard adapters over the borrowed encode and decode cores.
//!
//! The module keeps its name and the `_parallel` suffixes because the
//! perf ledger (`hyrd-perf`) imports them; both run on the calling
//! thread. DESIGN.md §8 has the measurement that decided that.

use crate::decode::Decoder;
use crate::{ErasureCode, Fragment, Result};

/// Encodes the parity shards for `shards` into freshly allocated rows:
/// [`ErasureCode::encode`] under the name the perf ledger imports.
pub fn encode_parallel<C: ErasureCode + ?Sized>(
    code: &C,
    shards: &[&[u8]],
) -> Result<Vec<Vec<u8>>> {
    code.encode(shards)
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

    /// Shards longer than this span many `FUSED_BLOCK`s — the size at
    /// which the EC tier's multi-MB objects live.
    const BOUNDARY: usize = 256 * 1024;

    fn big_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| (0..len).map(|b| ((b * 2654435761usize) >> 7) as u8 ^ (i as u8)).collect())
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_raid5() {
        let code = Raid5::new(3).unwrap();
        // Non-multiple of the block size to exercise the tail block.
        let len = 2 * BOUNDARY + 12_345;
        let shards = big_shards(3, len);
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let seq = code.encode(&refs).unwrap();
        let par = encode_parallel(&code, &refs).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_matches_sequential_rs() {
        let code = ReedSolomon::new(4, 6).unwrap();
        let len = BOUNDARY + 1;
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
        let a = vec![0u8; 2 * BOUNDARY];
        // Wrong shard count should error, not panic.
        assert!(encode_parallel(&code, &[a.as_slice()]).is_err());
    }

    #[test]
    fn reconstruct_recovers_the_shards_across_a_block_boundary() {
        let code = ReedSolomon::new(3, 5).unwrap();
        let shard_len = BOUNDARY + 4_321;
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
        let shard_len = BOUNDARY + 1;
        let frags = vec![Fragment::new(0, vec![0u8; shard_len]), Fragment::new(1, vec![0u8; 16])];
        assert!(matches!(
            reconstruct_parallel(&code, &frags, shard_len),
            Err(GfecError::FragmentSizeMismatch { .. })
        ));
    }
}
