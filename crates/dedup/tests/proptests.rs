//! Property-based tests for the dedup substrate.

use hyrd_testkit::check;

use hyrd_dedup::chunker::{Chunker, ChunkerConfig};
use hyrd_dedup::sha256::{sha256, Sha256};

#[test]
fn chunks_always_tile_exactly() {
    check(
        24,
        |g| g.bytes(0..80_000),
        |data| {
            let c = Chunker::default();
            let chunks = c.chunk(&data);
            let mut pos = 0usize;
            for ch in &chunks {
                assert_eq!(ch.offset, pos);
                assert_eq!(ch.digest, sha256(&ch.data));
                pos += ch.data.len();
            }
            assert_eq!(pos, data.len());
        },
    );
}

#[test]
fn chunk_sizes_respect_bounds() {
    check(
        24,
        |g| g.bytes(1..100_000),
        |data| {
            let cfg = ChunkerConfig { min_size: 2048, avg_size: 8192, max_size: 32768 };
            let c = Chunker::new(cfg);
            let chunks = c.chunk(&data);
            for (i, ch) in chunks.iter().enumerate() {
                assert!(ch.data.len() <= cfg.max_size);
                if i + 1 != chunks.len() {
                    assert!(ch.data.len() >= cfg.min_size, "chunk {i}: {}", ch.data.len());
                }
            }
        },
    );
}

#[test]
fn appending_preserves_leading_chunks() {
    check(
        24,
        |g| (g.bytes(40_000..80_000), g.bytes(1..20_000)),
        |(base, tail)| {
            // Content-defined boundaries: everything strictly before the last
            // base chunk is untouched by appending data.
            let c = Chunker::default();
            let before = c.chunk(&base);
            let mut extended = base.clone();
            extended.extend_from_slice(&tail);
            let after = c.chunk(&extended);
            // All but the final chunk of `before` must reappear verbatim.
            for (a, b) in before.iter().take(before.len().saturating_sub(1)).zip(&after) {
                assert_eq!(a.digest, b.digest);
            }
        },
    );
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check(
        24,
        |g| (g.bytes(0..4096), g.unit()),
        |(data, cut_frac)| {
            let cut = ((data.len() as f64) * cut_frac) as usize;
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), sha256(&data));
        },
    );
}

#[test]
fn sha256_is_injective_on_small_perturbations() {
    check(
        24,
        |g| (g.bytes(1..512), g.unit()),
        |(data, flip_frac)| {
            let idx = ((data.len() - 1) as f64 * flip_frac) as usize;
            let mut other = data.clone();
            other[idx] ^= 0x01;
            assert_ne!(sha256(&data), sha256(&other));
        },
    );
}
