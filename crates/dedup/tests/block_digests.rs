//! `block_digests` ≡ the oracle's SHA-256 of each block, on every one of
//! its paths: the 16-lane kernel forced onto every full block
//! (`wide_from` 1, so every lane count 1..=16 of a last group and every
//! group count occurs) and the wide kernel forced off (`usize::MAX`),
//! which leaves every full block to the interleaved SHA-NI streams —
//! four, then two, then a last single one. For each block size the grid
//! is every block count 0..=40 × every tail length in `TAILS` × every
//! misalignment 0..64 of the base pointer against a cache line; on top,
//! `every_stream_count_at_4_kib_blocks` walks each run length a stream
//! mix and a wide pass plus an interleaved remainder can take, and
//! `digests_of_scattered_messages` feeds the same kernels messages from
//! anywhere in memory. On a CPU
//! without AVX-512 both grid settings take the streams (or, without
//! SHA-NI either, the single-stream loop), which is then all there is to
//! check.
//!
//! Std-only and seeded (splitmix64), so it also runs from a scratch
//! manifest with a path dependency on this crate. Build it optimised:
//! the grid hashes ≈ 8 GB, seconds at `opt-level = 3` (what the
//! workspace's dev profile gives this package, and `--release`) and a
//! quarter of an hour with every intrinsic a call.

use std::collections::HashMap;

use hyrd_dedup::sha256::{
    block_digests, block_digests_with, digests_of, Digest, Kernel, WIDE_MIN_BLOCKS,
};

mod oracle;

const MAX_BLOCKS: usize = 40;
const TAILS: [usize; 6] = [0, 1, 63, 64, 65, 4095];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The oracle's digest of each `block`-byte block of `content[..len]`,
/// each distinct block hashed once however many inputs share it.
fn expected(
    memo: &mut HashMap<(usize, usize), Digest>,
    content: &[u8],
    block: usize,
    len: usize,
) -> Vec<Digest> {
    (0..len)
        .step_by(block)
        .map(|start| {
            let end = len.min(start + block);
            *memo.entry((start, end)).or_insert_with(|| oracle::sha256(&content[start..end]))
        })
        .collect()
}

/// The whole grid for one block size, on both paths.
fn check_grid(block: usize, seed: u64) {
    let longest = MAX_BLOCKS * block + TAILS[TAILS.len() - 1];
    let content = SplitMix64(seed).bytes(longest);
    let mut memo = HashMap::new();
    let want: Vec<Vec<Vec<Digest>>> = (0..=MAX_BLOCKS)
        .map(|n| {
            TAILS.iter().map(|t| expected(&mut memo, &content, block, n * block + t)).collect()
        })
        .collect();

    // Room to start the input at every offset from a cache-line boundary.
    let mut arena = vec![0u8; longest + 128];
    let line = arena.as_ptr().align_offset(64);
    for misalign in 0..64 {
        let base = line + misalign;
        arena[base..base + longest].copy_from_slice(&content);
        for (n, per_tail) in want.iter().enumerate() {
            for (tail, want) in TAILS.iter().zip(per_tail) {
                let input = &arena[base..base + n * block + tail];
                for from in [1, usize::MAX] {
                    let mut got = vec![[0xa5u8; 32]; want.len()];
                    block_digests_with(from, input, block, &mut got);
                    assert_eq!(
                        &got, want,
                        "block {block}, {n} blocks + {tail}, misaligned by {misalign}, wide from {from}"
                    );
                }
            }
        }
    }
}

#[test]
fn grid_at_64_byte_blocks() {
    // One compression and the padding: a tail of 4,095 is 63 more
    // blocks, so groups run up to 103 blocks here.
    check_grid(64, 0x64);
}

#[test]
fn grid_at_4_kib_blocks() {
    check_grid(4096, 0x4096);
}

#[test]
fn grid_at_8_kib_blocks() {
    check_grid(8192, 0x8192);
}

#[test]
fn a_block_that_is_not_whole_compressions_falls_through() {
    // 1,000 = 15 × 64 + 40: no lane layout for it, so "wide from 1" must
    // be the single-stream loop too — and agree with the oracle.
    check_grid(1000, 0x1000);
}

#[test]
fn every_stream_count_at_4_kib_blocks() {
    if !Kernel::ShaNi.supported() {
        eprintln!("every_stream_count_at_4_kib_blocks: skipped, this CPU has no SHA-NI streams");
        return;
    }
    const BLOCK: usize = 4096;
    let content = SplitMix64(0x5ec).bytes(32 * BLOCK + TAILS[TAILS.len() - 1]);
    let mut memo = HashMap::new();
    let mut arena = vec![0u8; content.len() + 128];
    let line = arena.as_ptr().align_offset(64);
    // Wide kernel off: runs of 1..=16 full blocks are every mix of four,
    // two and one streams. Wide kernel on from sixteen blocks: one pass,
    // then 1..=15 blocks of interleaved remainder, or a second pass.
    for (from, runs) in [(usize::MAX, 1..=16), (16, 17..=32)] {
        for n in runs {
            for tail in TAILS {
                let len = n * BLOCK + tail;
                let want = expected(&mut memo, &content, BLOCK, len);
                for misalign in 0..64 {
                    let base = line + misalign;
                    arena[base..base + len].copy_from_slice(&content[..len]);
                    let mut got = vec![[0xa5u8; 32]; want.len()];
                    block_digests_with(from, &arena[base..base + len], BLOCK, &mut got);
                    assert_eq!(
                        got, want,
                        "{n} blocks + {tail}, misaligned by {misalign}, wide from {from}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_entry_point_is_the_break_even_dispatch() {
    // `block_digests` itself, where 7 full blocks stay off the wide
    // kernel, 8 go wide, 23 are one pass and 7 streams and 24 a pass and
    // a half.
    assert_eq!(WIDE_MIN_BLOCKS, 8, "the counts in this test straddle the break-even");
    let content = SplitMix64(0x21).bytes(MAX_BLOCKS * 4096 + 4095);
    let mut memo = HashMap::new();
    for n in 0..=MAX_BLOCKS {
        for tail in TAILS {
            let len = n * 4096 + tail;
            let mut got = vec![[0xa5u8; 32]; len.div_ceil(4096)];
            block_digests(&content[..len], 4096, &mut got);
            assert_eq!(got, expected(&mut memo, &content, 4096, len), "{n} blocks + {tail}");
        }
    }
}

/// `digests_of` ≡ the oracle per message, for messages scattered over a
/// buffer: runs of 1..=40 equal whole-compression lengths (every wide
/// pass and stream mix, as in the grid) between messages of lengths that
/// break a run — empty, short, not whole compressions, another whole
/// length — each message at its own offset, misaligned at random.
#[test]
fn digests_of_scattered_messages() {
    const LENGTHS: [usize; 9] = [0, 1, 63, 64, 65, 1000, 4095, 4096, 8192];
    let mut rng = SplitMix64(0xd15);
    let content = rng.bytes(1 << 20);
    for round in 0..300 {
        let mut messages: Vec<&[u8]> = Vec::new();
        while messages.len() < 48 {
            let len = LENGTHS[(rng.next() % LENGTHS.len() as u64) as usize];
            let run = if len == 4096 { 1 + (rng.next() % 40) as usize } else { 1 };
            for _ in 0..run {
                let at = (rng.next() % (content.len() - len) as u64) as usize;
                messages.push(&content[at..at + len]);
            }
        }
        let want: Vec<Digest> = messages.iter().map(|m| oracle::sha256(m)).collect();
        let mut got = vec![[0xa5u8; 32]; messages.len()];
        digests_of(&messages, &mut got);
        assert_eq!(
            got,
            want,
            "round {round}: lengths {:?}",
            messages.iter().map(|m| m.len()).collect::<Vec<_>>()
        );
    }
    digests_of(&[], &mut []);
}

#[test]
#[should_panic(expected = "digests_of: one digest per message")]
fn digests_of_wants_one_digest_per_message() {
    digests_of(&[&[1u8; 64]], &mut [[0u8; 32]; 2]);
}

#[test]
fn no_bytes_are_no_blocks() {
    block_digests(&[], 4096, &mut []);
    block_digests_with(1, &[], 64, &mut []);
}

#[test]
#[should_panic(
    expected = "block_digests: 2 digests for 12288 bytes in 4096-byte blocks, expected 3"
)]
fn too_few_digests_is_a_panic_not_a_short_write() {
    block_digests(&[0u8; 12288], 4096, &mut [[0u8; 32]; 2]);
}

#[test]
#[should_panic(
    expected = "block_digests: 17 digests for 65536 bytes in 4096-byte blocks, expected 16"
)]
fn too_many_digests_is_a_panic_not_a_stale_entry() {
    block_digests_with(1, &[0u8; 65536], 4096, &mut [[0u8; 32]; 17]);
}

#[test]
#[should_panic(expected = "block_digests: block length is zero")]
fn a_zero_block_length_is_a_panic() {
    block_digests(&[0u8; 64], 0, &mut []);
}
