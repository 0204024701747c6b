//! The SHA-256 of each block of an object ≡ the oracle's, on every
//! kernel this CPU has (`Kernel::available`: SHA-NI where the CPU
//! reports it, the scalar kernel everywhere). For each block size the
//! grid is every block count 0..=40 × every tail length in `TAILS` ×
//! every misalignment 0..64 of the base pointer against a cache line, so
//! each kernel loads blocks from every offset a buffer can start at;
//! `digests_of_scattered_messages` feeds the same kernels messages from
//! anywhere in memory. `hyrd::integrity` keeps BLAKE3 block values now
//! (`tests/blake3_kernels.rs`); these are the SHA-256 kernels the perf
//! ledger times.
//!
//! A block's digest depends only on its bytes and where they lie, so on
//! both sides of the comparison each distinct (start, end) is hashed
//! once per kernel and misalignment however many inputs of the grid
//! share it. Std-only and seeded (splitmix64).

use std::collections::HashMap;

use hyrd_dedup::sha256::{sha256_with_kernel, Digest, Kernel};

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

/// The digest `hash` gives each `block`-byte block of `content[..len]`,
/// each distinct block hashed once however many inputs share it.
fn digests(
    memo: &mut HashMap<(usize, usize), Digest>,
    content: &[u8],
    block: usize,
    len: usize,
    hash: impl Fn(&[u8]) -> Digest,
) -> Vec<Digest> {
    (0..len)
        .step_by(block)
        .map(|start| {
            let end = len.min(start + block);
            *memo.entry((start, end)).or_insert_with(|| hash(&content[start..end]))
        })
        .collect()
}

/// The whole grid for one block size, on every kernel.
fn check_grid(block: usize, seed: u64) {
    let longest = MAX_BLOCKS * block + TAILS[TAILS.len() - 1];
    let content = SplitMix64(seed).bytes(longest);
    let mut memo = HashMap::new();
    let want: Vec<Vec<Vec<Digest>>> = (0..=MAX_BLOCKS)
        .map(|n| {
            TAILS
                .iter()
                .map(|t| digests(&mut memo, &content, block, n * block + t, oracle::sha256))
                .collect()
        })
        .collect();

    // Room to start the input at every offset from a cache-line boundary.
    let mut arena = vec![0u8; longest + 128];
    let line = arena.as_ptr().align_offset(64);
    for kernel in Kernel::available() {
        for misalign in 0..64 {
            let base = line + misalign;
            arena[base..base + longest].copy_from_slice(&content);
            let input = &arena[base..base + longest];
            let mut got_memo = HashMap::new();
            for (n, per_tail) in want.iter().enumerate() {
                for (tail, want) in TAILS.iter().zip(per_tail) {
                    let got = digests(&mut got_memo, input, block, n * block + tail, |b| {
                        sha256_with_kernel(kernel, b)
                    });
                    assert_eq!(
                        &got,
                        want,
                        "{}: block {block}, {n} blocks + {tail}, misaligned by {misalign}",
                        kernel.name()
                    );
                }
            }
        }
    }
}

#[test]
fn grid_at_64_byte_blocks() {
    // One compression and the padding: a tail of 4,095 is 63 more
    // blocks, so objects run up to 103 blocks here.
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

/// Every kernel ≡ the oracle per message, for messages scattered over a
/// buffer: runs of 1..=40 4 KiB messages between messages of lengths
/// that break a run — empty, short, not whole compressions, another
/// whole length — each message at its own offset, misaligned at random.
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
        for kernel in Kernel::available() {
            let got: Vec<Digest> =
                messages.iter().map(|m| sha256_with_kernel(kernel, m)).collect();
            assert_eq!(
                got,
                want,
                "{}, round {round}: lengths {:?}",
                kernel.name(),
                messages.iter().map(|m| m.len()).collect::<Vec<_>>()
            );
        }
    }
}
