//! SHA-256 (FIPS 180-4), implemented from scratch for the digests
//! `hyrd::integrity` records and verifies: one per object, and one per
//! 4 KiB block of it.
//!
//! Two compression kernels share one incremental hasher:
//!
//! * [`Kernel::ShaNi`] — the x86 SHA extensions
//!   (`sha256rnds2`/`sha256msg1`/`sha256msg2`), selected at runtime when
//!   the CPU reports them. One instruction per two rounds instead of
//!   dozens of ALU ops.
//! * [`Kernel::Scalar`] — a fully-unrolled portable compress with a
//!   rolling 16-word message schedule; the fallback everywhere else.
//!
//! A single stream is a dependency chain, so that is as fast as one
//! digest gets. Many *independent* digests of equal-length blocks are
//! another matter: [`block_digests`] hashes sixteen at a time in the
//! 32-bit lanes of AVX-512 where the CPU has it, and what that leaves —
//! or everything, where it does not — four or two at a time on SHA-NI,
//! the streams' round chains interleaved so that one stream's wait on
//! the SHA unit is the others' turn (DESIGN.md §10). [`digests_of`]
//! feeds the same kernels blocks that are not neighbours in memory.
//!
//! Every path produces identical digests for every input. The oracle is
//! the seed's straightforward implementation under `tests/oracle/`; the
//! tests here and in `tests/{sha_kernels,block_digests}.rs` assert it on
//! the FIPS vectors, on random lengths, on the 63/64/65-byte block
//! boundaries and on every lane and tail position of the wide kernel.

use std::sync::OnceLock;

/// The 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression kernel: how whole 64-byte blocks are absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// x86 SHA extensions (requires `sha` + `ssse3` + `sse4.1`).
    ShaNi,
    /// Fully-unrolled portable scalar compress.
    Scalar,
}

impl Kernel {
    /// The fastest kernel this CPU supports (cached after first call).
    pub fn detect() -> Kernel {
        static DETECTED: OnceLock<Kernel> = OnceLock::new();
        *DETECTED.get_or_init(|| if shani::available() { Kernel::ShaNi } else { Kernel::Scalar })
    }

    /// Every kernel this CPU can run, fastest first.
    pub fn available() -> Vec<Kernel> {
        let mut v = Vec::new();
        if shani::available() {
            v.push(Kernel::ShaNi);
        }
        v.push(Kernel::Scalar);
        v
    }

    /// Whether this CPU can run the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::ShaNi => shani::available(),
            Kernel::Scalar => true,
        }
    }

    /// Stable name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::ShaNi => "sha-ni",
            Kernel::Scalar => "scalar",
        }
    }

    /// Compresses whole blocks (`blocks.len()` must be a multiple of 64).
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::ShaNi => shani::compress_blocks(state, blocks),
            Kernel::Scalar => scalar::compress_blocks(state, blocks),
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher on the fastest kernel this CPU supports.
    pub fn new() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }

    /// A fresh hasher pinned to a specific kernel.
    ///
    /// # Panics
    /// If the CPU cannot run `kernel`.
    pub fn with_kernel(kernel: Kernel) -> Self {
        assert!(kernel.supported(), "kernel {} not supported on this CPU", kernel.name());
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, total_len: 0, kernel }
    }

    /// The kernel this hasher compresses with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill the partial block first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.kernel.compress_blocks(&mut self.state, &block);
                self.buffered = 0;
            }
        }
        // Whole blocks straight from the input — one kernel call for the
        // entire run, no per-block copies.
        let whole = data.len() & !63;
        if whole > 0 {
            self.kernel.compress_blocks(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 64-bit big-endian bit length — written in
        // one step. The tail plus 0x80 plus the length fit one block when
        // at most 55 bytes are buffered, two otherwise; either way one
        // kernel call.
        let mut pad = [0u8; 128];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let padded = if self.buffered < 56 { 64 } else { 128 };
        pad[padded - 8..padded].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.kernel.compress_blocks(&mut self.state, &pad[..padded]);

        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot digest on the fastest available kernel.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest on a specific kernel (bit-identity tests, benches).
pub fn sha256_with_kernel(kernel: Kernel, data: &[u8]) -> Digest {
    let mut h = Sha256::with_kernel(kernel);
    h.update(data);
    h.finalize()
}

/// Fewest full blocks the 16-lane kernel takes in one pass; a shorter
/// run goes to the interleaved SHA-NI streams. A pass costs the same
/// however many lanes carry a block of their own, so this is where
/// sixteen lanes' worth of work undercuts that many single-stream
/// digests. Measured at 4 KiB blocks on the AVX-512 + SHA-NI host of
/// DESIGN.md §10: a pass takes 20.5–22.8 µs with one lane filled or
/// sixteen, a single-stream block 2.9–4.1 µs as the neighbours' load
/// moves, so 7 blocks tie on a quiet host (21.3 µs both ways) and 8 win
/// in every run (20.5–22.4 against 23.6–33.3 µs).
pub const WIDE_MIN_BLOCKS: usize = 8;

/// Writes the SHA-256 of each consecutive `block`-byte block of `data`
/// (the last one may be short) into `out`: `out[i]` is
/// `sha256(&data[i * block..][..block])`, bit for bit. Where `block` is a
/// multiple of 64 the full blocks are independent streams of one length:
/// with AVX-512, runs of at least [`WIDE_MIN_BLOCKS`] of them are hashed
/// sixteen at a time, one per 32-bit lane of the register file; with
/// SHA-NI, the full blocks left over go four at a time, then two, their
/// round chains interleaved. A last single full block, the short last
/// block, any other `block` and any other CPU take the single-stream
/// [`sha256`] per block. Allocates nothing.
///
/// # Panics
/// If `block` is zero or `out.len()` is not `data.len().div_ceil(block)`.
pub fn block_digests(data: &[u8], block: usize, out: &mut [Digest]) {
    block_digests_with(WIDE_MIN_BLOCKS, data, block, out);
}

/// [`block_digests`] with the wide kernel taking any run of at least
/// `wide_from` full blocks — 1 puts every full block through it (idle
/// lanes and all), `usize::MAX` none, leaving them all to the
/// interleaved streams. For the bit-identity tests and benches, which
/// must reach every path on one host.
pub fn block_digests_with(wide_from: usize, data: &[u8], block: usize, out: &mut [Digest]) {
    assert!(block > 0, "block_digests: block length is zero");
    assert!(
        out.len() == data.len().div_ceil(block),
        "block_digests: {} digests for {} bytes in {block}-byte blocks, expected {}",
        out.len(),
        data.len(),
        data.len().div_ceil(block),
    );
    let full = if block.is_multiple_of(64) { data.len() / block } else { 0 };
    let (whole, rest) = out.split_at_mut(full);
    equal_lengths(wide_from, |i| &data[i * block..][..block], whole);
    for (bytes, digest) in data[full * block..].chunks(block).zip(rest) {
        *digest = sha256(bytes);
    }
}

/// Writes the SHA-256 of each of `blocks` — independent messages,
/// anywhere in memory — into `out`: `out[i]` is `sha256(blocks[i])`, bit
/// for bit. A run of neighbours of one length that is a multiple of 64
/// takes the kernels [`block_digests`] takes (from [`WIDE_MIN_BLOCKS`] of
/// them sixteen at a time with AVX-512, then four or two interleaved
/// SHA-NI streams); anything else is the single-stream [`sha256`] per
/// message. For hashing the blocks a patch touched, which need not be
/// adjacent. Allocates nothing.
///
/// # Panics
/// If `out.len()` is not `blocks.len()`.
pub fn digests_of(blocks: &[&[u8]], out: &mut [Digest]) {
    assert_eq!(out.len(), blocks.len(), "digests_of: one digest per message");
    let mut done = 0;
    while done < blocks.len() {
        let len = blocks[done].len();
        let run = if len > 0 && len.is_multiple_of(64) {
            blocks[done..].iter().take_while(|b| b.len() == len).count()
        } else {
            0
        };
        if run == 0 {
            out[done] = sha256(blocks[done]);
            done += 1;
        } else {
            let run_blocks = &blocks[done..done + run];
            equal_lengths(WIDE_MIN_BLOCKS, |i| run_blocks[i], &mut out[done..done + run]);
            done += run;
        }
    }
}

/// The digests of `out.len()` messages of one length that is a multiple
/// of 64, message `i` being `message(i)`: sixteen at a time on the wide
/// kernel while at least `wide_from` are left, then four or two at a time
/// on the interleaved SHA-NI streams, the last one alone.
fn equal_lengths<'a>(wide_from: usize, message: impl Fn(usize) -> &'a [u8], out: &mut [Digest]) {
    let count = out.len();
    let mut done = 0;
    let mut lanes: [&[u8]; 16] = [&[]; 16];
    if wide16::available() {
        while count - done >= wide_from.max(1) {
            let n = (count - done).min(16);
            for (l, lane) in lanes[..n].iter_mut().enumerate() {
                *lane = message(done + l);
            }
            wide16::digest_lanes(&lanes[..n], &mut out[done..done + n]);
            done += n;
        }
    }
    if shani::available() {
        while count - done >= 2 {
            let n = if count - done >= 4 { 4 } else { 2 };
            for (l, lane) in lanes[..n].iter_mut().enumerate() {
                *lane = message(done + l);
            }
            shani::digest_lanes(&lanes[..n], &mut out[done..done + n]);
            done += n;
        }
    }
    for (i, digest) in out.iter_mut().enumerate().skip(done) {
        *digest = sha256(message(i));
    }
}

/// Renders a digest as lowercase hex (object-name safe).
pub fn hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("string write never fails");
    }
    s
}

/// Fully-unrolled portable compress: the message schedule lives in a
/// rolling 16-word window computed in-line with the rounds, and the
/// eight working variables rotate by argument position instead of by
/// eight register moves per round.
mod scalar {
    use super::K;

    pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            compress_block(state, block);
        }
    }

    #[inline(always)]
    fn compress_block(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // One FIPS round; the caller permutes the argument order so the
        // eight working variables never physically rotate.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $k:expr, $w:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($k)
                    .wrapping_add($w);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        // Schedule word for round $i >= 16, updating the rolling window.
        macro_rules! sched {
            ($w:ident, $i:expr) => {{
                let s0w = $w[($i + 1) & 15];
                let s1w = $w[($i + 14) & 15];
                $w[$i & 15] = $w[$i & 15]
                    .wrapping_add(s0w.rotate_right(7) ^ s0w.rotate_right(18) ^ (s0w >> 3))
                    .wrapping_add($w[($i + 9) & 15])
                    .wrapping_add(s1w.rotate_right(17) ^ s1w.rotate_right(19) ^ (s1w >> 10));
                $w[$i & 15]
            }};
        }

        round!(a, b, c, d, e, f, g, h, K[0], w[0]);
        round!(h, a, b, c, d, e, f, g, K[1], w[1]);
        round!(g, h, a, b, c, d, e, f, K[2], w[2]);
        round!(f, g, h, a, b, c, d, e, K[3], w[3]);
        round!(e, f, g, h, a, b, c, d, K[4], w[4]);
        round!(d, e, f, g, h, a, b, c, K[5], w[5]);
        round!(c, d, e, f, g, h, a, b, K[6], w[6]);
        round!(b, c, d, e, f, g, h, a, K[7], w[7]);
        round!(a, b, c, d, e, f, g, h, K[8], w[8]);
        round!(h, a, b, c, d, e, f, g, K[9], w[9]);
        round!(g, h, a, b, c, d, e, f, K[10], w[10]);
        round!(f, g, h, a, b, c, d, e, K[11], w[11]);
        round!(e, f, g, h, a, b, c, d, K[12], w[12]);
        round!(d, e, f, g, h, a, b, c, K[13], w[13]);
        round!(c, d, e, f, g, h, a, b, K[14], w[14]);
        round!(b, c, d, e, f, g, h, a, K[15], w[15]);
        round!(a, b, c, d, e, f, g, h, K[16], sched!(w, 16));
        round!(h, a, b, c, d, e, f, g, K[17], sched!(w, 17));
        round!(g, h, a, b, c, d, e, f, K[18], sched!(w, 18));
        round!(f, g, h, a, b, c, d, e, K[19], sched!(w, 19));
        round!(e, f, g, h, a, b, c, d, K[20], sched!(w, 20));
        round!(d, e, f, g, h, a, b, c, K[21], sched!(w, 21));
        round!(c, d, e, f, g, h, a, b, K[22], sched!(w, 22));
        round!(b, c, d, e, f, g, h, a, K[23], sched!(w, 23));
        round!(a, b, c, d, e, f, g, h, K[24], sched!(w, 24));
        round!(h, a, b, c, d, e, f, g, K[25], sched!(w, 25));
        round!(g, h, a, b, c, d, e, f, K[26], sched!(w, 26));
        round!(f, g, h, a, b, c, d, e, K[27], sched!(w, 27));
        round!(e, f, g, h, a, b, c, d, K[28], sched!(w, 28));
        round!(d, e, f, g, h, a, b, c, K[29], sched!(w, 29));
        round!(c, d, e, f, g, h, a, b, K[30], sched!(w, 30));
        round!(b, c, d, e, f, g, h, a, K[31], sched!(w, 31));
        round!(a, b, c, d, e, f, g, h, K[32], sched!(w, 32));
        round!(h, a, b, c, d, e, f, g, K[33], sched!(w, 33));
        round!(g, h, a, b, c, d, e, f, K[34], sched!(w, 34));
        round!(f, g, h, a, b, c, d, e, K[35], sched!(w, 35));
        round!(e, f, g, h, a, b, c, d, K[36], sched!(w, 36));
        round!(d, e, f, g, h, a, b, c, K[37], sched!(w, 37));
        round!(c, d, e, f, g, h, a, b, K[38], sched!(w, 38));
        round!(b, c, d, e, f, g, h, a, K[39], sched!(w, 39));
        round!(a, b, c, d, e, f, g, h, K[40], sched!(w, 40));
        round!(h, a, b, c, d, e, f, g, K[41], sched!(w, 41));
        round!(g, h, a, b, c, d, e, f, K[42], sched!(w, 42));
        round!(f, g, h, a, b, c, d, e, K[43], sched!(w, 43));
        round!(e, f, g, h, a, b, c, d, K[44], sched!(w, 44));
        round!(d, e, f, g, h, a, b, c, K[45], sched!(w, 45));
        round!(c, d, e, f, g, h, a, b, K[46], sched!(w, 46));
        round!(b, c, d, e, f, g, h, a, K[47], sched!(w, 47));
        round!(a, b, c, d, e, f, g, h, K[48], sched!(w, 48));
        round!(h, a, b, c, d, e, f, g, K[49], sched!(w, 49));
        round!(g, h, a, b, c, d, e, f, K[50], sched!(w, 50));
        round!(f, g, h, a, b, c, d, e, K[51], sched!(w, 51));
        round!(e, f, g, h, a, b, c, d, K[52], sched!(w, 52));
        round!(d, e, f, g, h, a, b, c, K[53], sched!(w, 53));
        round!(c, d, e, f, g, h, a, b, K[54], sched!(w, 54));
        round!(b, c, d, e, f, g, h, a, K[55], sched!(w, 55));
        round!(a, b, c, d, e, f, g, h, K[56], sched!(w, 56));
        round!(h, a, b, c, d, e, f, g, K[57], sched!(w, 57));
        round!(g, h, a, b, c, d, e, f, K[58], sched!(w, 58));
        round!(f, g, h, a, b, c, d, e, K[59], sched!(w, 59));
        round!(e, f, g, h, a, b, c, d, K[60], sched!(w, 60));
        round!(d, e, f, g, h, a, b, c, K[61], sched!(w, 61));
        round!(c, d, e, f, g, h, a, b, K[62], sched!(w, 62));
        round!(b, c, d, e, f, g, h, a, K[63], sched!(w, 63));

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// x86 SHA extension kernel. The hardware computes two rounds per
/// `sha256rnds2` and the message-schedule recurrence in
/// `sha256msg1`/`sha256msg2`; state lives packed as ABEF/CDGH vectors
/// across the whole input run. One stream's rounds are a dependency
/// chain through `sha256rnds2`'s latency, so independent streams of one
/// length are compressed side by side, each round of each issued next to
/// the same round of the others.
#[cfg(target_arch = "x86_64")]
mod shani {
    use core::arch::x86_64::*;

    use super::{Digest, H0, K};

    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(available(), "SHA-NI kernel invoked on a CPU without the sha feature");
        // SAFETY: the required target features were just verified.
        unsafe { compress_blocks_impl(state, blocks) }
    }

    /// The digests of `blocks` (2 or 4 of them, anywhere in memory, of
    /// one length that is a multiple of 64) into `out`, one per block.
    pub fn digest_lanes(blocks: &[&[u8]], out: &mut [Digest]) {
        assert!(available(), "SHA-NI kernel invoked on a CPU without the sha feature");
        let block = blocks[0].len();
        assert!(block.is_multiple_of(64) && blocks.iter().all(|b| b.len() == block));
        assert_eq!(out.len(), blocks.len());
        // SAFETY: the required target features were just verified.
        unsafe {
            match *blocks {
                [a, b] => digest_streams([a, b], out),
                [a, b, c, d] => digest_streams([a, b, c, d], out),
                _ => unreachable!("{} interleaved streams", blocks.len()),
            }
        }
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_impl(state: &mut [u32; 8], blocks: &[u8]) {
        let (abef, cdgh) = pack(state);
        let (mut state0, mut state1) = ([abef], [cdgh]);
        for block in blocks.chunks_exact(64) {
            let block: &[u8; 64] = block.try_into().expect("a chunk of 64 is an array of 64");
            compress(&mut state0, &mut state1, [block]);
        }
        *state = unpack(state0[0], state1[0]);
    }

    /// `N` whole streams of one length, side by side, then the one
    /// padding block they share.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn digest_streams<const N: usize>(streams: [&[u8]; N], out: &mut [Digest]) {
        let (abef, cdgh) = pack(&H0);
        let (mut state0, mut state1) = ([abef; N], [cdgh; N]);
        let block = streams[0].len();
        for step in (0..block).step_by(64) {
            let chunks = std::array::from_fn(|l| {
                streams[l][step..][..64].try_into().expect("a slice of 64 is an array of 64")
            });
            compress(&mut state0, &mut state1, chunks);
        }
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        pad[56..].copy_from_slice(&((block as u64) * 8).to_be_bytes());
        compress(&mut state0, &mut state1, [&pad; N]);
        for ((digest, abef), cdgh) in out.iter_mut().zip(state0).zip(state1) {
            for (bytes, word) in digest.chunks_exact_mut(4).zip(unpack(abef, cdgh)) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Packs `[a..h]` into the ABEF/CDGH layout.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn pack(state: &[u32; 8]) -> (__m128i, __m128i) {
        // SAFETY: `state` is 32 readable bytes; the loads have no
        // alignment requirement.
        let (tmp, st1) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>()),
            )
        };
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let st1 = _mm_shuffle_epi32(st1, 0x1B); // EFGH
        (_mm_alignr_epi8(tmp, st1, 8), _mm_blend_epi16(st1, tmp, 0xF0)) // ABEF, CDGH
    }

    /// Unpacks ABEF/CDGH back to `[a..h]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn unpack(state0: __m128i, state1: __m128i) -> [u32; 8] {
        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let mut out = [0u32; 8];
        // SAFETY: `out` is 32 writable bytes; the stores have no
        // alignment requirement.
        unsafe {
            _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), _mm_blend_epi16(tmp, st1, 0xF0));
            _mm_storeu_si128(
                out.as_mut_ptr().add(4).cast::<__m128i>(),
                _mm_alignr_epi8(st1, tmp, 8),
            );
        }
        out
    }

    /// One 64-byte block of each of `N` streams.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress<const N: usize>(
        state0: &mut [__m128i; N],
        state1: &mut [__m128i; N],
        blocks: [&[u8; 64]; N],
    ) {
        // Byte shuffle turning a little-endian 16-byte load into the four
        // big-endian message words the SHA instructions expect.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let (abef_save, cdgh_save) = (*state0, *state1);

        // W[0..16] of each stream as four vectors of four words.
        let mut msgs = [[_mm_setzero_si128(); 4]; N];
        for (msgs, block) in msgs.iter_mut().zip(blocks) {
            for (j, m) in msgs.iter_mut().enumerate() {
                // SAFETY: 16 of the block's 64 readable bytes; the load
                // has no alignment requirement.
                let loaded = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * j).cast()) };
                *m = _mm_shuffle_epi8(loaded, mask);
            }
        }

        // 16 groups of 4 rounds; groups 4..16 extend the schedule
        // in-place: W[g] = msg2(msg1(W[g-4], W[g-3]) +
        // alignr(W[g-1], W[g-2], 4), W[g-1]).
        for g in 0..16 {
            // SAFETY: words 4g..4g + 4 of the 64 in `K`.
            let kv = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast::<__m128i>()) };
            for l in 0..N {
                let msgs = &mut msgs[l];
                if g >= 4 {
                    let carry = _mm_alignr_epi8(msgs[(g + 3) & 3], msgs[(g + 2) & 3], 4);
                    let m1 = _mm_sha256msg1_epu32(msgs[g & 3], msgs[(g + 1) & 3]);
                    msgs[g & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(m1, carry), msgs[(g + 3) & 3]);
                }
                let wk = _mm_add_epi32(msgs[g & 3], kv);
                state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], wk);
                state0[l] =
                    _mm_sha256rnds2_epu32(state0[l], state1[l], _mm_shuffle_epi32(wk, 0x0E));
            }
        }

        for l in 0..N {
            state0[l] = _mm_add_epi32(state0[l], abef_save[l]);
            state1[l] = _mm_add_epi32(state1[l], cdgh_save[l]);
        }
    }
}

/// Stub for non-x86 targets: the kernel is simply never available.
#[cfg(not(target_arch = "x86_64"))]
mod shani {
    pub fn available() -> bool {
        false
    }

    pub fn compress_blocks(_state: &mut [u32; 8], _blocks: &[u8]) {
        unreachable!("SHA-NI kernel is x86_64-only and gated by Kernel::supported")
    }

    pub fn digest_lanes(_blocks: &[&[u8]], _out: &mut [super::Digest]) {
        unreachable!("SHA-NI kernel is x86_64-only and gated by available()")
    }
}

/// Sixteen independent SHA-256 streams in the sixteen 32-bit lanes of
/// the AVX-512 register file: the eight working variables are eight
/// `zmm` registers, lane `l` of each belonging to block `l`, and every
/// round is the scalar round with `vprord` for the rotations and
/// `vpternlogd` for Ch, Maj and the three-way XORs. Message words reach
/// that layout through a byte swap and a 16×16 word transpose per
/// 64-byte step. All sixteen blocks have one length, so they share one
/// padding block, broadcast.
#[cfg(target_arch = "x86_64")]
mod wide16 {
    use core::arch::x86_64::*;

    use super::{Digest, H0, K};

    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }

    /// The digests of `blocks` (1 to 16 of them, anywhere in memory, of
    /// one length that is a multiple of 64) into `out`, one per block.
    pub fn digest_lanes(blocks: &[&[u8]], out: &mut [Digest]) {
        assert!(available(), "16-lane kernel invoked on a CPU without avx512f + avx512bw");
        assert!((1..=16).contains(&blocks.len()) && out.len() == blocks.len());
        let block = blocks[0].len();
        assert!(block.is_multiple_of(64) && blocks.iter().all(|b| b.len() == block));
        // SAFETY: the required target features were just verified.
        unsafe { digest_lanes_impl(blocks, block, out) }
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    fn digest_lanes_impl(blocks: &[&[u8]], block: usize, out: &mut [Digest]) {
        // Lane `l` reads block `l`; the idle lanes of a short group
        // re-read block 0 and their digests are dropped.
        let mut lanes = [blocks[0]; 16];
        lanes[..blocks.len()].copy_from_slice(blocks);
        // Per 128-bit quarter, the shuffle that turns four little-endian
        // loads into big-endian message words.
        let swap = _mm512_broadcast_i32x4(_mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203,
        ));

        let mut state = H0.map(|h| _mm512_set1_epi32(h as i32));
        let mut w = [_mm512_setzero_si512(); 16];
        for step in 0..block / 64 {
            for (row, lane) in w.iter_mut().zip(lanes) {
                let bytes: &[u8; 64] =
                    lane[64 * step..][..64].try_into().expect("a slice of 64 is an array of 64");
                // SAFETY: `bytes` is 64 readable bytes and the load has no
                // alignment requirement.
                let loaded = unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) };
                *row = _mm512_shuffle_epi8(loaded, swap);
            }
            transpose(&mut w);
            compress(&mut state, &mut w);
        }
        // 0x80, zeros, the bit length: the same block in every lane.
        let bits = (block as u64) * 8;
        w = [_mm512_setzero_si512(); 16];
        w[0] = _mm512_set1_epi32(0x8000_0000u32 as i32);
        w[14] = _mm512_set1_epi32((bits >> 32) as i32);
        w[15] = _mm512_set1_epi32(bits as i32);
        compress(&mut state, &mut w);

        let mut words = [[0u32; 16]; 8];
        for (row, v) in words.iter_mut().zip(state) {
            // SAFETY: `row` is 64 writable bytes and the store has no
            // alignment requirement.
            unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };
        }
        for (l, digest) in out.iter_mut().enumerate() {
            for (i, row) in words.iter().enumerate() {
                digest[4 * i..4 * i + 4].copy_from_slice(&row[l].to_be_bytes());
            }
        }
    }

    /// In: `w[l]` is the sixteen message words of lane `l`. Out: `w[t]`
    /// is word `t` of all sixteen lanes. Interleave 32-bit then 64-bit
    /// pairs inside each 128-bit quarter, then transpose the quarters.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(w: &mut [__m512i; 16]) {
        let mut t = [_mm512_setzero_si512(); 16];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_epi32(w[2 * i], w[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_epi32(w[2 * i], w[2 * i + 1]);
        }
        // u[4g + j], quarter q = word 4q + j of lanes 4g..4g + 4.
        let mut u = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            u[4 * g] = _mm512_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
            u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
            u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
            u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
        }
        for j in 0..4 {
            let even_lo = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
            let odd_lo = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xdd);
            let even_hi = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
            let odd_hi = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xdd);
            w[j] = _mm512_shuffle_i32x4(even_lo, even_hi, 0x88);
            w[4 + j] = _mm512_shuffle_i32x4(odd_lo, odd_hi, 0x88);
            w[8 + j] = _mm512_shuffle_i32x4(even_lo, even_hi, 0xdd);
            w[12 + j] = _mm512_shuffle_i32x4(odd_lo, odd_hi, 0xdd);
        }
    }

    /// One 64-byte step of all sixteen lanes; `w` is the rolling
    /// sixteen-word schedule window, as in the scalar kernel.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn compress(state: &mut [__m512i; 8], w: &mut [__m512i; 16]) {
        // Truth tables for `vpternlogd`.
        const XOR3: i32 = 0x96;
        const CH: i32 = 0xca; // e ? f : g
        const MAJ: i32 = 0xe8;

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $k:expr, $w:expr) => {{
                let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<6>($e),
                    _mm512_ror_epi32::<11>($e),
                    _mm512_ror_epi32::<25>($e),
                );
                let ch = _mm512_ternarylogic_epi32::<CH>($e, $f, $g);
                let kw = _mm512_add_epi32(_mm512_set1_epi32($k as i32), $w);
                let t1 = _mm512_add_epi32(_mm512_add_epi32($h, s1), _mm512_add_epi32(ch, kw));
                let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<2>($a),
                    _mm512_ror_epi32::<13>($a),
                    _mm512_ror_epi32::<22>($a),
                );
                let maj = _mm512_ternarylogic_epi32::<MAJ>($a, $b, $c);
                $d = _mm512_add_epi32($d, t1);
                $h = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
            }};
        }
        // Schedule word for round 16r + $i, r >= 1, updating the window.
        macro_rules! sched {
            ($i:expr) => {{
                let w15 = w[($i + 1) & 15];
                let w2 = w[($i + 14) & 15];
                let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                w[$i] = _mm512_add_epi32(
                    _mm512_add_epi32(w[$i], s0),
                    _mm512_add_epi32(w[($i + 9) & 15], s1),
                );
                w[$i]
            }};
        }
        // Sixteen rounds: two turns of the eight-variable rotation.
        macro_rules! rounds16 {
            ($k:expr, $word:ident) => {{
                round!(a, b, c, d, e, f, g, h, $k[0], $word!(0));
                round!(h, a, b, c, d, e, f, g, $k[1], $word!(1));
                round!(g, h, a, b, c, d, e, f, $k[2], $word!(2));
                round!(f, g, h, a, b, c, d, e, $k[3], $word!(3));
                round!(e, f, g, h, a, b, c, d, $k[4], $word!(4));
                round!(d, e, f, g, h, a, b, c, $k[5], $word!(5));
                round!(c, d, e, f, g, h, a, b, $k[6], $word!(6));
                round!(b, c, d, e, f, g, h, a, $k[7], $word!(7));
                round!(a, b, c, d, e, f, g, h, $k[8], $word!(8));
                round!(h, a, b, c, d, e, f, g, $k[9], $word!(9));
                round!(g, h, a, b, c, d, e, f, $k[10], $word!(10));
                round!(f, g, h, a, b, c, d, e, $k[11], $word!(11));
                round!(e, f, g, h, a, b, c, d, $k[12], $word!(12));
                round!(d, e, f, g, h, a, b, c, $k[13], $word!(13));
                round!(c, d, e, f, g, h, a, b, $k[14], $word!(14));
                round!(b, c, d, e, f, g, h, a, $k[15], $word!(15));
            }};
        }
        macro_rules! loaded {
            ($i:expr) => {
                w[$i]
            };
        }

        rounds16!(K[..16], loaded);
        for k in K[16..].chunks_exact(16) {
            rounds16!(k, sched);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = _mm512_add_epi32(*s, v);
        }
    }
}

/// Stub for non-x86 targets: the kernel is simply never available.
#[cfg(not(target_arch = "x86_64"))]
mod wide16 {
    pub fn available() -> bool {
        false
    }

    pub fn digest_lanes(_blocks: &[&[u8]], _out: &mut [super::Digest]) {
        unreachable!("16-lane kernel is x86_64-only and gated by available()")
    }
}

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn hx(data: &[u8]) -> String {
        hex(&sha256(data))
    }

    #[test]
    fn fips_test_vectors() {
        // FIPS 180-4 / NIST CAVP standard vectors.
        assert_eq!(hx(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(hx(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_eq!(
            hx(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&block);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_for_any_split() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split={split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn hex_is_64_lowercase_chars() {
        let h = hx(b"x");
        assert_eq!(h.len(), 64);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }

    #[test]
    fn every_available_kernel_matches_reference() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in [0usize, 1, 3, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 4096] {
            let want = oracle::sha256(&data[..len]);
            for k in Kernel::available() {
                assert_eq!(
                    sha256_with_kernel(k, &data[..len]),
                    want,
                    "kernel {} diverges at len {len}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn detected_kernel_is_supported_and_fastest_listed() {
        let k = Kernel::detect();
        assert!(k.supported());
        assert_eq!(Kernel::available().first().copied(), Some(k));
        assert!(Kernel::Scalar.supported(), "scalar is the universal fallback");
    }
}
