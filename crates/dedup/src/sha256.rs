//! SHA-256 (FIPS 180-4), implemented from scratch. `hyrd::integrity`
//! digests with [`crate::blake3`] now; the perf ledger's `dedup.sha256_*`
//! probes and its host line still time and name this one.
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
//! Both kernels produce identical digests for every input. The oracle is
//! the seed's straightforward implementation under `tests/oracle/`; the
//! tests here and in `tests/{sha_kernels,block_digests}.rs` assert it on
//! the FIPS vectors, on random lengths, on the 63/64/65-byte block
//! boundaries and on every block of a grid of objects at every
//! misalignment.

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
/// across the whole input run.
#[cfg(target_arch = "x86_64")]
mod shani {
    use core::arch::x86_64::*;

    use super::K;

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

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_impl(state: &mut [u32; 8], blocks: &[u8]) {
        let (mut abef, mut cdgh) = pack(state);
        for block in blocks.chunks_exact(64) {
            let block: &[u8; 64] = block.try_into().expect("a chunk of 64 is an array of 64");
            compress(&mut abef, &mut cdgh, block);
        }
        *state = unpack(abef, cdgh);
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

    /// One 64-byte block.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state0: &mut __m128i, state1: &mut __m128i, block: &[u8; 64]) {
        // Byte shuffle turning a little-endian 16-byte load into the four
        // big-endian message words the SHA instructions expect.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let (abef_save, cdgh_save) = (*state0, *state1);

        // W[0..16] as four vectors of four words.
        let mut msgs = [_mm_setzero_si128(); 4];
        for (j, m) in msgs.iter_mut().enumerate() {
            // SAFETY: 16 of the block's 64 readable bytes; the load has no
            // alignment requirement.
            let loaded = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * j).cast()) };
            *m = _mm_shuffle_epi8(loaded, mask);
        }

        // 16 groups of 4 rounds; groups 4..16 extend the schedule
        // in-place: W[g] = msg2(msg1(W[g-4], W[g-3]) +
        // alignr(W[g-1], W[g-2], 4), W[g-1]).
        for g in 0..16 {
            // SAFETY: words 4g..4g + 4 of the 64 in `K`.
            let kv = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast::<__m128i>()) };
            if g >= 4 {
                let carry = _mm_alignr_epi8(msgs[(g + 3) & 3], msgs[(g + 2) & 3], 4);
                let m1 = _mm_sha256msg1_epu32(msgs[g & 3], msgs[(g + 1) & 3]);
                msgs[g & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(m1, carry), msgs[(g + 3) & 3]);
            }
            let wk = _mm_add_epi32(msgs[g & 3], kv);
            *state1 = _mm_sha256rnds2_epu32(*state1, *state0, wk);
            *state0 = _mm_sha256rnds2_epu32(*state0, *state1, _mm_shuffle_epi32(wk, 0x0E));
        }

        *state0 = _mm_add_epi32(*state0, abef_save);
        *state1 = _mm_add_epi32(*state1, cdgh_save);
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
