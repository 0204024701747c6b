//! Arithmetic over the finite field GF(2^8).
//!
//! The field is constructed as GF(2)\[x\] modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the same polynomial used by
//! AES-adjacent storage codes and the classic Rizzo FEC paper. Log/exp
//! tables are built at compile time by a `const fn`, so there is no lazy
//! initialization and no runtime branching on table readiness.
//!
//! ## Slice kernels
//!
//! The block operations ([`mul_slice`], [`mul_slice_acc`], [`xor_slice`])
//! are the inner loops of every encode, decode, scrub and partial update
//! in the system. They use per-coefficient **split-nibble product tables**
//! (ISA-L style): for a fixed coefficient `c`, `c * x` is
//! `LO[c][x & 0xf] ^ HI[c][x >> 4]` — two 16-entry lookups from one
//! 32-byte table row that stays resident in L1, with no per-byte zero
//! branch and no dependent log→exp lookup chain. On x86_64 with AVX2 the
//! two 16-entry tables become `vpshufb` operands, doing 32 bytes of
//! products per shuffle pair; elsewhere (and for tails) the products of
//! an 8-byte chunk are assembled into a `u64` and XOR-accumulated with a
//! single wide load/store pair (SWAR). `tests/oracle/` computes the same
//! products one [`Gf256`] multiplication per byte; the fast kernels are
//! proven bit-identical to that for every coefficient and every tail
//! length (`tests/kernel_proptests.rs`).

/// The primitive polynomial 0x11d, with the implicit x^8 term.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Generator of the multiplicative group used to build the tables.
pub const GENERATOR: u8 = 2;

const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Duplicate the table so `exp[log a + log b]` never needs a mod-255.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_exp_log();
/// `EXP[i] = g^i` for `i in 0..510` (doubled to avoid a modulo on lookup).
pub static EXP: [u8; 512] = TABLES.0;
/// `LOG[a] = log_g a` for `a in 1..=255`; `LOG[0]` is unused and 0.
pub static LOG: [u8; 256] = TABLES.1;

/// An element of GF(2^8).
///
/// Addition is XOR; multiplication goes through the log/exp tables. The
/// type is a transparent wrapper so slices of bytes can be reinterpreted
/// freely by the block routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// Additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics for zero, which has no inverse.
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "zero has no inverse in GF(2^8)");
        Gf256(EXP[255 - LOG[self.0 as usize] as usize])
    }

    /// Exponentiation by a non-negative integer, `self^k`.
    pub fn pow(self, mut k: u32) -> Gf256 {
        if k == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        // log(a^k) = k * log(a) mod 255
        let l = LOG[self.0 as usize] as u64;
        k %= 255; // order of the multiplicative group
        let idx = (l * k as u64) % 255;
        Gf256(EXP[idx as usize])
    }

    /// `g^i` for the field generator.
    #[inline]
    pub fn exp(i: usize) -> Gf256 {
        Gf256(EXP[i % 255])
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    fn from(v: Gf256) -> Self {
        v.0
    }
}

/// Field addition (XOR; identical to subtraction in GF(2^8)).
impl std::ops::Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // addition in GF(2^8) *is* XOR
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

/// Field subtraction (same as addition in characteristic 2).
impl std::ops::Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // characteristic 2: a - b = a + b
    fn sub(self, rhs: Gf256) -> Gf256 {
        self + rhs
    }
}

/// Field multiplication via log/exp tables.
impl std::ops::Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize;
        Gf256(EXP[idx])
    }
}

/// Field division.
///
/// # Panics
/// Panics on division by zero, mirroring integer division semantics.
impl std::ops::Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(rhs.0 != 0, "division by zero in GF(2^8)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = LOG[self.0 as usize] as usize + 255 - LOG[rhs.0 as usize] as usize;
        Gf256(EXP[idx])
    }
}

// ---------------------------------------------------------------------------
// Split-nibble product tables — built once, at compile time.
// ---------------------------------------------------------------------------

/// Carry-less "Russian peasant" multiply. Only used at table-build time
/// (and as a cross-check in tests); deliberately independent of the
/// log/exp tables so the two constructions validate each other.
const fn gf_mul_const(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= (PRIMITIVE_POLY & 0xff) as u8;
        }
        b >>= 1;
    }
    p
}

const fn build_nibble_tables() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            t[c][x] = gf_mul_const(c as u8, x as u8);
            t[c][16 + x] = gf_mul_const(c as u8, (x as u8) << 4);
            x += 1;
        }
        c += 1;
    }
    t
}

/// Per-coefficient split-nibble product tables (8 KiB total).
///
/// `NIBBLE[c][x]` is `c * x` for `x < 16`, and `NIBBLE[c][16 + x]` is
/// `c * (x << 4)`, so a full product is two 16-entry lookups:
/// `c * b == NIBBLE[c][b & 0xf] ^ NIBBLE[c][16 + (b >> 4)]`. Each row is
/// 32 bytes — half a cache line — so a whole shard sweep with one fixed
/// coefficient touches exactly one line of table state.
static NIBBLE: [[u8; 32]; 256] = build_nibble_tables();

/// Byte budget one fused encode pass keeps hot per shard; see
/// `Matrix::mul_shards_into`. Sized so `(parity_rows + 1) * FUSED_BLOCK`
/// fits comfortably in L1/L2 for realistic parity counts.
pub const FUSED_BLOCK: usize = 16 * 1024;

/// AVX2 nibble-shuffle kernels: `vpshufb` performs all sixteen low-nibble
/// table lookups of a 128-bit lane in a single instruction, so a 32-byte
/// chunk costs two shuffles and three XORs instead of 64 scalar table
/// loads. Gated at runtime; the portable SWAR loops below remain the
/// fallback (and handle the tail the vector loop leaves behind).
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// Whether the AVX2 path may be used. `std` caches the CPUID probe,
    /// so calling this per slice operation is a load, not a `cpuid`.
    #[inline]
    pub fn usable() -> bool {
        std::is_x86_feature_detected!("avx2")
    }

    /// Processes the 32-byte-aligned prefix of `dst[i] ^= c * src[i]`,
    /// returning the number of bytes consumed. `table` is the
    /// coefficient's 32-byte split-nibble row (`lo` then `hi` half).
    ///
    /// # Safety
    /// The caller must ensure AVX2 is available (see [`usable`]) and that
    /// `dst` and `src` have equal length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_slice_acc(dst: &mut [u8], src: &[u8], table: &[u8; 32]) -> usize {
        let n = dst.len() & !31;
        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast()));
        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16).cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            let prod = _mm256_xor_si256(lo, hi);
            let d = dst.as_mut_ptr().add(i);
            let acc = _mm256_xor_si256(_mm256_loadu_si256(d.cast()), prod);
            _mm256_storeu_si256(d.cast(), acc);
            i += 32;
        }
        n
    }

    /// Same shuffle kernel without the accumulate: `dst[i] = c * src[i]`.
    ///
    /// # Safety
    /// As for [`mul_slice_acc`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_slice(dst: &mut [u8], src: &[u8], table: &[u8; 32]) -> usize {
        let n = dst.len() & !31;
        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast()));
        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16).cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(lo, hi));
            i += 32;
        }
        n
    }
}

// ---------------------------------------------------------------------------
// Block (slice) operations — the hot loops of encoding.
// ---------------------------------------------------------------------------

/// `dst[i] ^= c * src[i]` over whole slices — the inner loop of
/// Reed-Solomon encoding. Uses the split-nibble tables and processes
/// 8 bytes per iteration, folding the accumulate into one u64 XOR.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_slice_acc length mismatch");
    if c.0 == 0 {
        return;
    }
    if c.0 == 1 {
        xor_slice(dst, src);
        return;
    }
    let table = &NIBBLE[c.0 as usize];
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::usable() {
        // SAFETY: AVX2 presence was just checked; lengths match per the
        // assert above.
        done = unsafe { simd::mul_slice_acc(dst, src, table) };
    }
    let (lo, hi) = table.split_at(16);
    let mut d8 = dst[done..].chunks_exact_mut(8);
    let mut s8 = src[done..].chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let mut prod = [0u8; 8];
        for (p, &b) in prod.iter_mut().zip(s) {
            *p = lo[(b & 0x0f) as usize] ^ hi[(b >> 4) as usize];
        }
        let acc = u64::from_le_bytes(<[u8; 8]>::try_from(&d[..]).expect("8-byte chunk"))
            ^ u64::from_le_bytes(prod);
        d.copy_from_slice(&acc.to_le_bytes());
    }
    for (d, &b) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d ^= lo[(b & 0x0f) as usize] ^ hi[(b >> 4) as usize];
    }
}

/// `dst[i] = c * src[i]` over whole slices, via the split-nibble tables.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
    if c.0 == 0 {
        dst.fill(0);
        return;
    }
    if c.0 == 1 {
        dst.copy_from_slice(src);
        return;
    }
    let table = &NIBBLE[c.0 as usize];
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::usable() {
        // SAFETY: AVX2 presence was just checked; lengths match per the
        // assert above.
        done = unsafe { simd::mul_slice(dst, src, table) };
    }
    let (lo, hi) = table.split_at(16);
    let mut d8 = dst[done..].chunks_exact_mut(8);
    let mut s8 = src[done..].chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let mut prod = [0u8; 8];
        for (p, &b) in prod.iter_mut().zip(s) {
            *p = lo[(b & 0x0f) as usize] ^ hi[(b >> 4) as usize];
        }
        d.copy_from_slice(&prod);
    }
    for (d, &b) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d = lo[(b & 0x0f) as usize] ^ hi[(b >> 4) as usize];
    }
}

/// `dst[i] ^= src[i]` — pure XOR accumulate (the RAID5 hot loop),
/// 8 bytes at a time via u64 loads with a scalar tail.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
    let mut d8 = dst.chunks_exact_mut(8);
    let mut s8 = src.chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let x = u64::from_le_bytes(<[u8; 8]>::try_from(&d[..]).expect("8-byte chunk"))
            ^ u64::from_le_bytes(<[u8; 8]>::try_from(s).expect("8-byte chunk"));
        d.copy_from_slice(&x.to_le_bytes());
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // exp and log are mutually inverse on the multiplicative group.
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
        // The doubled half mirrors the first half.
        for i in 255..510 {
            assert_eq!(EXP[i], EXP[i - 255]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g^i must enumerate all 255 nonzero elements.
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = Gf256::exp(i).0;
            assert!(!seen[v as usize], "g^{i} repeats value {v}");
            seen[v as usize] = true;
        }
        assert!(!seen[0]);
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less "Russian peasant" multiplication as the oracle.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (PRIMITIVE_POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!((Gf256(a) * Gf256(b)).0, slow_mul(a, b), "mismatch at {a} * {b}");
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                let p = Gf256(a) * Gf256(b);
                assert_eq!(p / Gf256(b), Gf256(a));
            }
        }
    }

    #[test]
    fn inverse_works_for_all_nonzero() {
        for a in 1..=255u8 {
            assert_eq!(Gf256(a) * Gf256(a).inv(), Gf256::ONE);
        }
    }

    #[test]
    fn pow_basic_identities() {
        for a in 0..=255u8 {
            assert_eq!(Gf256(a).pow(0), Gf256::ONE);
            assert_eq!(Gf256(a).pow(1), Gf256(a));
            assert_eq!(Gf256(a).pow(2), Gf256(a) * Gf256(a));
        }
        // Fermat: a^255 == 1 for nonzero a (group order 255).
        for a in 1..=255u8 {
            assert_eq!(Gf256(a).pow(255), Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Gf256(5) / Gf256(0);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn nibble_tables_match_log_exp_mul() {
        // Every split-nibble product agrees with the log/exp multiply,
        // cross-validating the two table constructions.
        for c in 0..=255u8 {
            let (lo, hi) = NIBBLE[c as usize].split_at(16);
            for b in 0..=255u8 {
                let fast = lo[(b & 0x0f) as usize] ^ hi[(b >> 4) as usize];
                assert_eq!(fast, (Gf256(c) * Gf256(b)).0, "mismatch at {c} * {b}");
            }
        }
    }

    #[test]
    fn slice_ops_match_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 3, 0x53, 0xff] {
            let mut dst = vec![0xAAu8; 256];
            let mut expect = dst.clone();
            mul_slice_acc(&mut dst, &src, Gf256(c));
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= (Gf256(c) * Gf256(*s)).0;
            }
            assert_eq!(dst, expect, "mul_acc c={c}");

            let mut dst2 = vec![0u8; 256];
            mul_slice(&mut dst2, &src, Gf256(c));
            let expect2: Vec<u8> = src.iter().map(|&s| (Gf256(c) * Gf256(s)).0).collect();
            assert_eq!(dst2, expect2, "mul c={c}");
        }
        let mut d = vec![0b1010u8; 16];
        xor_slice(&mut d, &[0b0110u8; 16]);
        assert!(d.iter().all(|&b| b == 0b1100));
    }

    #[test]
    fn operators_delegate() {
        assert_eq!(Gf256(3) + Gf256(5), Gf256(6));
        assert_eq!(Gf256(3) - Gf256(5), Gf256(6));
        assert_eq!((Gf256(7) * Gf256(9)) / Gf256(9), Gf256(7));
        assert_eq!(u8::from(Gf256::from(42u8)), 42);
    }
}
