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
//! One loop is the inner loop of every encode, decode, scrub, rebuild and
//! partial update in the system: [`combine`] (with [`combine_into`] and
//! the accumulating [`combine_acc`] over it) computes one output row
//! `dst[i] = Σ c_j * src_j[i]` walking all sources in lockstep, so each
//! output byte is written once and every stream is read front to back.
//! Products use per-coefficient **split-nibble tables** (ISA-L style):
//! for a fixed coefficient `c`, `c * x` is `LO[c][x & 0xf] ^ HI[c][x >> 4]`
//! — two 16-entry lookups from one 32-byte table row that stays resident
//! in L1, with no per-byte zero branch and no dependent log→exp lookup
//! chain. On x86_64 with AVX2 the two 16-entry tables become `vpshufb`
//! operands, 64 bytes of every source per step; with AVX-512F a set of
//! unit terms — all of RAID5 — needs no tables and is XORed 128 bytes a
//! step; elsewhere (and for tails) a step is eight bytes. The loop reads
//! its sources from an offset, so a blocked caller hands it one window of
//! whole fragments without re-slicing them. `tests/oracle/` computes the
//! same sums one [`Gf256`] multiplication per byte; each implementation
//! is proven bit-identical to that for every coefficient kind, term
//! count, tail length and source alignment (`tests/kernel_proptests.rs`).

use std::mem::MaybeUninit;

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

/// The all-ones parity row, as long as a code over GF(2^8) can be: XOR
/// parity's coefficients, lent by RAID5 and RAID6's P.
pub(crate) static ONES: [Gf256; 255] = [Gf256::ONE; 255];

/// `POWERS[i] = g^i`: RAID6's Q row, lent like [`ONES`].
pub(crate) static POWERS: [Gf256; 255] = {
    let mut powers = [Gf256::ZERO; 255];
    let mut i = 0;
    while i < 255 {
        powers[i] = Gf256(TABLES.0[i]);
        i += 1;
    }
    powers
};

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

/// Bytes of each shard one step of the multi-row encode works on; see
/// `Matrix::mul_shards_into`. Sized so a block of every data shard
/// (`m * FUSED_BLOCK`) stays in L2 while one output row after another is
/// computed from it, for realistic shard counts.
pub const FUSED_BLOCK: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// The lockstep kernel — the one loop under every slice operation.
// ---------------------------------------------------------------------------

/// One term of a linear combination: a coefficient and the bytes it
/// scales.
pub trait Term {
    /// The factor every byte of [`Term::source`] is multiplied by.
    fn coefficient(&self) -> Gf256;
    /// The bytes.
    fn source(&self) -> &[u8];
}

impl Term for (Gf256, &[u8]) {
    fn coefficient(&self) -> Gf256 {
        self.0
    }
    fn source(&self) -> &[u8] {
        self.1
    }
}

/// A bare slice counts once: XOR parity takes its shards as they lie.
impl Term for &[u8] {
    fn coefficient(&self) -> Gf256 {
        Gf256::ONE
    }
    fn source(&self) -> &[u8] {
        self
    }
}

/// Which implementation runs the lockstep loop. Everything but the
/// bit-identity tests takes [`Kernel::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `u64` SWAR, eight bytes a step; also finishes the tail the vector
    /// loop leaves.
    Portable,
    /// `vpshufb` on 256-bit registers, 64 bytes a step. Asked for on a
    /// CPU without AVX2, it is [`Kernel::Portable`].
    Avx2,
    /// A term set whose every coefficient is 1 — every RAID5 encode,
    /// decode, parity update and rebuild — XORed in 512-bit registers,
    /// 128 bytes a step; any other term set runs [`Kernel::Avx2`]. Asked
    /// for on a CPU without AVX-512F, it is [`Kernel::Avx2`].
    Avx512,
}

impl Kernel {
    /// The fastest kernel this CPU runs. `std` caches the CPUID probe, so
    /// this is a load or two per slice operation, not a `cpuid`.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return if std::is_x86_feature_detected!("avx512f") {
                Kernel::Avx512
            } else {
                Kernel::Avx2
            };
        }
        Kernel::Portable
    }
}

/// `c * b` through the coefficient's split-nibble row.
#[inline(always)]
fn mul_byte(c: Gf256, b: u8) -> u8 {
    let row = &NIBBLE[c.0 as usize];
    row[(b & 0x0f) as usize] ^ row[16 + (b >> 4) as usize]
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Term, NIBBLE};
    use std::arch::x86_64::*;

    /// The 64-byte steps of [`super::lockstep`]; returns the bytes done.
    /// `vpshufb` performs all sixteen nibble lookups of a 128-bit lane at
    /// once, so a non-unit term costs two shuffles and three XORs per 32
    /// bytes; the two table halves are broadcast loads that hit L1.
    ///
    /// # Safety
    /// As for [`super::lockstep`], and the CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lockstep<const ACC: bool, T: Term>(
        dst: *mut u8,
        len: usize,
        offset: usize,
        terms: &[T],
    ) -> usize {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn product(s: __m256i, lo_t: __m256i, hi_t: __m256i) -> __m256i {
            let mask = _mm256_set1_epi8(0x0f);
            let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            _mm256_xor_si256(lo, hi)
        }
        let done = len & !63;
        for at in (0..done).step_by(64) {
            // SAFETY: `at + 64 <= len` bounds `dst` by the caller's contract,
            // and each source by the 64-byte slice taken of it (a `Term` is
            // safe code: it is checked at every step, not trusted); all loads and stores
            // are the unaligned forms. `dst` is read only when the caller
            // vouched for its contents (`ACC`).
            unsafe {
                let d = dst.add(at).cast::<__m256i>();
                let (mut a0, mut a1) = if ACC {
                    (_mm256_loadu_si256(d), _mm256_loadu_si256(d.add(1)))
                } else {
                    (_mm256_setzero_si256(), _mm256_setzero_si256())
                };
                for term in terms {
                    let c = term.coefficient();
                    let s = term.source()[offset + at..offset + at + 64].as_ptr().cast::<__m256i>();
                    let (mut s0, mut s1) = (_mm256_loadu_si256(s), _mm256_loadu_si256(s.add(1)));
                    if c.0 != 1 {
                        let row = NIBBLE[c.0 as usize].as_ptr().cast::<__m128i>();
                        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(row));
                        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(1)));
                        (s0, s1) = (product(s0, lo_t, hi_t), product(s1, lo_t, hi_t));
                    }
                    (a0, a1) = (_mm256_xor_si256(a0, s0), _mm256_xor_si256(a1, s1));
                }
                _mm256_storeu_si256(d, a0);
                _mm256_storeu_si256(d.add(1), a1);
            }
        }
        done
    }

    /// The 128-byte steps of [`super::lockstep`] for a term set whose
    /// every coefficient is 1: two 512-bit loads and XORs per term and
    /// step, no tables. Returns the bytes done.
    ///
    /// # Safety
    /// As for [`super::lockstep`], and the CPU must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_lockstep<const ACC: bool, T: Term>(
        dst: *mut u8,
        len: usize,
        offset: usize,
        terms: &[T],
    ) -> usize {
        let done = len & !127;
        for at in (0..done).step_by(128) {
            // SAFETY: as in `lockstep` above, with 128-byte steps: `at + 128
            // <= len` bounds `dst`, the slice taken of each source bounds
            // it, and every load and store is the unaligned form.
            unsafe {
                let d = dst.add(at);
                let (mut a0, mut a1) = if ACC {
                    let d = d.cast_const();
                    (_mm512_loadu_si512(d.cast()), _mm512_loadu_si512(d.add(64).cast()))
                } else {
                    (_mm512_setzero_si512(), _mm512_setzero_si512())
                };
                for term in terms {
                    let s = term.source()[offset + at..offset + at + 128].as_ptr();
                    a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(s.cast()));
                    a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(s.add(64).cast()));
                }
                _mm512_storeu_si512(d.cast(), a0);
                _mm512_storeu_si512(d.add(64).cast(), a1);
            }
        }
        done
    }
}

/// One `N`-byte step of the portable loop at `at`: `N` is 8 (the arrays
/// compile to `u64` loads, XORs and one store) or 1 for the tail.
///
/// # Safety
/// As for [`lockstep`], with `at + N <= len`.
#[inline(always)]
unsafe fn swar_step<const ACC: bool, const N: usize, T: Term>(
    dst: *mut u8,
    at: usize,
    offset: usize,
    terms: &[T],
) {
    // SAFETY: `at + N <= len` keeps the pointer inside `dst`'s `len` bytes.
    let d = unsafe { dst.add(at).cast::<[u8; N]>() };
    // SAFETY: `[u8; N]` has alignment 1, and `dst` is readable when `ACC`.
    let mut acc = if ACC { unsafe { d.read() } } else { [0u8; N] };
    for term in terms {
        let c = term.coefficient();
        let from = offset + at;
        let s = <[u8; N]>::try_from(&term.source()[from..from + N]).expect("N-byte chunk");
        let s = if c.0 == 1 { s } else { s.map(|b| mul_byte(c, b)) };
        acc.iter_mut().zip(s).for_each(|(a, b)| *a ^= b);
    }
    // SAFETY: `[u8; N]` has alignment 1, and `dst` is writable.
    unsafe { d.write(acc) };
}

/// `dst[i] = Σ c_j * src_j[offset + i]` for `i < len` — added to what
/// `dst` holds when `ACC` — walking every source in lockstep and writing
/// each output byte exactly once: however many terms, the loop is one
/// forward pass over `terms.len() + 1` streams, which is what the
/// hardware prefetcher follows. A unit coefficient is a plain XOR (and a
/// set of nothing else takes the AVX-512 loop where [`Kernel::Avx512`]
/// runs), a zero one multiplies through the all-zero table row, and no
/// term at all leaves the zero sum. Returns the bytes written, which is
/// `len`.
///
/// # Safety
/// `dst` must be valid for writes of `len` bytes, hold initialised bytes
/// if `ACC`, and overlap no source.
///
/// # Panics
/// If a source is shorter than `offset + len` — at the step that runs off
/// its end; the safe entry points check the lengths before the first byte
/// moves.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables, unused_mut))]
unsafe fn lockstep<const ACC: bool, T: Term>(
    kernel: Kernel,
    dst: *mut u8,
    len: usize,
    offset: usize,
    terms: &[T],
) -> usize {
    let mut at = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if kernel == Kernel::Avx512
            && terms.iter().all(|t| t.coefficient() == Gf256::ONE)
            && std::is_x86_feature_detected!("avx512f")
        {
            // SAFETY: AVX-512F was just detected; the rest is this
            // function's contract.
            at = unsafe { simd::xor_lockstep::<ACC, T>(dst, len, offset, terms) };
        }
        if kernel != Kernel::Portable && std::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected; `dst + at` has `len - at`
            // bytes left and the sources `offset + at` onwards, and the
            // rest is this function's contract.
            at += unsafe { simd::lockstep::<ACC, T>(dst.add(at), len - at, offset + at, terms) };
        }
    }
    while len - at >= 8 {
        // SAFETY: `at + 8 <= len`; the rest is this function's contract.
        unsafe { swar_step::<ACC, 8, T>(dst, at, offset, terms) };
        at += 8;
    }
    while at < len {
        // SAFETY: `at + 1 <= len`; the rest is this function's contract.
        unsafe { swar_step::<ACC, 1, T>(dst, at, offset, terms) };
        at += 1;
    }
    at
}

/// The length every source of `terms` has, if there is a source.
///
/// # Panics
/// If two sources differ in length.
fn source_len<T: Term>(terms: &[T]) -> Option<usize> {
    let len = terms.first()?.source().len();
    assert!(terms.iter().all(|t| t.source().len() == len), "sources differ in length");
    Some(len)
}

/// `dst[i] = Σ c_j * src_j[i]` over whole slices: the single-output
/// reconstruction every code shares (a lost fragment from the survivors,
/// a parity row from the data), in one pass. Prior contents of `dst` are
/// discarded.
///
/// # Panics
/// If the sources do not all have `dst`'s length.
pub fn combine<T: Term>(dst: &mut [u8], terms: &[T]) {
    assert!(source_len(terms).is_none_or(|len| len == dst.len()), "combine length mismatch");
    // SAFETY: a `&mut [u8]` is writable for its length and overlaps no `&[u8]`.
    unsafe { lockstep::<false, T>(Kernel::detect(), dst.as_mut_ptr(), dst.len(), 0, terms) };
}

/// Appends `Σ c_j * src_j[..take]` to `out`, written straight into the
/// `Vec`'s spare capacity: no zero fill, each new byte stored once.
///
/// # Panics
/// If the sources differ in length or are shorter than `take`.
pub fn combine_into<T: Term>(out: &mut Vec<u8>, take: usize, terms: &[T]) {
    combine_into_with(Kernel::detect(), out, take, terms);
}

/// [`combine_into`] on a chosen kernel — for the bit-identity tests, which
/// must reach every implementation on one host.
pub fn combine_into_with<T: Term>(kernel: Kernel, out: &mut Vec<u8>, take: usize, terms: &[T]) {
    combine_into_at(kernel, out, take, 0, terms);
}

/// [`combine_into_with`] from `offset` on: appends `take` bytes of
/// `Σ c_j * src_j[offset..]` to `out` — one column of a blocked encode.
///
/// # Panics
/// If the sources differ in length or end before `offset + take`.
pub(crate) fn combine_into_at<T: Term>(
    kernel: Kernel,
    out: &mut Vec<u8>,
    take: usize,
    offset: usize,
    terms: &[T],
) {
    out.reserve(take);
    combine_window(kernel, &mut out.spare_capacity_mut()[..take], offset, terms);
    // SAFETY: `combine_window` stored every one of the `take` bytes after
    // `len`.
    unsafe { out.set_len(out.len() + take) };
}

/// Stores `Σ c_j * src_j[offset..offset + dst.len()]` into `dst`, which
/// need not be initialised: one window of every source, each byte of
/// `dst` written once — the step of the column decode, and under
/// [`combine_into`].
///
/// # Panics
/// If the sources differ in length or end before `offset + dst.len()`,
/// before a byte is written.
pub(crate) fn combine_window<T: Term>(
    kernel: Kernel,
    dst: &mut [MaybeUninit<u8>],
    offset: usize,
    terms: &[T],
) {
    let end = offset.checked_add(dst.len()).expect("window end overflows");
    assert!(source_len(terms).is_none_or(|len| len >= end), "combine window out of bounds");
    // SAFETY: `dst` is writable for its length and, borrowed mutably,
    // overlaps no source.
    let written =
        unsafe { lockstep::<false, T>(kernel, dst.as_mut_ptr().cast(), dst.len(), offset, terms) };
    assert_eq!(written, dst.len(), "the kernel skipped output bytes");
}

/// `dst[i] ^= Σ c_j * src_j[i]` over whole slices — [`combine`] on top of
/// what `dst` holds: one read-modify-write pass however many terms.
///
/// # Panics
/// If the sources do not all have `dst`'s length.
pub fn combine_acc<T: Term>(dst: &mut [u8], terms: &[T]) {
    combine_acc_with(Kernel::detect(), dst, terms);
}

/// [`combine_acc`] on a chosen kernel — for the bit-identity tests.
pub fn combine_acc_with<T: Term>(kernel: Kernel, dst: &mut [u8], terms: &[T]) {
    assert!(source_len(terms).is_none_or(|len| len == dst.len()), "combine_acc length mismatch");
    // SAFETY: a `&mut [u8]` is initialised, writable for its length and
    // overlaps no `&[u8]`.
    unsafe { lockstep::<true, T>(kernel, dst.as_mut_ptr(), dst.len(), 0, terms) };
}

/// `dst[i] ^= c * src[i]` over whole slices: [`combine_acc`] of one term.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_slice_acc length mismatch");
    if c.0 != 0 {
        combine_acc(dst, &[(c, src)]);
    }
}

/// `dst[i] ^= src[i]`: [`combine_acc`] of one unit term.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
    combine_acc(dst, &[src]);
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

            let expect2: Vec<u8> = src.iter().map(|&s| (Gf256(c) * Gf256(s)).0).collect();
            let mut dst2 = vec![0xAAu8; 256];
            combine(&mut dst2, &[(Gf256(c), &src[..])]);
            assert_eq!(dst2, expect2, "combine c={c}");
            // Appended after what is there, into capacity that held other bytes.
            let mut dst3 = vec![0xAAu8; 300];
            dst3.truncate(7);
            combine_into(&mut dst3, 200, &[(Gf256(c), &src[..])]);
            assert_eq!(dst3, [&[0xAA; 7][..], &expect2[..200]].concat(), "combine_into c={c}");
        }
        let mut d = vec![0b1010u8; 16];
        xor_slice(&mut d, &[0b0110u8; 16]);
        assert!(d.iter().all(|&b| b == 0b1100));
        let mut none = vec![7u8; 70];
        combine::<&[u8]>(&mut none, &[]);
        assert_eq!(none, vec![0u8; 70], "the empty sum is zero");
    }

    #[test]
    fn operators_delegate() {
        assert_eq!(Gf256(3) + Gf256(5), Gf256(6));
        assert_eq!(Gf256(3) - Gf256(5), Gf256(6));
        assert_eq!((Gf256(7) * Gf256(9)) / Gf256(9), Gf256(7));
        assert_eq!(u8::from(Gf256::from(42u8)), 42);
    }
}
