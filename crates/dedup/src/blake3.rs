//! BLAKE3, written from its specification, for the block digests
//! `hyrd::integrity` records and verifies.
//!
//! An object is cut into 1 KiB chunks, and each chunk's 64-byte blocks are
//! compressed in a chain that starts from the IV and carries the chunk's
//! index as its counter. The chunks' chaining values are then merged two
//! by two in parent nodes: a left-balanced binary tree, so every node
//! covers an aligned power-of-two run of chunks, except on the tree's
//! right edge. The root node's first 32 output bytes are the hash.
//!
//! Integrity keeps one table entry per 4 KiB of an object: the chaining
//! value of the subtree over chunks `4i..4i + 4`. That subtree is a node of
//! the object's own tree whenever the object is longer than 4 KiB, so the
//! table folds to [`hash`] of the object. [`subtree_cvs`] computes up to
//! sixteen entries per call, wherever they lie in the object, and
//! allocates nothing. It packs every full chunk of all of them into the
//! widest kernel that count fills, then hashes their parent nodes the
//! same way:
//!
//! * [`Kernel::Avx512`] — sixteen or eight compressions side by side in
//!   the 32-bit lanes of `zmm` or `ymm` registers, each rotation one
//!   `vprord`. Fewer than eight chains go through a row-wise compress,
//!   up to four at a time: each chain's state in four rows, one chain per
//!   128-bit lane of `ymm` (two chains) or `zmm` (four) registers, the
//!   message words of each step laid out by `vpermt2d`.
//! * [`Kernel::Avx2`] — eight lanes in `ymm` registers (AVX2) or four in
//!   `xmm` (SSE4.1), rotating by byte shuffles and shift pairs. What is
//!   left goes through the portable compress.
//! * [`Kernel::Portable`] — one chain at a time, on `u32` words.
//!
//! Every kernel produces the same values for every input; the tests in
//! `tests/blake3_kernels.rs` check the official test vectors on each.

use std::array;

/// The 32-byte hash, and a chaining value in its little-endian bytes.
pub type Digest = [u8; 32];

/// Bytes in a chunk: the leaves of the tree.
pub const CHUNK_LEN: usize = 1024;

/// Bytes under one [`subtree_cvs`] value: four chunks.
pub const SUBTREE_LEN: usize = 4 * CHUNK_LEN;

/// Most subtrees one [`subtree_cvs`] call takes: one pass of the
/// sixteen-lane kernel when each holds one full chunk.
pub const MAX_SUBTREES: usize = 16;

const BLOCK_LEN: usize = 64;

const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const CHUNK_START: u32 = 1 << 0;
const CHUNK_END: u32 = 1 << 1;
const PARENT: u32 = 1 << 2;
const ROOT: u32 = 1 << 3;

/// The message word each of round `r`'s sixteen inputs reads: the
/// identity, then the specification's permutation applied once a round.
const SCHEDULE: [[usize; 16]; 7] = {
    const PERMUTATION: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];
    let mut schedule = [[0; 16]; 7];
    let mut i = 0;
    while i < 16 {
        schedule[0][i] = i;
        i += 1;
    }
    let mut r = 1;
    while r < 7 {
        let mut i = 0;
        while i < 16 {
            schedule[r][i] = schedule[r - 1][PERMUTATION[i]];
            i += 1;
        }
        r += 1;
    }
    schedule
};

/// A chaining value as the compression function sees it.
type Cv = [u32; 8];

/// Where the compressions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Sixteen- and eight-lane passes, and a row-wise compress of up to
    /// four chains at a time, on AVX-512F/VL.
    Avx512,
    /// Eight-lane passes on AVX2 and four-lane ones on SSE4.1.
    Avx2,
    /// One chain at a time on `u32` words; runs everywhere.
    Portable,
}

impl Kernel {
    /// The fastest kernel this CPU runs. `std` caches the CPUID probe.
    pub fn detect() -> Kernel {
        if Kernel::Avx512.supported() {
            Kernel::Avx512
        } else if Kernel::Avx2.supported() {
            Kernel::Avx2
        } else {
            Kernel::Portable
        }
    }

    /// Whether this CPU can run the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Avx512 => x86::avx512(),
            Kernel::Avx2 => x86::avx2(),
            Kernel::Portable => true,
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx512 => "avx512",
            Kernel::Avx2 => "avx2",
            Kernel::Portable => "portable",
        }
    }

    /// The widest pass `count` chains fill, 1 being none. Fewer than
    /// eight chains on AVX-512 go row-wise, four at a time: faster than a
    /// four-lane pass.
    fn lanes(self, count: usize) -> usize {
        let passes: &[usize] = match self {
            Kernel::Avx512 => &[16, 8],
            Kernel::Avx2 => &[8, 4],
            Kernel::Portable => &[],
        };
        passes.iter().copied().find(|&lanes| lanes <= count).unwrap_or(1)
    }

    /// Writes into `out[i]` the chaining value of `chains[i]`: on AVX-512
    /// up to four at a time, one in each 128-bit lane of the row-wise
    /// compress; elsewhere one after another.
    fn chains(self, chains: &[Chain], out: &mut [Cv]) {
        if self == Kernel::Avx512 {
            for (group, out) in chains.chunks(4).zip(out.chunks_mut(4)) {
                // SAFETY: every caller checked `supported` before it chose
                // this kernel.
                out.copy_from_slice(unsafe { &x86::rows(group)[..group.len()] });
            }
        } else {
            for (chain, out) in chains.iter().zip(out) {
                *out = chain.portable();
            }
        }
    }

    fn chain(self, chain: Chain) -> Cv {
        let mut out = [IV];
        self.chains(&[chain], &mut out);
        out[0]
    }
}

/// A run of compressions: `input`'s 64-byte blocks in order, the last
/// one zero-padded (one empty block when `input` is empty), chained from
/// the IV under `counter`; `flags` on every block, `start` added on the
/// first and `end` on the last. A chunk, or a parent node.
#[derive(Debug, Clone, Copy)]
struct Chain<'a> {
    input: &'a [u8],
    counter: u64,
    flags: u32,
    start: u32,
    end: u32,
}

impl<'a> Chain<'a> {
    /// A chunk of at most [`CHUNK_LEN`] bytes; `root` is added to the
    /// last block's flags.
    fn chunk(input: &'a [u8], counter: u64, root: u32) -> Self {
        Chain { input, counter, flags: 0, start: CHUNK_START, end: CHUNK_END | root }
    }

    /// The parent over the two chaining values in `block`.
    fn parent(block: &'a [u8; 64], root: u32) -> Self {
        Chain { input: block, counter: 0, flags: PARENT | root, start: 0, end: 0 }
    }

    fn blocks(&self) -> usize {
        self.input.len().div_ceil(BLOCK_LEN).max(1)
    }

    fn flags(&self, block: usize) -> u32 {
        let mut flags = self.flags;
        if block == 0 {
            flags |= self.start;
        }
        if block + 1 == self.blocks() {
            flags |= self.end;
        }
        flags
    }

    /// The last block, zero-padded, and its length.
    fn last(&self) -> ([u8; 64], u32) {
        let tail = &self.input[(self.blocks() - 1) * BLOCK_LEN..];
        let mut block = [0; 64];
        block[..tail.len()].copy_from_slice(tail);
        (block, tail.len() as u32)
    }

    /// The chain on `u32` words.
    fn portable(&self) -> Cv {
        let counter = [self.counter as u32, (self.counter >> 32) as u32];
        let (last, last_len) = self.last();
        let mut cv = IV;
        for b in 0..self.blocks() {
            let (block, len) = match self.input.get(b * BLOCK_LEN..(b + 1) * BLOCK_LEN) {
                Some(full) if b + 1 < self.blocks() => (full.try_into().expect("64 bytes"), 64),
                _ => (&last, last_len),
            };
            // SAFETY: `u32` lanes are plain integer arithmetic.
            cv = unsafe {
                compress_lanes::<1, u32>(&cv, &u32::message(&[block]), counter, len, self.flags(b))
            };
        }
        cv
    }
}

fn parent_block(left: &Digest, right: &Digest) -> [u8; 64] {
    let mut block = [0; 64];
    block[..32].copy_from_slice(left);
    block[32..].copy_from_slice(right);
    block
}

fn to_bytes(cv: &Cv) -> Digest {
    let mut out = [0; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(cv) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The BLAKE3 hash of `input` on the fastest kernel this CPU runs.
pub fn hash(input: &[u8]) -> Digest {
    hash_with(Kernel::detect(), input)
}

/// The BLAKE3 hash of `input`, each node on `kernel`'s one-chain path:
/// the tree walked as the specification draws it, one node at a time.
/// The reference the [`subtree_cvs`] tables fold to.
///
/// # Panics
/// If this CPU cannot run `kernel`.
pub fn hash_with(kernel: Kernel, input: &[u8]) -> Digest {
    assert!(kernel.supported(), "kernel {} not supported on this CPU", kernel.name());
    to_bytes(&node(kernel, input, 0, ROOT))
}

/// The parent node over two chaining values: the chaining value of their
/// subtree, or with `root` the hash of the whole tree.
pub fn parent(left: &Digest, right: &Digest, root: bool) -> Digest {
    let block = parent_block(left, right);
    to_bytes(&Kernel::Portable.chain(Chain::parent(&block, if root { ROOT } else { 0 })))
}

/// The chaining value of the subtree over `input`, whose first chunk is
/// chunk number `counter`; `root` is added to the top node's flags.
fn node(kernel: Kernel, input: &[u8], counter: u64, root: u32) -> Cv {
    if input.len() <= CHUNK_LEN {
        return kernel.chain(Chain::chunk(input, counter, root));
    }
    // The left subtree takes the most chunks that are a power of two and
    // leave the right one some.
    let chunks = input.len().div_ceil(CHUNK_LEN);
    let left = 1 << (chunks - 1).ilog2();
    let (l, r) = input.split_at(left * CHUNK_LEN);
    let l = to_bytes(&node(kernel, l, counter, 0));
    let r = to_bytes(&node(kernel, r, counter + left as u64, 0));
    kernel.chain(Chain::parent(&parent_block(&l, &r), root))
}

/// [`subtree_cvs_with`] on the fastest kernel this CPU runs.
pub fn subtree_cvs(subtrees: &[(u64, &[u8])], out: &mut [Digest]) {
    subtree_cvs_with(Kernel::detect(), subtrees, out);
}

/// Writes into `out[s]` the chaining value of the subtree `subtrees[s] =
/// (i, bytes)` names: `bytes` — at most [`SUBTREE_LEN`] of them, one
/// empty chunk when empty — as chunks `4i..4i + 4` of an object. Never
/// root-flagged, so a subtree of a longer object is the node of its tree.
/// The full chunks of all subtrees go through the widest passes of
/// `kernel` their count fills, what is left and the short last chunks
/// through its one-chain path; then the parents of each level the same
/// way. Allocates nothing.
///
/// # Panics
/// If this CPU cannot run `kernel`, on more than [`MAX_SUBTREES`]
/// subtrees, on one longer than [`SUBTREE_LEN`], if `out.len()` is not
/// `subtrees.len()`, or if a chunk counter overflows.
pub fn subtree_cvs_with(kernel: Kernel, subtrees: &[(u64, &[u8])], out: &mut [Digest]) {
    assert!(kernel.supported(), "kernel {} not supported on this CPU", kernel.name());
    assert!(
        subtrees.len() <= MAX_SUBTREES && out.len() == subtrees.len(),
        "subtree_cvs: {} values for {} subtrees, at most {MAX_SUBTREES}",
        out.len(),
        subtrees.len(),
    );
    // The work lists live on the stack, sized for the call: writing out
    // room for sixteen subtrees would cost a one-chunk object a third of
    // its time.
    match subtrees.len() {
        0 | 1 => tree::<1, 4, 2>(kernel, subtrees, out),
        2..=4 => tree::<4, 16, 8>(kernel, subtrees, out),
        _ => {
            tree::<MAX_SUBTREES, { 4 * MAX_SUBTREES }, { 2 * MAX_SUBTREES }>(kernel, subtrees, out)
        }
    }
}

/// [`subtree_cvs_with`] of at most `S` subtrees: room for `C = 4 * S`
/// chunks and `P = 2 * S` parents.
fn tree<const S: usize, const C: usize, const P: usize>(
    kernel: Kernel,
    subtrees: &[(u64, &[u8])],
    out: &mut [Digest],
) {
    assert!(subtrees.len() <= S && C == 4 * S && P == 2 * S);
    // Each subtree's nodes of the level being built, `count[s]` of them.
    let mut nodes = [[IV; 4]; S];
    let mut count = [0; S];
    let mut first = [0; S];
    for (s, &(index, bytes)) in subtrees.iter().enumerate() {
        assert!(bytes.len() <= SUBTREE_LEN, "subtree_cvs: a subtree of {} bytes", bytes.len());
        first[s] = index.checked_mul(4).expect("subtree_cvs: chunk counter overflows u64");
        count[s] = bytes.len().div_ceil(CHUNK_LEN).max(1);
    }

    // The leaves, the full chunks first.
    let mut chains = [Chain::chunk(&[], 0, 0); C];
    let mut slots = [(0, 0); C];
    let (mut queued, mut full_chunks) = (0, 0);
    for full in [true, false] {
        for (s, &(_, bytes)) in subtrees.iter().enumerate() {
            for c in 0..count[s] {
                let chunk = &bytes[c * CHUNK_LEN..bytes.len().min((c + 1) * CHUNK_LEN)];
                if (chunk.len() == CHUNK_LEN) == full {
                    chains[queued] = Chain::chunk(chunk, first[s] + c as u64, 0);
                    slots[queued] = (s, c);
                    queued += 1;
                }
            }
        }
        if full {
            full_chunks = queued;
        }
    }
    let mut cvs = [IV; C];
    let laned = lanes(kernel, &chains[..full_chunks], &mut cvs);
    kernel.chains(&chains[laned..queued], &mut cvs[laned..queued]);
    for (cv, &(s, c)) in cvs.iter().zip(&slots[..queued]) {
        nodes[s][c] = *cv;
    }

    // Up the tree: pair the nodes of each level, an odd last one moving
    // up as it is, until one is left per subtree (two levels at most).
    let mut blocks = [[0; 64]; P];
    loop {
        let mut queued = 0;
        for (s, nodes) in nodes[..subtrees.len()].iter().enumerate() {
            for pair in 0..count[s] / 2 {
                let (l, r) = (to_bytes(&nodes[2 * pair]), to_bytes(&nodes[2 * pair + 1]));
                (blocks[queued], slots[queued]) = (parent_block(&l, &r), (s, pair));
                queued += 1;
            }
        }
        if queued == 0 {
            break;
        }
        let parents: [Chain; P] = array::from_fn(|i| Chain::parent(&blocks[i], 0));
        let laned = lanes(kernel, &parents[..queued], &mut cvs);
        kernel.chains(&parents[laned..queued], &mut cvs[laned..queued]);
        for (s, nodes) in nodes[..subtrees.len()].iter_mut().enumerate() {
            if count[s] == 3 {
                nodes[1] = nodes[2];
            }
            count[s] = count[s].div_ceil(2);
        }
        for (cv, &(s, pair)) in cvs.iter().zip(&slots[..queued]) {
            nodes[s][pair] = *cv;
        }
    }
    for (out, nodes) in out.iter_mut().zip(&nodes) {
        *out = to_bytes(&nodes[0]);
    }
}

/// The leading `chains` — whole blocks all, of one length and one set of
/// flags — in the widest passes of `kernel` they fill while at least four
/// are left, `out[i]` for `chains[i]`. Returns how many it took.
fn lanes(kernel: Kernel, chains: &[Chain], out: &mut [Cv]) -> usize {
    let mut done = 0;
    loop {
        let lanes = kernel.lanes(chains.len() - done);
        if lanes == 1 {
            return done;
        }
        let pass = done..done + lanes;
        x86::lanes(kernel, &chains[pass.clone()], &mut out[pass]);
        done += lanes;
    }
}

/// Word `i` of `N` side-by-side compressions, lane `l` belonging to the
/// `l`-th. The compression is written once over this, for every register
/// width and for plain `u32`.
///
/// # Safety
/// Every method may run instructions of the implementing type's target
/// features: call them only from code those features are enabled for.
trait Lanes<const N: usize>: Copy {
    unsafe fn splat(word: u32) -> Self;
    unsafe fn load(words: &[u32; N]) -> Self;
    unsafe fn store(self, words: &mut [u32; N]);
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn xor(self, other: Self) -> Self;
    unsafe fn ror16(self) -> Self;
    unsafe fn ror12(self) -> Self;
    unsafe fn ror8(self) -> Self;
    unsafe fn ror7(self) -> Self;
    /// The sixteen little-endian message words of each lane's block,
    /// word-major.
    unsafe fn message(blocks: &[&[u8; 64]; N]) -> [Self; 16];
}

impl Lanes<1> for u32 {
    unsafe fn splat(word: u32) -> Self {
        word
    }
    unsafe fn load(words: &[u32; 1]) -> Self {
        words[0]
    }
    unsafe fn store(self, words: &mut [u32; 1]) {
        words[0] = self;
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline(always)]
    unsafe fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    unsafe fn ror16(self) -> Self {
        self.rotate_right(16)
    }
    #[inline(always)]
    unsafe fn ror12(self) -> Self {
        self.rotate_right(12)
    }
    #[inline(always)]
    unsafe fn ror8(self) -> Self {
        self.rotate_right(8)
    }
    #[inline(always)]
    unsafe fn ror7(self) -> Self {
        self.rotate_right(7)
    }
    #[inline(always)]
    unsafe fn message(blocks: &[&[u8; 64]; 1]) -> [Self; 16] {
        array::from_fn(|i| {
            u32::from_le_bytes(blocks[0][4 * i..4 * i + 4].try_into().expect("four bytes"))
        })
    }
}

/// The mixing function on state words `a`, `b`, `c`, `d` of `v` with
/// message words `x` and `y`: the state's sixteen words, or the four rows
/// of the row-wise compress.
///
/// # Safety
/// As for [`Lanes`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn g<const N: usize, V: Lanes<N>, const K: usize>(
    v: &mut [V; K],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
    x: V,
    y: V,
) {
    v[a] = v[a].add(x).add(v[b]);
    v[d] = v[d].xor(v[a]).ror16();
    v[c] = v[c].add(v[d]);
    v[b] = v[b].xor(v[c]).ror12();
    v[a] = v[a].add(y).add(v[b]);
    v[d] = v[d].xor(v[a]).ror8();
    v[c] = v[c].add(v[d]);
    v[b] = v[b].xor(v[c]).ror7();
}

/// One round: the columns, then the diagonals.
///
/// # Safety
/// As for [`Lanes`].
#[inline(always)]
unsafe fn round<const N: usize, V: Lanes<N>>(v: &mut [V; 16], m: &[V; 16], s: &[usize; 16]) {
    g(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
    g(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
    g(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
    g(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
    g(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
    g(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
    g(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
    g(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
}

/// The compression function in every lane, its output truncated to the
/// chaining value; `counter` is the low and high word.
///
/// # Safety
/// As for [`Lanes`].
#[inline(always)]
unsafe fn compress_lanes<const N: usize, V: Lanes<N>>(
    cv: &[V; 8],
    m: &[V; 16],
    counter: [V; 2],
    len: V,
    flags: V,
) -> [V; 8] {
    let iv = |i: usize| V::splat(IV[i]);
    let mut v = [
        cv[0],
        cv[1],
        cv[2],
        cv[3],
        cv[4],
        cv[5],
        cv[6],
        cv[7],
        iv(0),
        iv(1),
        iv(2),
        iv(3),
        counter[0],
        counter[1],
        len,
        flags,
    ];
    round(&mut v, m, &SCHEDULE[0]);
    round(&mut v, m, &SCHEDULE[1]);
    round(&mut v, m, &SCHEDULE[2]);
    round(&mut v, m, &SCHEDULE[3]);
    round(&mut v, m, &SCHEDULE[4]);
    round(&mut v, m, &SCHEDULE[5]);
    round(&mut v, m, &SCHEDULE[6]);
    let mut out = *cv;
    for (i, out) in out.iter_mut().enumerate() {
        *out = v[i].xor(v[i + 8]);
    }
    out
}

/// `N` chains side by side: whole blocks all, of one length and one set
/// of flags.
///
/// # Safety
/// As for [`Lanes`].
#[inline(always)]
unsafe fn run_lanes<const N: usize, V: Lanes<N>>(chains: &[Chain], out: &mut [Cv]) {
    assert!(chains.len() == N && out.len() == N);
    let first = chains[0];
    let count = first.input.len() / BLOCK_LEN;
    assert!(chains.iter().all(|c| {
        (c.input.len(), c.flags, c.start, c.end)
            == (count * BLOCK_LEN, first.flags, first.start, first.end)
    }));
    let counter = [
        V::load(&array::from_fn(|l| chains[l].counter as u32)),
        V::load(&array::from_fn(|l| (chains[l].counter >> 32) as u32)),
    ];
    let mut cv = [V::splat(0); 8];
    for (cv, word) in cv.iter_mut().zip(IV) {
        *cv = V::splat(word);
    }
    for b in 0..count {
        let blocks = array::from_fn(|l| {
            chains[l].input[b * BLOCK_LEN..][..BLOCK_LEN].try_into().expect("a slice of 64")
        });
        let m = V::message(&blocks);
        cv = compress_lanes(&cv, &m, counter, V::splat(BLOCK_LEN as u32), V::splat(first.flags(b)));
    }
    let mut words = [[0; N]; 8];
    for (words, v) in words.iter_mut().zip(cv) {
        v.store(words);
    }
    for (l, out) in out.iter_mut().enumerate() {
        *out = array::from_fn(|i| words[i][l]);
    }
}

/// The vector kernels. `X4`, `X8` and `X16` hold word `i` of four, eight
/// and sixteen compressions (SSE4.1, AVX2 or AVX-512VL, AVX-512F);
/// `X8<true>` is the AVX-512VL form, which rotates with `vprord`. `X8<true>`
/// and `X16` also hold the rows of two and four chains for the row-wise
/// compress.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{g, run_lanes, Chain, Cv, Kernel, Lanes, IV, SCHEDULE};

    pub fn avx512() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }

    pub fn avx2() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("sse4.1")
    }

    /// 8 or 16 chains side by side on AVX-512, 4 or 8 on AVX2.
    pub fn lanes(kernel: Kernel, chains: &[Chain], out: &mut [Cv]) {
        // SAFETY: the entry points check `kernel.supported()`: AVX-512F
        // and VL for `Avx512`, AVX2 and SSE4.1 for `Avx2`.
        unsafe {
            match (kernel, chains.len()) {
                (Kernel::Avx512, 16) => avx512_16(chains, out),
                (Kernel::Avx512, 8) => avx512_8(chains, out),
                (Kernel::Avx2, 8) => avx2_8(chains, out),
                (Kernel::Avx2, 4) => sse41_4(chains, out),
                (kernel, n) => unreachable!("{n} lanes on {}", kernel.name()),
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    fn avx512_16(chains: &[Chain], out: &mut [Cv]) {
        // SAFETY: this function enables what `X16` needs.
        unsafe { run_lanes::<16, X16>(chains, out) }
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    fn avx512_8(chains: &[Chain], out: &mut [Cv]) {
        // SAFETY: this function enables what `X8<true>` needs.
        unsafe { run_lanes::<8, X8<true>>(chains, out) }
    }

    #[target_feature(enable = "avx2")]
    fn avx2_8(chains: &[Chain], out: &mut [Cv]) {
        // SAFETY: this function enables what `X8<false>` needs.
        unsafe { run_lanes::<8, X8<false>>(chains, out) }
    }

    #[target_feature(enable = "sse4.1")]
    fn sse41_4(chains: &[Chain], out: &mut [Cv]) {
        // SAFETY: this function enables what `X4` needs.
        unsafe { run_lanes::<4, X4>(chains, out) }
    }

    #[derive(Clone, Copy)]
    struct X4(__m128i);

    #[derive(Clone, Copy)]
    struct X8<const VL: bool>(__m256i);

    #[derive(Clone, Copy)]
    struct X16(__m512i);

    /// `pshufb` masks that rotate every 32-bit word right by 16 and by 8.
    const ROT16: [u8; 16] = [2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13];
    const ROT8: [u8; 16] = [1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12];

    /// Rows `rows[l]` (four words of lane `l` each) become columns.
    ///
    /// # Safety
    /// The CPU must have SSE2.
    #[inline(always)]
    unsafe fn transpose4(rows: [__m128i; 4]) -> [__m128i; 4] {
        let t0 = _mm_unpacklo_epi32(rows[0], rows[1]);
        let t1 = _mm_unpackhi_epi32(rows[0], rows[1]);
        let t2 = _mm_unpacklo_epi32(rows[2], rows[3]);
        let t3 = _mm_unpackhi_epi32(rows[2], rows[3]);
        [
            _mm_unpacklo_epi64(t0, t2),
            _mm_unpackhi_epi64(t0, t2),
            _mm_unpacklo_epi64(t1, t3),
            _mm_unpackhi_epi64(t1, t3),
        ]
    }

    impl Lanes<4> for X4 {
        #[inline(always)]
        unsafe fn splat(word: u32) -> Self {
            X4(_mm_set1_epi32(word as i32))
        }
        #[inline(always)]
        unsafe fn load(words: &[u32; 4]) -> Self {
            X4(_mm_loadu_si128(words.as_ptr().cast()))
        }
        #[inline(always)]
        unsafe fn store(self, words: &mut [u32; 4]) {
            _mm_storeu_si128(words.as_mut_ptr().cast(), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            X4(_mm_add_epi32(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn xor(self, other: Self) -> Self {
            X4(_mm_xor_si128(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn ror16(self) -> Self {
            X4(_mm_shuffle_epi8(self.0, _mm_loadu_si128(ROT16.as_ptr().cast())))
        }
        #[inline(always)]
        unsafe fn ror12(self) -> Self {
            X4(_mm_or_si128(_mm_srli_epi32::<12>(self.0), _mm_slli_epi32::<20>(self.0)))
        }
        #[inline(always)]
        unsafe fn ror8(self) -> Self {
            X4(_mm_shuffle_epi8(self.0, _mm_loadu_si128(ROT8.as_ptr().cast())))
        }
        #[inline(always)]
        unsafe fn ror7(self) -> Self {
            X4(_mm_or_si128(_mm_srli_epi32::<7>(self.0), _mm_slli_epi32::<25>(self.0)))
        }
        #[inline(always)]
        unsafe fn message(blocks: &[&[u8; 64]; 4]) -> [Self; 16] {
            let mut m = [X4(_mm_setzero_si128()); 16];
            for q in 0..4 {
                let mut rows = [_mm_setzero_si128(); 4];
                for (row, block) in rows.iter_mut().zip(blocks) {
                    *row = _mm_loadu_si128(block.as_ptr().add(16 * q).cast());
                }
                for (j, column) in transpose4(rows).into_iter().enumerate() {
                    m[4 * q + j] = X4(column);
                }
            }
            m
        }
    }

    impl<const VL: bool> Lanes<8> for X8<VL> {
        #[inline(always)]
        unsafe fn splat(word: u32) -> Self {
            X8(_mm256_set1_epi32(word as i32))
        }
        #[inline(always)]
        unsafe fn load(words: &[u32; 8]) -> Self {
            X8(_mm256_loadu_si256(words.as_ptr().cast()))
        }
        #[inline(always)]
        unsafe fn store(self, words: &mut [u32; 8]) {
            _mm256_storeu_si256(words.as_mut_ptr().cast(), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            X8(_mm256_add_epi32(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn xor(self, other: Self) -> Self {
            X8(_mm256_xor_si256(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn ror16(self) -> Self {
            if VL {
                X8(_mm256_ror_epi32::<16>(self.0))
            } else {
                let mask = _mm256_broadcastsi128_si256(_mm_loadu_si128(ROT16.as_ptr().cast()));
                X8(_mm256_shuffle_epi8(self.0, mask))
            }
        }
        #[inline(always)]
        unsafe fn ror12(self) -> Self {
            if VL {
                X8(_mm256_ror_epi32::<12>(self.0))
            } else {
                X8(_mm256_or_si256(
                    _mm256_srli_epi32::<12>(self.0),
                    _mm256_slli_epi32::<20>(self.0),
                ))
            }
        }
        #[inline(always)]
        unsafe fn ror8(self) -> Self {
            if VL {
                X8(_mm256_ror_epi32::<8>(self.0))
            } else {
                let mask = _mm256_broadcastsi128_si256(_mm_loadu_si128(ROT8.as_ptr().cast()));
                X8(_mm256_shuffle_epi8(self.0, mask))
            }
        }
        #[inline(always)]
        unsafe fn ror7(self) -> Self {
            if VL {
                X8(_mm256_ror_epi32::<7>(self.0))
            } else {
                X8(_mm256_or_si256(_mm256_srli_epi32::<7>(self.0), _mm256_slli_epi32::<25>(self.0)))
            }
        }
        /// Per half of the block, an 8×8 word transpose: interleave 32-bit
        /// then 64-bit pairs inside each 128-bit lane, then swap lanes.
        #[inline(always)]
        unsafe fn message(blocks: &[&[u8; 64]; 8]) -> [Self; 16] {
            let mut m = [X8(_mm256_setzero_si256()); 16];
            for h in 0..2 {
                let mut rows = [_mm256_setzero_si256(); 8];
                for (row, block) in rows.iter_mut().zip(blocks) {
                    *row = _mm256_loadu_si256(block.as_ptr().add(32 * h).cast());
                }
                let mut t = [_mm256_setzero_si256(); 8];
                for i in 0..4 {
                    t[2 * i] = _mm256_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
                    t[2 * i + 1] = _mm256_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
                }
                // u[4g + j]: words j and j + 4 of lanes 4g..4g + 4.
                let mut u = [_mm256_setzero_si256(); 8];
                for g in 0..2 {
                    u[4 * g] = _mm256_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
                    u[4 * g + 1] = _mm256_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
                    u[4 * g + 2] = _mm256_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
                    u[4 * g + 3] = _mm256_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
                }
                for j in 0..4 {
                    m[8 * h + j] = X8(_mm256_permute2x128_si256::<0x20>(u[j], u[4 + j]));
                    m[8 * h + 4 + j] = X8(_mm256_permute2x128_si256::<0x31>(u[j], u[4 + j]));
                }
            }
            m
        }
    }

    impl Lanes<16> for X16 {
        #[inline(always)]
        unsafe fn splat(word: u32) -> Self {
            X16(_mm512_set1_epi32(word as i32))
        }
        #[inline(always)]
        unsafe fn load(words: &[u32; 16]) -> Self {
            X16(_mm512_loadu_si512(words.as_ptr().cast()))
        }
        #[inline(always)]
        unsafe fn store(self, words: &mut [u32; 16]) {
            _mm512_storeu_si512(words.as_mut_ptr().cast(), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            X16(_mm512_add_epi32(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn xor(self, other: Self) -> Self {
            X16(_mm512_xor_si512(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn ror16(self) -> Self {
            X16(_mm512_ror_epi32::<16>(self.0))
        }
        #[inline(always)]
        unsafe fn ror12(self) -> Self {
            X16(_mm512_ror_epi32::<12>(self.0))
        }
        #[inline(always)]
        unsafe fn ror8(self) -> Self {
            X16(_mm512_ror_epi32::<8>(self.0))
        }
        #[inline(always)]
        unsafe fn ror7(self) -> Self {
            X16(_mm512_ror_epi32::<7>(self.0))
        }
        /// A 16×16 word transpose: interleave 32-bit then 64-bit pairs
        /// inside each 128-bit quarter, then transpose the quarters.
        #[inline(always)]
        unsafe fn message(blocks: &[&[u8; 64]; 16]) -> [Self; 16] {
            let mut w = [_mm512_setzero_si512(); 16];
            for (row, block) in w.iter_mut().zip(blocks) {
                *row = _mm512_loadu_si512(block.as_ptr().cast());
            }
            let mut t = [_mm512_setzero_si512(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_epi32(w[2 * i], w[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_epi32(w[2 * i], w[2 * i + 1]);
            }
            // u[4g + j], quarter q: word 4q + j of lanes 4g..4g + 4.
            let mut u = [_mm512_setzero_si512(); 16];
            for g in 0..4 {
                u[4 * g] = _mm512_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
                u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
                u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
                u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
            }
            let mut m = [X16(_mm512_setzero_si512()); 16];
            for j in 0..4 {
                let even_lo = _mm512_shuffle_i32x4::<0x88>(u[j], u[4 + j]);
                let odd_lo = _mm512_shuffle_i32x4::<0xdd>(u[j], u[4 + j]);
                let even_hi = _mm512_shuffle_i32x4::<0x88>(u[8 + j], u[12 + j]);
                let odd_hi = _mm512_shuffle_i32x4::<0xdd>(u[8 + j], u[12 + j]);
                m[j] = X16(_mm512_shuffle_i32x4::<0x88>(even_lo, even_hi));
                m[4 + j] = X16(_mm512_shuffle_i32x4::<0x88>(odd_lo, odd_hi));
                m[8 + j] = X16(_mm512_shuffle_i32x4::<0xdd>(even_lo, even_hi));
                m[12 + j] = X16(_mm512_shuffle_i32x4::<0xdd>(odd_lo, odd_hi));
            }
            m
        }
    }

    /// For round `r`, the `vpermt2d` indices that lay out the message
    /// words of two blocks (`16 +` marks the second) for the column step,
    /// then for the diagonal step: the words the step reads first, block
    /// by block in 128-bit quarters 0 and 1, then the words it reads
    /// second in quarters 2 and 3.
    const ROW_WORDS: [[[u32; 16]; 2]; 7] = {
        let mut words = [[[0; 16]; 2]; 7];
        let mut r = 0;
        while r < 7 {
            let mut step = 0;
            while step < 2 {
                let mut i = 0;
                while i < 16 {
                    // Quarter q holds block q % 2's words 2k + q / 2.
                    let (q, k) = (i / 4, i % 4);
                    let word = SCHEDULE[r][8 * step + 2 * k + q / 2] as u32;
                    words[r][step][i] = word + 16 * (q as u32 % 2);
                    i += 1;
                }
                step += 1;
            }
            r += 1;
        }
        words
    };

    /// The row-wise compress's view of a vector: rows of the state of
    /// `N / 4` chains, one chain per 128-bit lane.
    ///
    /// # Safety
    /// As for [`Lanes`].
    trait Rows<const N: usize>: Lanes<N> {
        /// Each chain's current block, loaded once for its seven rounds.
        type Message: Copy;
        unsafe fn message_rows(blocks: &[&[u8; 64]]) -> Self::Message;
        /// The message words a step reads first, then second, each
        /// chain's in its lane, `words` being that step's [`ROW_WORDS`].
        unsafe fn step(message: &Self::Message, words: &[u32; 16]) -> (Self, Self);
        /// `words` in every lane.
        unsafe fn each_lane(words: &[u32]) -> Self;
        /// Every lane's words rotated left by one, two and three places.
        unsafe fn rotl1(self) -> Self;
        unsafe fn rotl2(self) -> Self;
        unsafe fn rotl3(self) -> Self;
        /// `self`, with `new` in the words `live` marks.
        unsafe fn update(self, live: u16, new: Self) -> Self;
    }

    /// Two chains, one per half of a `ymm` register.
    impl Rows<8> for X8<true> {
        type Message = [__m512i; 2];
        #[inline(always)]
        unsafe fn message_rows(blocks: &[&[u8; 64]]) -> Self::Message {
            [
                _mm512_loadu_si512(blocks[0].as_ptr().cast()),
                _mm512_loadu_si512(blocks[1].as_ptr().cast()),
            ]
        }
        #[inline(always)]
        unsafe fn step(message: &Self::Message, words: &[u32; 16]) -> (Self, Self) {
            let index = _mm512_loadu_si512(words.as_ptr().cast());
            let m = _mm512_permutex2var_epi32(message[0], index, message[1]);
            (X8(_mm512_castsi512_si256(m)), X8(_mm512_extracti64x4_epi64::<1>(m)))
        }
        #[inline(always)]
        unsafe fn each_lane(words: &[u32]) -> Self {
            X8(_mm256_broadcastsi128_si256(_mm_loadu_si128(words[..4].as_ptr().cast())))
        }
        #[inline(always)]
        unsafe fn rotl1(self) -> Self {
            X8(_mm256_shuffle_epi32::<0x39>(self.0))
        }
        #[inline(always)]
        unsafe fn rotl2(self) -> Self {
            X8(_mm256_shuffle_epi32::<0x4e>(self.0))
        }
        #[inline(always)]
        unsafe fn rotl3(self) -> Self {
            X8(_mm256_shuffle_epi32::<0x93>(self.0))
        }
        #[inline(always)]
        unsafe fn update(self, live: u16, new: Self) -> Self {
            X8(_mm256_mask_mov_epi32(self.0, live as u8, new.0))
        }
    }

    /// Four chains, one per quarter of a `zmm` register.
    impl Rows<16> for X16 {
        type Message = [__m512i; 4];
        #[inline(always)]
        unsafe fn message_rows(blocks: &[&[u8; 64]]) -> Self::Message {
            let mut m = [_mm512_setzero_si512(); 4];
            for (m, block) in m.iter_mut().zip(blocks) {
                *m = _mm512_loadu_si512(block.as_ptr().cast());
            }
            m
        }
        #[inline(always)]
        unsafe fn step(message: &Self::Message, words: &[u32; 16]) -> (Self, Self) {
            let index = _mm512_loadu_si512(words.as_ptr().cast());
            // [first 0, first 1, second 0, second 1], then chains 2 and 3.
            let low = _mm512_permutex2var_epi32(message[0], index, message[1]);
            let high = _mm512_permutex2var_epi32(message[2], index, message[3]);
            (
                X16(_mm512_shuffle_i64x2::<0x44>(low, high)),
                X16(_mm512_shuffle_i64x2::<0xee>(low, high)),
            )
        }
        #[inline(always)]
        unsafe fn each_lane(words: &[u32]) -> Self {
            X16(_mm512_broadcast_i32x4(_mm_loadu_si128(words[..4].as_ptr().cast())))
        }
        #[inline(always)]
        unsafe fn rotl1(self) -> Self {
            X16(_mm512_shuffle_epi32::<0x39>(self.0))
        }
        #[inline(always)]
        unsafe fn rotl2(self) -> Self {
            X16(_mm512_shuffle_epi32::<0x4e>(self.0))
        }
        #[inline(always)]
        unsafe fn rotl3(self) -> Self {
            X16(_mm512_shuffle_epi32::<0x93>(self.0))
        }
        #[inline(always)]
        unsafe fn update(self, live: u16, new: Self) -> Self {
            X16(_mm512_mask_mov_epi32(self.0, live, new.0))
        }
    }

    /// The chaining values of one to four chains: two in the halves of
    /// `ymm` rows, three or four in the quarters of `zmm` ones (the extra
    /// shuffles of the wider layout slow a lone chain by a tenth). An
    /// idle lane repeats the last chain.
    ///
    /// # Safety
    /// The CPU must have AVX-512F and AVX-512VL.
    pub unsafe fn rows(chains: &[Chain]) -> [Cv; 4] {
        let pick = |q: usize| &chains[q.min(chains.len() - 1)];
        let mut out = [[0; 8]; 4];
        if chains.len() <= 2 {
            out[..2].copy_from_slice(&rows2([pick(0), pick(1)]));
        } else {
            out = rows4([pick(0), pick(1), pick(2), pick(3)]);
        }
        out
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    fn rows2(chains: [&Chain; 2]) -> [Cv; 2] {
        // SAFETY: this function enables what `X8<true>` needs.
        unsafe { chain_rows::<2, 8, X8<true>>(chains) }
    }

    #[target_feature(enable = "avx512f")]
    fn rows4(chains: [&Chain; 4]) -> [Cv; 4] {
        // SAFETY: this function enables what `X16` needs.
        unsafe { chain_rows::<4, 16, X16>(chains) }
    }

    /// `Q` chains with the state's four rows in four registers, chain `q`
    /// in 128-bit lane `q`: the column step mixes the rows as they are,
    /// the diagonal step after rotating rows 1, 2 and 3 left by one, two
    /// and three words. One chain is a dependency chain through every
    /// round, so the other lanes ride along nearly free; a lane whose
    /// chain is done keeps its value.
    ///
    /// # Safety
    /// As for [`Lanes`].
    #[inline(always)]
    unsafe fn chain_rows<const Q: usize, const N: usize, V: Rows<N>>(
        chains: [&Chain; Q],
    ) -> [Cv; Q] {
        assert_eq!(N, 4 * Q);
        let lasts = chains.map(|chain| chain.last());
        // Words 0..4 of the IV in every lane, then words 4..8: rows 0 and
        // 1 of a chain's first block, and row 2 of every block.
        let iv_low = V::each_lane(&IV[..4]);
        let (mut low, mut high) = (iv_low, V::each_lane(&IV[4..]));
        let longest = chains.iter().map(|chain| chain.blocks()).max().unwrap_or(0);
        for b in 0..longest {
            let mut blocks = [&lasts[0].0; Q];
            let mut words = [0; N];
            let mut live = 0u16;
            for (q, (chain, last)) in chains.iter().zip(&lasts).enumerate() {
                let len = match chain.input.get(b * 64..(b + 1) * 64) {
                    Some(full) if b + 1 < chain.blocks() => {
                        blocks[q] = full.try_into().expect("64 bytes");
                        64
                    }
                    _ => {
                        blocks[q] = &last.0;
                        last.1
                    }
                };
                let counter = [chain.counter as u32, (chain.counter >> 32) as u32];
                words[4 * q..4 * q + 4].copy_from_slice(&[
                    counter[0],
                    counter[1],
                    len,
                    chain.flags(b),
                ]);
                if b < chain.blocks() {
                    live |= 0xf << (4 * q);
                }
            }
            let m = V::message_rows(&blocks);
            let mut rows = [low, high, iv_low, V::load(&words)];
            for [columns, diagonals] in &ROW_WORDS {
                let (x, y) = V::step(&m, columns);
                g(&mut rows, 0, 1, 2, 3, x, y);
                rows = [rows[0], rows[1].rotl1(), rows[2].rotl2(), rows[3].rotl3()];
                let (x, y) = V::step(&m, diagonals);
                g(&mut rows, 0, 1, 2, 3, x, y);
                rows = [rows[0], rows[1].rotl3(), rows[2].rotl2(), rows[3].rotl1()];
            }
            low = low.update(live, rows[0].xor(rows[2]));
            high = high.update(live, rows[1].xor(rows[3]));
        }
        // Words 0..4 of every chain, then words 4..8.
        let (mut words_low, mut words_high) = ([0; N], [0; N]);
        low.store(&mut words_low);
        high.store(&mut words_high);
        let mut out = [[0; 8]; Q];
        for (q, out) in out.iter_mut().enumerate() {
            out[..4].copy_from_slice(&words_low[4 * q..4 * q + 4]);
            out[4..].copy_from_slice(&words_high[4 * q..4 * q + 4]);
        }
        out
    }
}

/// Stub for non-x86 targets: the vector kernels are never available.
#[cfg(not(target_arch = "x86_64"))]
mod x86 {
    use super::{Chain, Cv, Kernel};

    pub fn avx512() -> bool {
        false
    }

    pub fn avx2() -> bool {
        false
    }

    pub fn lanes(kernel: Kernel, _: &[Chain], _: &mut [Cv]) {
        unreachable!("{} is x86_64-only and gated by Kernel::supported", kernel.name())
    }

    pub unsafe fn rows(_: &[Chain]) -> [Cv; 4] {
        unreachable!("the row-wise compress is x86_64-only and gated by Kernel::supported")
    }
}
