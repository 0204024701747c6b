//! Bit-identity proofs for the fast GF(2^8) kernels (DESIGN.md §8).
//!
//! The oracle is `oracle::reference`: the slice routines computed one
//! `Gf256` multiplication per byte. Every property here drives a fast
//! path — split-nibble SWAR kernels, the fused cache-blocked matrix
//! encode, `encode_into`, RAID5/RAID6 parity, decode, and the ranged
//! partial update — with randomized coefficients and lengths (including
//! empty slices and odd tails shorter than one 8-byte SWAR chunk) and
//! demands byte equality with the naive computation.

mod oracle;
use oracle::reference;

use hyrd_testkit::{check, Gen};

use hyrd_gfec::gf256::{self, Gf256, FUSED_BLOCK};
use hyrd_gfec::raid5::Raid5;
use hyrd_gfec::raid6::Raid6;
use hyrd_gfec::rs::{MatrixKind, ReedSolomon};
use hyrd_gfec::update::{parity_window, plan_update};
use hyrd_gfec::{decode_object, ErasureCode, Matrix, StripePlanner};

/// Lengths that stress every SWAR alignment case: empty, sub-chunk tails,
/// exact multiples of 8, and odd sizes just past a multiple.
fn kernel_len(g: &mut Gen) -> usize {
    match g.range(0..5u8) {
        0 => 0,
        1 => g.range(1usize..8),
        2 => 8,
        3 => 16,
        _ => g.range(9usize..300),
    }
}

// ---------------- slice kernels vs naive reference ----------------

#[test]
fn mul_slice_acc_matches_reference() {
    check(
        256,
        |g| (kernel_len(g), g.range::<u8>(..), g.bytes(2..3)),
        |(len, c, seed)| {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ seed[0]).collect();
            let base: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed[1])).collect();
            let mut fast = base.clone();
            let mut slow = base;
            gf256::mul_slice_acc(&mut fast, &src, Gf256(c));
            reference::mul_slice_acc(&mut slow, &src, Gf256(c));
            assert_eq!(fast, slow);
        },
    );
}

#[test]
fn mul_slice_matches_reference() {
    check(
        256,
        |g| (kernel_len(g), g.range::<u8>(..), g.range::<u8>(..)),
        |(len, c, seed)| {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(113) ^ seed).collect();
            let mut fast = vec![0xA5u8; len];
            let mut slow = vec![0x5Au8; len];
            gf256::combine(&mut fast, &[(Gf256(c), &src[..])]);
            reference::mul_slice(&mut slow, &src, Gf256(c));
            assert_eq!(fast, slow);
        },
    );
}

#[test]
fn xor_slice_matches_reference() {
    check(
        256,
        |g| (kernel_len(g), g.bytes(2..3)),
        |(len, seed)| {
            let src: Vec<u8> = (0..len).map(|i| (i as u8) ^ seed[0]).collect();
            let base: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(seed[1] | 1)).collect();
            let mut fast = base.clone();
            let mut slow = base;
            gf256::xor_slice(&mut fast, &src);
            reference::xor_slice(&mut slow, &src);
            assert_eq!(fast, slow);
        },
    );
}

// ---------------- the lockstep kernel, each implementation forced ----------------

/// `combine_into` ≡ the byte-at-a-time sum, on the portable and on the
/// AVX2 loop alike, for every shape the loop can meet: 1 to 6 sources;
/// all-zero, all-unit and mixed coefficients (a unit and a zero among
/// random ones); every length up to three 64-byte steps and a tail, one
/// byte either side of a 16 KiB block, and a length that straddles two;
/// every source offset within a 64-byte line, each source at its own.
/// The output lands in spare capacity that held `0xFF`s, after a prefix
/// that must survive, so a byte the kernel skipped shows.
#[test]
fn combine_matches_reference_on_every_kernel_at_every_shape() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    };
    let lengths =
        (0..=200).chain([FUSED_BLOCK - 1, FUSED_BLOCK, FUSED_BLOCK + 1, 2 * FUSED_BLOCK + 77]);
    for len in lengths {
        let data: Vec<Vec<u8>> = (0..6).map(|_| (0..len).map(|_| next()).collect()).collect();
        for sources in 1..=6usize {
            for kind in 0..3 {
                let coeffs: Vec<Gf256> = (0..sources)
                    .map(|j| match (kind, j) {
                        (0, _) | (2, 1) => Gf256::ZERO,
                        (1, _) | (2, 0) => Gf256::ONE,
                        _ => Gf256(next()),
                    })
                    .collect();
                let aligned: Vec<(Gf256, &[u8])> =
                    coeffs.iter().zip(&data).map(|(&c, d)| (c, d.as_slice())).collect();
                let want = reference::combine(len, &aligned);
                // Long inputs take a sample of the offsets; the loop's shape
                // no longer depends on them.
                for shift in (0..64).step_by(if len > 200 { 7 } else { 1 }) {
                    let moved: Vec<Vec<u8>> = (0..sources)
                        .map(|j| [&vec![0xEE; (shift + 9 * j) % 64][..], &data[j][..]].concat())
                        .collect();
                    let terms: Vec<(Gf256, &[u8])> = (0..sources)
                        .map(|j| (coeffs[j], &moved[j][(shift + 9 * j) % 64..]))
                        .collect();
                    for kernel in
                        [gf256::Kernel::Portable, gf256::Kernel::Avx2, gf256::Kernel::Avx512]
                    {
                        let prefix = shift % 5;
                        let mut out = vec![0xFFu8; prefix + len + 3];
                        out.truncate(prefix);
                        gf256::combine_into_with(kernel, &mut out, len, &terms);
                        assert_eq!(out[..prefix], vec![0xFF; prefix][..], "prefix kept");
                        assert_eq!(
                            out[prefix..],
                            want[..],
                            "{kernel:?} len={len} sources={sources} kind={kind} shift={shift}"
                        );
                    }
                }
                // The slice forms, on the detected kernel: overwrite a dirty
                // row, and accumulate onto one.
                let mut row = vec![0xFFu8; len];
                gf256::combine(&mut row, &aligned);
                assert_eq!(row, want, "combine len={len} sources={sources} kind={kind}");
                gf256::combine_acc(&mut row, &aligned);
                assert_eq!(row, vec![0u8; len], "combine_acc len={len} sources={sources}");
            }
        }
    }
}

fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `Kernel::Avx512` ≡ the byte-at-a-time sum. Every set of 1 to 6 unit
/// terms — the 512-bit XOR loop — at every length 0..=255 (no step, one
/// step, and every tail after it) and every source offset within a
/// 64-byte line, each source at its own, overwriting dirty spare capacity
/// (`combine_into_with`) and accumulating onto a row
/// (`combine_acc_with`); and sets with other coefficients among the
/// units, which run the AVX2 loop instead. Skipped, and says so, on a CPU
/// without AVX-512F (where the kernel is the AVX2 one, tested above).
#[test]
fn avx512_unit_path_matches_reference_at_every_tail_and_offset() {
    if !has_avx512f() {
        println!("skipped: this CPU has no avx512f");
        return;
    }
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    };
    let kernel = gf256::Kernel::Avx512;
    for len in 0..=255usize {
        let data: Vec<Vec<u8>> = (0..6).map(|_| (0..len).map(|_| next()).collect()).collect();
        let base: Vec<u8> = (0..len).map(|_| next()).collect();
        for sources in 1..=6usize {
            let mixed: Vec<Gf256> =
                (0..sources).map(|j| if j == 0 { Gf256(next() | 2) } else { Gf256::ONE }).collect();
            for coeffs in [vec![Gf256::ONE; sources], mixed] {
                let aligned: Vec<(Gf256, &[u8])> =
                    coeffs.iter().zip(&data).map(|(&c, d)| (c, d.as_slice())).collect();
                let want = reference::combine(len, &aligned);
                for shift in 0..64 {
                    let moved: Vec<Vec<u8>> = (0..sources)
                        .map(|j| [&vec![0xEE; (shift + 9 * j) % 64][..], &data[j][..]].concat())
                        .collect();
                    let terms: Vec<(Gf256, &[u8])> = (0..sources)
                        .map(|j| (coeffs[j], &moved[j][(shift + 9 * j) % 64..]))
                        .collect();
                    let prefix = shift % 5;
                    let mut out = vec![0xFFu8; prefix + len + 3];
                    out.truncate(prefix);
                    gf256::combine_into_with(kernel, &mut out, len, &terms);
                    assert_eq!(out[..prefix], vec![0xFF; prefix][..], "prefix kept");
                    let what = format!("len={len} sources={sources} {coeffs:?} shift={shift}");
                    assert_eq!(out[prefix..], want[..], "overwrite {what}");
                    let mut row = base.clone();
                    gf256::combine_acc_with(kernel, &mut row, &terms);
                    let sum: Vec<u8> = base.iter().zip(&want).map(|(b, w)| b ^ w).collect();
                    assert_eq!(row, sum, "accumulate {what}");
                }
            }
        }
    }
}

/// A source longer than `take` lends its first `take` bytes; a shorter
/// one, or sources of two lengths, are refused before a byte is written.
#[test]
fn combine_checks_its_sources_up_front() {
    let (long, short) = (vec![3u8; 100], vec![5u8; 99]);
    let mut out = vec![1u8];
    gf256::combine_into(&mut out, 70, &[(Gf256(2), &long[..]), (Gf256::ONE, &long[..])]);
    assert_eq!(out, [&[1u8][..], &[(Gf256(2) * Gf256(3)).0 ^ 3; 70][..]].concat());
    let refused = |f: &mut dyn FnMut()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    assert!(refused(&mut || gf256::combine_into(&mut out, 100, &[&short[..]])).is_err());
    assert!(refused(&mut || gf256::combine_into(&mut out, 50, &[&long[..], &short[..]])).is_err());
    assert!(refused(&mut || gf256::combine(&mut [0u8; 70], &[&long[..]])).is_err());
    assert!(refused(&mut || gf256::combine_acc(&mut [0u8; 100], &[&short[..]])).is_err());
    assert_eq!(out.len(), 71, "a refused call appends nothing");
}

// ---------------- fused matrix encode vs row-at-a-time naive ----------------

#[test]
fn fused_mul_shards_matches_naive_sweep() {
    check(
        256,
        |g| (g.range(1usize..6), g.range(1usize..4), kernel_len(g), g.range::<u8>(..)),
        |(m, p, len, seed)| {
            let a = Matrix::cauchy(p, m);
            let shards: Vec<Vec<u8>> = (0..m)
                .map(|j| (0..len).map(|b| (b as u8).wrapping_mul(j as u8 + 2) ^ seed).collect())
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            // The seed algorithm: one full naive sweep per output row.
            let mut expect = vec![vec![0u8; len]; p];
            for (i, row) in expect.iter_mut().enumerate() {
                for (j, shard) in refs.iter().enumerate() {
                    reference::mul_slice_acc(row, shard, a.get(i, j));
                }
            }
            assert_eq!(a.mul_shards(&refs), expect);
        },
    );
}

#[test]
fn fused_encode_straddles_block_boundary() {
    check(
        256,
        |g| (g.range(1usize..4), g.range(0usize..32), g.range::<u8>(..)),
        |(m, off, seed)| {
            // Lengths around FUSED_BLOCK exercise multi-block accumulation.
            let len = FUSED_BLOCK - 16 + off;
            let code = ReedSolomon::new(m, m + 2).unwrap();
            let shards: Vec<Vec<u8>> = (0..m)
                .map(|j| (0..len).map(|b| ((b >> 3) as u8) ^ seed.wrapping_add(j as u8)).collect())
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let coeffs = code.parity_coefficients();
            let mut expect = vec![vec![0u8; len]; 2];
            for (j, row) in coeffs.iter().enumerate() {
                for (i, shard) in refs.iter().enumerate() {
                    reference::mul_slice_acc(&mut expect[j], shard, row[i]);
                }
            }
            assert_eq!(code.encode(&refs).unwrap(), expect);
        },
    );
}

// ---------------- encode / encode_into / fragments agree ----------------

#[test]
fn encode_into_matches_encode_for_all_codes() {
    check(
        256,
        |g| (g.range(2usize..5), kernel_len(g), g.range::<u8>(..)),
        |(m, len, garbage)| {
            let shards: Vec<Vec<u8>> =
                (0..m).map(|j| (0..len).map(|b| (b as u8) ^ (j as u8 * 29)).collect()).collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let codes: Vec<Box<dyn ErasureCode>> = vec![
                Box::new(Raid5::new(m).unwrap()),
                Box::new(Raid6::new(m).unwrap()),
                Box::new(ReedSolomon::new(m, m + 2).unwrap()),
                Box::new(ReedSolomon::with_kind(m, m + 2, MatrixKind::Vandermonde).unwrap()),
            ];
            for code in &codes {
                let expect = code.encode(&refs).unwrap();
                // Dirty spare capacity must not leak into output.
                let mut parity = vec![vec![garbage; len]; code.parity_fragments()];
                parity.iter_mut().for_each(Vec::clear);
                code.encode_into(&refs, &mut parity).unwrap();
                assert_eq!(&parity, &expect);
            }
        },
    );
}

#[test]
fn encode_fragments_is_systematic_and_matches_encode() {
    check(
        256,
        |g| (g.range(2usize..5), kernel_len(g), g.range::<u8>(..)),
        |(m, len, seed)| {
            let rs = ReedSolomon::new(m, m + 2).unwrap();
            let shards: Vec<Vec<u8>> = (0..m)
                .map(|j| (0..len).map(|b| (b as u8).wrapping_add(seed) ^ (j as u8)).collect())
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let parity = rs.encode(&refs).unwrap();
            let frags = rs.encode_fragments(shards.clone()).unwrap();
            assert_eq!(frags.len(), m + 2);
            for (i, f) in frags.iter().enumerate() {
                assert_eq!(f.index, i);
                let want = if i < m { &shards[i] } else { &parity[i - m] };
                assert_eq!(&f.data, want);
            }
        },
    );
}

// ---------------- decode through the fast kernels ----------------

#[test]
fn decode_recovers_exact_bytes_after_kernel_swap() {
    check(
        256,
        |g| (g.bytes(1..2048), g.range(2usize..5), g.u64()),
        |(payload, m, lose_seed)| {
            // End-to-end: encode with fused kernels, lose two fragments,
            // reconstruct through the inverted-matrix path (also on the fast
            // kernels) and demand the original bytes back.
            let n = m + 2;
            let planner = StripePlanner::new(m, n).unwrap();
            let code = ReedSolomon::new(m, n).unwrap();
            let (layout, frags) = planner.split_encode(&code, &payload).unwrap();
            let a = (lose_seed % n as u64) as usize;
            let b = ((lose_seed >> 17) % n as u64) as usize;
            let back = decode_object(&code, &layout, &oracle::without(&frags, &[a, b])).unwrap();
            assert_eq!(back, payload);
        },
    );
}

// ---------------- partial update vs naive recompute ----------------

#[test]
fn ranged_update_windows_match_naive_recompute() {
    check(
        256,
        |g| (g.bytes(128..2048), g.range(2usize..4), g.range(1usize..3), g.unit(), g.unit()),
        |(payload, m, parities, offset_frac, len_frac)| {
            use hyrd_gfec::update::apply_ranged_update_into;
            let n = m + parities;
            let planner = StripePlanner::new(m, n).unwrap();
            let code = ReedSolomon::new(m, n).unwrap();
            let mut obj = payload;
            let (layout, mut frags) = planner.split_encode(&code, &obj).unwrap();
            let coeffs = code.parity_coefficients();

            let offset = ((obj.len() - 1) as f64 * offset_frac) as usize;
            let len = (1 + ((obj.len() - offset - 1) as f64 * len_frac) as usize).max(1);
            let new_bytes: Vec<u8> = (0..len).map(|i| (i * 89 + offset) as u8).collect();

            let plan = plan_update(&layout, offset, len).unwrap();
            let (lo, hi) = parity_window(&plan.touched);
            let old_segments: Vec<Vec<u8>> =
                plan.touched.iter().map(|&(sh, st, l)| frags[sh][st..st + l].to_vec()).collect();
            let old_parities: Vec<Vec<u8>> = (m..n).map(|p| frags[p][lo..hi].to_vec()).collect();
            let mut new_pars = Vec::new();
            apply_ranged_update_into(
                &code,
                &plan.touched,
                &old_segments,
                &old_parities,
                &new_bytes,
                &mut new_pars,
            )
            .unwrap();
            let mut consumed = 0;
            for &(sh, st, l) in &plan.touched {
                frags[sh][st..st + l].copy_from_slice(&new_bytes[consumed..consumed + l]);
                consumed += l;
            }
            let new_pars: Vec<&[u8]> = new_pars.chunks(hi - lo).collect();

            // Naive oracle: recompute each parity window from the (updated)
            // data shards with the reference kernel, byte by byte.
            obj[offset..offset + len].copy_from_slice(&new_bytes);
            let (_, new_frags) = planner.split_encode(&code, &obj).unwrap();
            for (j, row) in coeffs.iter().enumerate() {
                let mut want = vec![0u8; hi - lo];
                for (i, shard) in new_frags[..m].iter().enumerate() {
                    reference::mul_slice_acc(&mut want, &shard[lo..hi], row[i]);
                }
                assert_eq!(&new_pars[j], &want, "parity {} window", j);
            }
        },
    );
}

// ---------------- fixed cases at the kernels' boundaries ----------------

#[test]
fn fast_kernels_match_reference_at_all_tail_lengths() {
    // Exercise every alignment case of the 8-byte SWAR loop: empty,
    // shorter than one chunk, exact multiples, and odd tails.
    let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic PRNG
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as u8
    };
    for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 63, 257] {
        let src: Vec<u8> = (0..len).map(|_| next()).collect();
        let base: Vec<u8> = (0..len).map(|_| next()).collect();
        for c in [0u8, 1, 2, 0x1d, 0x8e, 0xff, next()] {
            let mut fast = base.clone();
            let mut slow = base.clone();
            gf256::mul_slice_acc(&mut fast, &src, Gf256(c));
            reference::mul_slice_acc(&mut slow, &src, Gf256(c));
            assert_eq!(fast, slow, "mul_slice_acc len={len} c={c}");

            let mut fast = base.clone();
            let mut slow = base.clone();
            gf256::combine(&mut fast, &[(Gf256(c), &src[..])]);
            reference::mul_slice(&mut slow, &src, Gf256(c));
            assert_eq!(fast, slow, "one-term combine len={len} c={c}");
        }
        let mut fast = base.clone();
        let mut slow = base.clone();
        gf256::xor_slice(&mut fast, &src);
        reference::xor_slice(&mut slow, &src);
        assert_eq!(fast, slow, "xor_slice len={len}");
    }
}

#[test]
fn fused_blocked_mul_matches_row_at_a_time_reference() {
    // Lengths straddling the fused block boundary, checked against the
    // seed algorithm: one full naive sweep per output row.
    let a = Matrix::cauchy(2, 3);
    for len in [0usize, 1, FUSED_BLOCK - 3, FUSED_BLOCK + 5] {
        let shards: Vec<Vec<u8>> =
            (0..3u8).map(|j| (0..len).map(|b| (b as u8).wrapping_mul(j + 3)).collect()).collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let mut expect = vec![vec![0u8; len]; 2];
        for (i, row) in expect.iter_mut().enumerate() {
            for (j, shard) in refs.iter().enumerate() {
                reference::mul_slice_acc(row, shard, a.get(i, j));
            }
        }
        assert_eq!(a.mul_shards(&refs), expect, "len={len}");
    }
}

#[test]
fn fused_raid6_encode_matches_reference_across_block_boundary() {
    let m = 3;
    let r = Raid6::new(m).unwrap();
    for len in [0usize, 5, FUSED_BLOCK - 1, FUSED_BLOCK + 9] {
        let d: Vec<Vec<u8>> = (0..m)
            .map(|i| (0..len).map(|b| (b as u8).wrapping_mul(17) ^ (i as u8 + 1)).collect())
            .collect();
        let refs: Vec<&[u8]> = d.iter().map(|x| x.as_slice()).collect();
        // Seed algorithm: one full naive sweep per parity row.
        let mut p = vec![0u8; len];
        let mut q = vec![0u8; len];
        for (i, s) in refs.iter().enumerate() {
            reference::xor_slice(&mut p, s);
            reference::mul_slice_acc(&mut q, s, Gf256::exp(i));
        }
        assert_eq!(r.encode(&refs).unwrap(), vec![p, q], "len={len}");
    }
}
