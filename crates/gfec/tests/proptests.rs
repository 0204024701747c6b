//! Property-based tests for the erasure-coding substrate (DESIGN.md §5).

mod oracle;

use hyrd_testkit::check;

use hyrd_gfec::gf256::{mul_slice_acc, Gf256};
use hyrd_gfec::raid5::Raid5;
use hyrd_gfec::raid6::Raid6;
use hyrd_gfec::rs::{MatrixKind, ReedSolomon};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::update::{
    apply_ranged_update, apply_ranged_update_into, parity_window, plan_update,
};
use hyrd_gfec::{decode_object, ErasureCode, Matrix};
use oracle::without;

// ---------------- field axioms ----------------

#[test]
fn gf_add_is_commutative_associative() {
    check(
        256,
        |g| (g.range::<u8>(..), g.range::<u8>(..), g.range::<u8>(..)),
        |(a, b, c)| {
            let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a + a, Gf256::ZERO); // characteristic 2
        },
    );
}

#[test]
fn gf_mul_is_commutative_associative() {
    check(
        256,
        |g| (g.range::<u8>(..), g.range::<u8>(..), g.range::<u8>(..)),
        |(a, b, c)| {
            let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        },
    );
}

#[test]
fn gf_distributes() {
    check(
        256,
        |g| (g.range::<u8>(..), g.range::<u8>(..), g.range::<u8>(..)),
        |(a, b, c)| {
            let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
            assert_eq!(a * (b + c), a * b + a * c);
        },
    );
}

#[test]
fn gf_div_mul_roundtrip() {
    check(
        256,
        |g| (g.range::<u8>(..), g.range(1u8..=255)),
        |(a, b)| {
            let (a, b) = (Gf256(a), Gf256(b));
            assert_eq!((a * b) / b, a);
            assert_eq!((a / b) * b, a);
        },
    );
}

#[test]
fn gf_pow_adds_exponents() {
    check(
        256,
        |g| (g.range(1u8..=255), g.range(0u32..600), g.range(0u32..600)),
        |(a, i, j)| {
            let a = Gf256(a);
            assert_eq!(a.pow(i) * a.pow(j), a.pow(i + j));
        },
    );
}

// ---------------- matrices ----------------

#[test]
fn random_invertible_matrix_roundtrips() {
    check(
        256,
        |g| g.bytes(16..17),
        |seed| {
            // Perturb the identity with random upper entries — always invertible
            // (unit triangular times unit triangular).
            let n = 4;
            let mut upper = Matrix::identity(n);
            let mut lower = Matrix::identity(n);
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    upper.set(i, j, Gf256(seed[k % seed.len()]));
                    lower.set(j, i, Gf256(seed[(k + 7) % seed.len()]));
                    k += 1;
                }
            }
            let m = lower.mul(&upper);
            let inv = m.invert().expect("unit-triangular product is invertible");
            assert_eq!(m.mul(&inv), Matrix::identity(n));
        },
    );
}

#[test]
fn mul_acc_is_linear() {
    check(
        256,
        |g| (g.bytes(1..256), g.range::<u8>(..), g.range::<u8>(..)),
        |(data, c1, c2)| {
            // (c1 + c2) * x == c1 * x + c2 * x applied to whole slices.
            let mut lhs = vec![0u8; data.len()];
            mul_slice_acc(&mut lhs, &data, Gf256(c1) + Gf256(c2));
            let mut rhs = vec![0u8; data.len()];
            mul_slice_acc(&mut rhs, &data, Gf256(c1));
            mul_slice_acc(&mut rhs, &data, Gf256(c2));
            assert_eq!(lhs, rhs);
        },
    );
}

// ---------------- codes ----------------

#[test]
fn rs_recovers_from_any_allowed_erasure() {
    check(
        256,
        |g| {
            (
                g.bytes(1..2048),
                g.range(2usize..6),
                g.range(1usize..4),
                g.pick(&[MatrixKind::Cauchy, MatrixKind::Vandermonde]),
                g.u64(),
            )
        },
        |(payload, m, extra, kind, lose_seed)| {
            let n = m + extra;
            let planner = StripePlanner::new(m, n).unwrap();
            let code = ReedSolomon::with_kind(m, n, kind).unwrap();
            let (layout, frags) = planner.split_encode(&code, &payload).unwrap();

            // Deterministically pick `extra` fragments to lose.
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = lose_seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let lost: Vec<usize> = order[..extra].to_vec();
            let back = decode_object(&code, &layout, &without(&frags, &lost)).unwrap();
            assert_eq!(back, payload);
        },
    );
}

#[test]
fn raid5_rmw_equals_full_reencode() {
    check(
        256,
        |g| (g.bytes(64..4096), g.unit(), g.unit()),
        |(payload, offset_frac, len_frac)| {
            let planner = StripePlanner::new(3, 4).unwrap();
            let code = Raid5::new(3).unwrap();
            let mut obj = payload;
            let (layout, mut frags) = planner.split_encode(&code, &obj).unwrap();

            let offset = ((obj.len() - 1) as f64 * offset_frac) as usize;
            let max_len = obj.len() - offset;
            let len = 1 + ((max_len - 1) as f64 * len_frac) as usize;
            let new_bytes: Vec<u8> = (0..len).map(|i| (i * 151 % 256) as u8).collect();

            let plan = plan_update(&layout, offset, len).unwrap();
            let (lo, hi) = parity_window(&plan.touched);
            let old_segments: Vec<Vec<u8>> =
                plan.touched.iter().map(|&(sh, st, l)| frags[sh][st..st + l].to_vec()).collect();
            let (new_segs, new_parity) =
                apply_ranged_update(&plan.touched, &old_segments, &frags[3][lo..hi], &new_bytes)
                    .unwrap();
            for (k, &(sh, st, l)) in plan.touched.iter().enumerate() {
                frags[sh][st..st + l].copy_from_slice(&new_segs[k]);
            }
            frags[3][lo..hi].copy_from_slice(&new_parity);

            obj[offset..offset + len].copy_from_slice(&new_bytes);
            let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
            for (got, want) in frags.iter().zip(&oracle) {
                assert_eq!(got, want);
            }
        },
    );
}

#[test]
fn raid6_survives_any_two_losses() {
    check(
        256,
        |g| (g.bytes(1..1024), g.range(2usize..6), g.range::<usize>(..), g.range::<usize>(..)),
        |(payload, m, a_pick, b_pick)| {
            let n = m + 2;
            let planner = StripePlanner::new(m, n).unwrap();
            let code = Raid6::new(m).unwrap();
            let (layout, frags) = planner.split_encode(&code, &payload).unwrap();
            let a = a_pick % n;
            let mut b = b_pick % n;
            if b == a {
                b = (b + 1) % n;
            }
            let back = decode_object(&code, &layout, &without(&frags, &[a, b])).unwrap();
            assert_eq!(back, payload);
        },
    );
}

#[test]
fn multi_parity_ranged_update_matches_reencode() {
    check(
        256,
        |g| (g.bytes(256..4096), g.range(2usize..5), g.range(1usize..3), g.unit(), g.unit()),
        |(payload, m, parities, offset_frac, len_frac)| {
            let n = m + parities;
            let planner = StripePlanner::new(m, n).unwrap();
            let code = ReedSolomon::new(m, n).unwrap();
            let mut obj = payload;
            let (layout, mut frags) = planner.split_encode(&code, &obj).unwrap();

            let offset = ((obj.len() - 1) as f64 * offset_frac) as usize;
            let len = (1 + ((obj.len() - offset - 1) as f64 * len_frac) as usize).max(1);
            let new_bytes: Vec<u8> = (0..len).map(|i| (i * 131 + offset) as u8).collect();

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
            for (j, w) in new_pars.chunks(hi - lo).enumerate() {
                frags[m + j][lo..hi].copy_from_slice(w);
            }
            obj[offset..offset + len].copy_from_slice(&new_bytes);
            let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
            for (got, want) in frags.iter().zip(&oracle) {
                assert_eq!(got, want);
            }
        },
    );
}

/// The ranged-update kernel that writes into the caller's buffer ≡ the
/// owning kernel it replaced (`oracle::apply_ranged_update_multi`, on the
/// byte-at-a-time products) for RAID5, RAID6 and RS with three parities,
/// any range including an empty one: the new parity windows are appended
/// back to back after whatever the buffer held, and the new data segments
/// are the new bytes. A window of the wrong length is the same error and
/// leaves the buffer as it was.
#[test]
fn ranged_update_into_caller_buffers_matches_the_owning_kernel() {
    check(
        256,
        |g| {
            (
                g.bytes(1..4096),
                g.range(1usize..7),
                g.range(0u8..3),
                g.unit(),
                g.unit(),
                g.bytes(0..40),
            )
        },
        |(payload, m, kind, offset_frac, len_frac, held)| {
            let code: Box<dyn ErasureCode> = match kind {
                0 => Box::new(Raid5::new(m).unwrap()),
                1 => Box::new(Raid6::new(m).unwrap()),
                _ => Box::new(ReedSolomon::new(m, m + 3).unwrap()),
            };
            let (m, n) = (code.data_fragments(), code.total_fragments());
            let planner = StripePlanner::new(m, n).unwrap();
            let (layout, frags) = planner.split_encode(&*code, &payload).unwrap();
            let offset = (payload.len() as f64 * offset_frac) as usize;
            let len = ((payload.len() - offset) as f64 * len_frac) as usize;
            let new_bytes: Vec<u8> = (0..len).map(|i| (i * 197 + offset) as u8).collect();

            let plan = plan_update(&layout, offset, len).unwrap();
            let (lo, hi) = parity_window(&plan.touched);
            let old_segments: Vec<&[u8]> =
                plan.touched.iter().map(|&(sh, st, l)| &frags[sh][st..st + l]).collect();
            let old_parities: Vec<&[u8]> = (m..n).map(|p| &frags[p][lo..hi]).collect();
            let (want_segments, want_parities) = oracle::apply_ranged_update_multi(
                &plan.touched,
                &old_segments,
                &old_parities,
                &new_bytes,
                &code.parity_coefficients(),
            )
            .unwrap();
            assert_eq!(want_segments.concat(), new_bytes);

            let into = |windows: &[&[u8]], buffer: &mut Vec<u8>| {
                apply_ranged_update_into(
                    &*code,
                    &plan.touched,
                    &old_segments,
                    windows,
                    &new_bytes,
                    buffer,
                )
            };
            let mut buffer = held.clone();
            into(&old_parities, &mut buffer).unwrap();
            assert_eq!(buffer[..held.len()], held[..], "what the buffer held stays");
            assert_eq!(buffer[held.len()..], want_parities.concat()[..]);

            let mut short = old_parities.clone();
            short[0] = &short[0][..(hi - lo).saturating_sub(1)];
            let mut buffer = held.clone();
            let want = oracle::apply_ranged_update_multi(
                &plan.touched,
                &old_segments,
                &short,
                &new_bytes,
                &code.parity_coefficients(),
            );
            assert_eq!(into(&short, &mut buffer).map(|_| ()), want.map(|_| ()));
            assert_eq!(buffer, held, "a failed update leaves the buffer as it was");
        },
    );
}

#[test]
fn stripe_roundtrip_any_size() {
    check(
        256,
        |g| (g.bytes(0..8192), g.range(1usize..8)),
        |(payload, m)| {
            let planner = StripePlanner::new(m, m + 1).unwrap();
            let code = Raid5::new(m).unwrap();
            let (layout, frags) = planner.split_encode(&code, &payload).unwrap();
            // Data fragments alone: the copy-only healthy read.
            assert_eq!(decode_object(&code, &layout, &without(&frags, &[m])).unwrap(), payload);
        },
    );
}

#[test]
fn update_plan_access_count_is_bounded() {
    check(
        256,
        |g| (g.range(64usize..100_000), g.unit(), g.range(1usize..512)),
        |(obj_len, offset_frac, len)| {
            let planner = StripePlanner::new(3, 4).unwrap();
            let layout = planner.plan(obj_len);
            let offset = ((obj_len - 1) as f64 * offset_frac) as usize;
            let len = len.min(obj_len - offset).max(1);
            let plan = plan_update(&layout, offset, len).unwrap();
            // RMW touches at most m data shards + 1 parity, read and write.
            assert!(plan.total_accesses() <= 2 * (3 + 1));
            // And a sub-shard-size update touches at most 2 data shards.
            if len <= layout.shard_len {
                assert!(plan.reads.len() <= 2);
            }
        },
    );
}
