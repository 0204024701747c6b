//! Property-based tests for the erasure-coding substrate (DESIGN.md §5).

mod oracle;

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use hyrd_gfec::gf256::{mul_slice_acc, Gf256};
use hyrd_gfec::raid5::Raid5;
use hyrd_gfec::raid6::Raid6;
use hyrd_gfec::rs::{MatrixKind, ReedSolomon};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::update::{apply_ranged_update, parity_window, plan_update};
use hyrd_gfec::{decode_object, ErasureCode, Matrix};
use oracle::without;

proptest! {
    // ---------------- field axioms ----------------

    #[test]
    fn gf_add_is_commutative_associative(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Gf256::ZERO, a);
        prop_assert_eq!(a + a, Gf256::ZERO); // characteristic 2
    }

    #[test]
    fn gf_mul_is_commutative_associative(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * Gf256::ONE, a);
        prop_assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
    }

    #[test]
    fn gf_distributes(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn gf_div_mul_roundtrip(a: u8, b in 1u8..=255) {
        let (a, b) = (Gf256(a), Gf256(b));
        prop_assert_eq!((a * b) / b, a);
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn gf_pow_adds_exponents(a in 1u8..=255, i in 0u32..600, j in 0u32..600) {
        let a = Gf256(a);
        prop_assert_eq!(a.pow(i) * a.pow(j), a.pow(i + j));
    }

    // ---------------- matrices ----------------

    #[test]
    fn random_invertible_matrix_roundtrips(seed in pvec(any::<u8>(), 16)) {
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
        prop_assert_eq!(m.mul(&inv), Matrix::identity(n));
    }

    #[test]
    fn mul_acc_is_linear(data in pvec(any::<u8>(), 1..256), c1: u8, c2: u8) {
        // (c1 + c2) * x == c1 * x + c2 * x applied to whole slices.
        let mut lhs = vec![0u8; data.len()];
        mul_slice_acc(&mut lhs, &data, Gf256(c1) + Gf256(c2));
        let mut rhs = vec![0u8; data.len()];
        mul_slice_acc(&mut rhs, &data, Gf256(c1));
        mul_slice_acc(&mut rhs, &data, Gf256(c2));
        prop_assert_eq!(lhs, rhs);
    }

    // ---------------- codes ----------------

    #[test]
    fn rs_recovers_from_any_allowed_erasure(
        payload in pvec(any::<u8>(), 1..2048),
        m in 2usize..6,
        extra in 1usize..4,
        kind in prop_oneof![Just(MatrixKind::Cauchy), Just(MatrixKind::Vandermonde)],
        lose_seed: u64,
    ) {
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
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn raid5_rmw_equals_full_reencode(
        payload in pvec(any::<u8>(), 64..4096),
        offset_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
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
        let old_segments: Vec<Vec<u8>> = plan
            .touched
            .iter()
            .map(|&(sh, st, l)| frags[sh][st..st + l].to_vec())
            .collect();
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
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn raid6_survives_any_two_losses(
        payload in pvec(any::<u8>(), 1..1024),
        m in 2usize..6,
        a_pick: usize,
        b_pick: usize,
    ) {
        let n = m + 2;
        let planner = StripePlanner::new(m, n).unwrap();
        let code = Raid6::new(m).unwrap();
        let (layout, frags) = planner.split_encode(&code, &payload).unwrap();
        let a = a_pick % n;
        let mut b = b_pick % n;
        if b == a { b = (b + 1) % n; }
        let back = decode_object(&code, &layout, &without(&frags, &[a, b])).unwrap();
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn multi_parity_ranged_update_matches_reencode(
        payload in pvec(any::<u8>(), 256..4096),
        m in 2usize..5,
        parities in 1usize..3,
        offset_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        use hyrd_gfec::update::apply_ranged_update_multi;
        let n = m + parities;
        let planner = StripePlanner::new(m, n).unwrap();
        let code = ReedSolomon::new(m, n).unwrap();
        let mut obj = payload;
        let (layout, mut frags) = planner.split_encode(&code, &obj).unwrap();
        let coeffs = code.parity_coefficients();

        let offset = ((obj.len() - 1) as f64 * offset_frac) as usize;
        let len = (1 + ((obj.len() - offset - 1) as f64 * len_frac) as usize).max(1);
        let new_bytes: Vec<u8> = (0..len).map(|i| (i * 131 + offset) as u8).collect();

        let plan = plan_update(&layout, offset, len).unwrap();
        let (lo, hi) = parity_window(&plan.touched);
        let old_segments: Vec<Vec<u8>> = plan
            .touched
            .iter()
            .map(|&(sh, st, l)| frags[sh][st..st + l].to_vec())
            .collect();
        let old_parities: Vec<Vec<u8>> =
            (m..n).map(|p| frags[p][lo..hi].to_vec()).collect();
        let (new_segs, new_pars) = apply_ranged_update_multi(
            &plan.touched, &old_segments, &old_parities, &new_bytes, &coeffs,
        )
        .unwrap();
        for (k, &(sh, st, l)) in plan.touched.iter().enumerate() {
            frags[sh][st..st + l].copy_from_slice(&new_segs[k]);
        }
        for (j, w) in new_pars.iter().enumerate() {
            frags[m + j][lo..hi].copy_from_slice(w);
        }
        obj[offset..offset + len].copy_from_slice(&new_bytes);
        let (_, oracle) = planner.split_encode(&code, &obj).unwrap();
        for (got, want) in frags.iter().zip(&oracle) {
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn stripe_roundtrip_any_size(payload in pvec(any::<u8>(), 0..8192), m in 1usize..8) {
        let planner = StripePlanner::new(m, m + 1).unwrap();
        let code = Raid5::new(m).unwrap();
        let (layout, frags) = planner.split_encode(&code, &payload).unwrap();
        // Data fragments alone: the copy-only healthy read.
        prop_assert_eq!(decode_object(&code, &layout, &without(&frags, &[m])).unwrap(), payload);
    }

    #[test]
    fn update_plan_access_count_is_bounded(
        obj_len in 64usize..100_000,
        offset_frac in 0.0f64..1.0,
        len in 1usize..512,
    ) {
        let planner = StripePlanner::new(3, 4).unwrap();
        let layout = planner.plan(obj_len);
        let offset = ((obj_len - 1) as f64 * offset_frac) as usize;
        let len = len.min(obj_len - offset).max(1);
        let plan = plan_update(&layout, offset, len).unwrap();
        // RMW touches at most m data shards + 1 parity, read and write.
        prop_assert!(plan.total_accesses() <= 2 * (3 + 1));
        // And a sub-shard-size update touches at most 2 data shards.
        if len <= layout.shard_len {
            prop_assert!(plan.reads.len() <= 2);
        }
    }
}
