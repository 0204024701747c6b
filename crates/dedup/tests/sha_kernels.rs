//! SHA-256 kernel correctness suite: FIPS 180-4 vectors on every
//! available kernel, incremental split-point equivalence, and SHA-NI vs
//! scalar vs the oracle (`tests/oracle`, the seed's implementation)
//! bit-identity on random lengths including the empty input and the
//! 63/64/65-byte block boundaries.

use hyrd_testkit::check;

use hyrd_dedup::sha256::{hex, sha256, sha256_with_kernel, Kernel, Sha256};

mod oracle;

/// NIST FIPS 180-4 / CAVP short-message vectors.
const VECTORS: &[(&[u8], &str)] = &[
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    ),
];

#[test]
fn fips_vectors_on_every_kernel() {
    for (input, want) in VECTORS {
        assert_eq!(hex(&oracle::sha256(input)), *want, "oracle");
        for k in Kernel::available() {
            assert_eq!(hex(&sha256_with_kernel(k, input)), *want, "kernel {}", k.name());
        }
    }
}

#[test]
fn block_boundaries_bit_identical_across_kernels() {
    // 0..=200 covers the empty input, the 55/56 and 119/120 splits where
    // the padding takes a second block, and the 63/64/65 and 127/128/129
    // block boundaries; 4,090..=4,100 walks the same tail states around
    // 4 KiB, the block length the integrity index hashes every object at.
    for len in (0..=200usize).chain(4_090..=4_100) {
        let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect();
        let want = oracle::sha256(&data);
        for k in Kernel::available() {
            assert_eq!(
                sha256_with_kernel(k, &data),
                want,
                "kernel {} diverges at len {len}",
                k.name()
            );
        }
    }
}

#[test]
fn million_a_on_every_kernel() {
    let block = [b'a'; 1000];
    for k in Kernel::available() {
        let mut h = Sha256::with_kernel(k);
        for _ in 0..1000 {
            h.update(&block);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            "kernel {}",
            k.name()
        );
    }
}

#[test]
fn kernels_match_reference_on_random_inputs() {
    check(
        64,
        |g| g.bytes(0..5000),
        |data| {
            let want = oracle::sha256(&data);
            assert_eq!(sha256(&data), want);
            for k in Kernel::available() {
                assert_eq!(sha256_with_kernel(k, &data), want, "kernel {}", k.name());
            }
        },
    );
}

#[test]
fn incremental_updates_match_oneshot_at_any_splits() {
    check(
        64,
        |g| (g.bytes(0..3000), g.range(0usize..3000), g.range(0usize..3000)),
        |(data, a, b)| {
            let a = a.min(data.len());
            let b = b.min(data.len());
            let (lo, hi) = (a.min(b), a.max(b));
            let want = oracle::sha256(&data);
            for k in Kernel::available() {
                let mut h = Sha256::with_kernel(k);
                h.update(&data[..lo]);
                h.update(&data[lo..hi]);
                h.update(&data[hi..]);
                assert_eq!(h.finalize(), want, "kernel {} splits {lo}/{hi}", k.name());
            }
        },
    );
}
