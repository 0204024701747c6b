//! Property-based tests for the SHA-256 API.

use hyrd_testkit::check;

use hyrd_dedup::sha256::{sha256, Sha256};

#[test]
fn sha256_incremental_equals_oneshot() {
    check(
        24,
        |g| (g.bytes(0..4096), g.unit()),
        |(data, cut_frac)| {
            let cut = ((data.len() as f64) * cut_frac) as usize;
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), sha256(&data));
        },
    );
}

#[test]
fn sha256_is_injective_on_small_perturbations() {
    check(
        24,
        |g| (g.bytes(1..512), g.unit()),
        |(data, flip_frac)| {
            let idx = ((data.len() - 1) as f64 * flip_frac) as usize;
            let mut other = data.clone();
            other[idx] ^= 0x01;
            assert_ne!(sha256(&data), sha256(&other));
        },
    );
}
