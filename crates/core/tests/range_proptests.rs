//! Adversarial range checks for `update_file`.
//!
//! The original bounds check computed `offset + data.len()` in plain
//! `u64` arithmetic: an offset near `u64::MAX` wrapped the sum around
//! zero, slipped past the `end > size` comparison, and detonated in the
//! downstream slice math. The check now uses `checked_add` and refuses
//! every non-representable or past-the-end range with
//! [`SchemeError::BadRange`] — these tests pin that behaviour with the
//! exact wrap-around offsets plus a property sweep.

use hyrd_testkit::check;

use hyrd::prelude::*;
use hyrd::scheme::SchemeError;

fn client_with(path: &str, size: usize) -> (Fleet, Hyrd) {
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config");
    h.create_file(path, &vec![7u8; size]).unwrap();
    (fleet, h)
}

#[test]
fn offsets_near_u64_max_are_rejected_not_wrapped() {
    let (_fleet, h) = client_with("/f", 8 * 1024);
    // u64::MAX + 2 wraps to 1 ≤ size: the unchecked comparison would
    // have admitted this range and panicked slicing the cached bytes.
    for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 4095] {
        assert!(
            matches!(h.update_file("/f", offset, &[1u8; 2]), Err(SchemeError::BadRange { .. })),
            "offset {offset} must be refused"
        );
    }
    // The file is untouched by the refused updates.
    let (bytes, _) = h.read_file("/f").unwrap();
    assert_eq!(bytes, vec![7u8; 8 * 1024]);
}

/// Any offset in the top 4 KB of the u64 range — wrapping or merely
/// astronomically past EOF — yields `BadRange`, never a panic; and
/// the in-bounds boundary patch (ending exactly at EOF) still lands.
#[test]
fn out_of_range_updates_never_wrap_or_panic() {
    check(
        24,
        |g| (g.range(0u64..4096), g.range(1usize..2048), g.range(1usize..(64 * 1024))),
        |(gap, len, size)| {
            let (_fleet, h) = client_with("/f", size);

            // gap < len wraps end past zero; gap ≥ len stays representable
            // but far beyond EOF — both must take the same refusal path.
            let r = h.update_file("/f", u64::MAX - gap, &vec![3u8; len]);
            assert!(matches!(r, Err(SchemeError::BadRange { .. })));

            // One past the end, non-wrapping: refused too.
            let r = h.update_file("/f", size as u64, &[3u8; 1]);
            assert!(matches!(r, Err(SchemeError::BadRange { .. })));

            // Boundary success: a patch ending exactly at EOF.
            let l = len.min(size);
            let patched = h.update_file("/f", (size - l) as u64, &vec![4u8; l]);
            assert!(patched.is_ok(), "in-bounds boundary update refused: {patched:?}");
        },
    );
}
