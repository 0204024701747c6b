//! `hyrd-testkit`: seeded property testing, dev-dependency only.
//!
//! A generator is a plain closure over a [`Gen`] — a splitmix64 stream
//! plus a *size* that scales every collection length — and a property is
//! a closure that panics (`assert!`) on a counterexample. [`check`] runs
//! `cases` seeds at full size; when one fails it re-runs the same seed at
//! half the size, again and again, until the property passes, and reports
//! the smallest failing `(seed, size)` with the input it generates. The
//! same `(seed, size)` always generates the same input, on every host.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case is first generated at.
pub const FULL_SIZE: u32 = 64;

/// The source of one generated case.
pub struct Gen {
    state: u64,
    size: u32,
}

/// An integer type [`Gen::range`] can draw.
pub trait Int: Copy {
    const MIN: Self;
    const MAX: Self;
    fn widen(self) -> i128;
    fn narrow(wide: i128) -> Self;
}

macro_rules! ints {
    ($($ty:ty),*) => {$(
        impl Int for $ty {
            const MIN: Self = <$ty>::MIN;
            const MAX: Self = <$ty>::MAX;
            fn widen(self) -> i128 {
                self as i128
            }
            fn narrow(wide: i128) -> Self {
                wide as $ty
            }
        }
    )*};
}
ints!(u8, u16, u32, u64, usize, i32, i64);

impl Gen {
    /// The stream of `seed`, generating at `size` (≤ [`FULL_SIZE`]).
    pub fn new(seed: u64, size: u32) -> Self {
        let mut gen = Gen { state: seed, size };
        gen.state = gen.u64(); // neighbouring seeds, unrelated streams
        gen
    }

    /// The next 64 bits (splitmix64).
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `range`; `..` is the whole type.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(lo) => lo.widen(),
            Bound::Excluded(lo) => lo.widen() + 1,
            Bound::Unbounded => T::MIN.widen(),
        };
        let hi = match range.end_bound() {
            Bound::Included(hi) => hi.widen(),
            Bound::Excluded(hi) => hi.widen() - 1,
            Bound::Unbounded => T::MAX.widen(),
        };
        assert!(lo <= hi, "cannot draw from an empty range");
        let span = (hi - lo) as u128 + 1;
        T::narrow(lo + (self.u64() as u128 % span) as i128)
    }

    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1]`.
    pub fn unit_inclusive(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
    }

    /// A collection length in `len`, its spread above `len.start` scaled
    /// by the case's size.
    pub fn len(&mut self, len: Range<usize>) -> usize {
        assert!(len.start < len.end, "cannot draw from an empty range");
        let spread = (len.end - len.start) as u64 * self.size as u64;
        len.start + self.range(0..spread.div_ceil(FULL_SIZE as u64).max(1)) as usize
    }

    /// `len` items (see [`Self::len`]), each from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.len(len)).map(|_| item(self)).collect()
    }

    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |g| g.range(..))
    }

    /// `None` one time in four.
    pub fn option<T>(&mut self, some: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        (self.range(0..4u8) > 0).then(|| some(self))
    }

    /// An index into `weights`, drawn in proportion to them.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let mut pick = self.range(0..weights.iter().sum::<u32>());
        weights
            .iter()
            .position(|&w| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .expect("pick is below the total weight")
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }
}

/// The smallest failing case [`find_failure`] reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    pub seed: u64,
    /// The smallest size at which `seed` still fails; it first failed at
    /// [`FULL_SIZE`].
    pub size: u32,
}

/// Runs seeds `0..cases` at [`FULL_SIZE`]; the first that panics is
/// re-run at half the size until it passes.
pub fn find_failure<T>(
    cases: u32,
    generate: impl Fn(&mut Gen) -> T,
    property: impl Fn(T),
) -> Option<Failure> {
    let fails = |seed: u64, size: u32| {
        catch_unwind(AssertUnwindSafe(|| property(generate(&mut Gen::new(seed, size))))).is_err()
    };
    let seed = (0..cases as u64).find(|&seed| fails(seed, FULL_SIZE))?;
    let mut size = FULL_SIZE;
    while size > 0 && fails(seed, size / 2) {
        size /= 2;
    }
    Some(Failure { seed, size })
}

/// Asserts `property` over `cases` generated inputs. On a counterexample
/// the smallest failing `(seed, size)` and its input go to stderr and the
/// property runs once more on that input, so the test fails with the
/// property's own message.
pub fn check<T: Debug>(cases: u32, generate: impl Fn(&mut Gen) -> T, property: impl Fn(T)) {
    if let Some(Failure { seed, size }) = find_failure(cases, &generate, &property) {
        let input = generate(&mut Gen::new(seed, size));
        eprintln!("property failed: seed {seed}, size {size} (of {FULL_SIZE}); input: {input:?}");
        property(input);
        panic!("property failed at seed {seed}, size {size}, then passed on a re-run: it is not deterministic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_respect_their_ranges_and_repeat_for_a_seed() {
        let mut g = Gen::new(7, FULL_SIZE);
        for _ in 0..2_000 {
            assert!((3..9u8).contains(&g.range(3..9u8)));
            assert!((-5..=5i64).contains(&g.range(-5..=5i64)));
            let _: u64 = g.range(..);
            assert!((2..10).contains(&g.len(2..10)));
            assert!((0.0..1.0).contains(&g.unit()));
            assert!(g.weighted(&[0, 3, 0, 1]) % 2 == 1);
        }
        assert_eq!(g.bytes(5..6).len(), 5);
        assert_eq!(Gen::new(1, 0).len(4..400), 4);
        let draw = |seed| Gen::new(seed, FULL_SIZE).vec(0..20, |g| g.range(0..1000u32));
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn a_true_property_passes_every_case() {
        check(64, |g| g.vec(0..64, |g| g.range(0..1000u32)), |v| assert!(v.len() < 64));
    }

    /// Deliberately false: "no vector sums past 2,000".
    #[test]
    fn a_false_property_is_reported_at_a_smaller_size_and_repeatably() {
        let run = || {
            find_failure(
                64,
                |g| g.vec(0..64, |g| g.range(0..1000u32)),
                |v| assert!(v.iter().sum::<u32>() <= 2_000, "sum too large"),
            )
            .expect("the property is false")
        };
        let first = run();
        assert!(first.size < FULL_SIZE, "{first:?}");
        assert_eq!(first, run(), "two runs report the same (seed, size)");
        // The reported case fails and the next halving passes.
        let sum = |size| {
            Gen::new(first.seed, size).vec(0..64, |g| g.range(0..1000u32)).iter().sum::<u32>()
        };
        assert!(sum(first.size) > 2_000 && sum(first.size / 2) <= 2_000);
    }
}
