//! Offline stand-in for `rand` 0.8: `SmallRng` (xoshiro256++ seeded through
//! splitmix64, as upstream on 64-bit targets), the `Rng`/`SeedableRng`
//! surface the HyRD workload generators use, `Distribution`/`Standard`
//! and `SliceRandom`.
//!
//! Streams are deterministic functions of the seed. They are not
//! guaranteed to be bit-identical to upstream `rand` (range sampling uses
//! a plain widening multiply), so op streams generated under this stand-in
//! are comparable only with each other.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with splitmix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++: small, fast, not cryptographic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                return SmallRng::seed_from_u64(0);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod distributions {
    use super::Rng;

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// The "natural" distribution of a type: uniform over all values for
    /// integers and `bool`, uniform in `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
        }
    }
}

use distributions::{Distribution, Standard};

/// A range `gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply (bias < 2^-64 · span).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                    Some(span) => (lo as i128 + below(rng, span) as i128) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit: $t = Standard.sample(rng);
                self.start + (self.end - self.start) * unit
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let unit: $t = Standard.sample(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
float_ranges!(f32, f64);

/// User-facing generator methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }

    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        type Item;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut Self::Item>;

        /// Fisher-Yates.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut T> {
            if self.is_empty() {
                None
            } else {
                let i = rng.gen_range(0..self.len());
                Some(&mut self[i])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::SmallRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn seeded_streams_repeat_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        assert_eq!(xs, (0..8).map(|_| b.gen::<u64>()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.gen::<u64>()).collect::<Vec<_>>());

        let mut seen = [false; 5];
        for _ in 0..1000 {
            let i = a.gen_range(0..5usize);
            seen[i] = true;
            let f = a.gen_range(-0.15..0.15);
            assert!((-0.15..0.15).contains(&f));
            assert!((3..=9u64).contains(&a.gen_range(3..=9u64)));
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(seen, [true; 5]);

        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut a);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut a).is_some());
    }
}
