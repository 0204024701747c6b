//! Offline stand-in for `rayon`: the parallel-iterator surface, run on the
//! calling thread.
//!
//! Results are what rayon's indexed iterators give — same items, same
//! order — without worker threads. That is a measured choice, not a
//! shortcut: on the 2-vCPU benchmark host a second worker made the two
//! byte-heavy workloads ~8 % *slower* and tripled their run-to-run spread
//! (hyrd-perf/README.md, "Offline build"). `Send`/`Sync` bounds are kept,
//! so code that would not compile against rayon does not compile here.

/// Worker threads a parallel stage uses.
pub fn current_num_threads() -> usize {
    1
}

/// Runs both closures and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    (a(), b())
}

pub mod iter {
    /// An order-preserving "parallel" iterator over an ordinary one.
    pub struct Par<I>(pub(crate) I);

    /// The adaptor and consumer methods HyRD uses, with rayon's bounds.
    pub trait ParallelIterator: Sized {
        type Item: Send;
        type Inner: Iterator<Item = Self::Item>;

        fn into_inner(self) -> Self::Inner;

        fn map<R: Send, F: Fn(Self::Item) -> R + Sync + Send>(
            self,
            f: F,
        ) -> Par<std::iter::Map<Self::Inner, F>> {
            Par(self.into_inner().map(f))
        }

        fn enumerate(self) -> Par<std::iter::Enumerate<Self::Inner>> {
            Par(self.into_inner().enumerate())
        }

        fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
            self.into_inner().for_each(f)
        }

        fn collect<C: FromIterator<Self::Item>>(self) -> C {
            self.into_inner().collect()
        }

        fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
            self.into_inner().sum()
        }

        fn count(self) -> usize {
            self.into_inner().count()
        }
    }

    impl<I: Iterator> ParallelIterator for Par<I>
    where
        I::Item: Send,
    {
        type Item = I::Item;
        type Inner = I;

        fn into_inner(self) -> I {
            self.0
        }
    }

    /// Conversion into a parallel iterator (by value).
    pub trait IntoParallelIterator {
        type Iter: Iterator;
        fn into_par_iter(self) -> Par<Self::Iter>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Iter = std::vec::IntoIter<T>;
        fn into_par_iter(self) -> Par<Self::Iter> {
            Par(self.into_iter())
        }
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Iter = std::ops::Range<usize>;
        fn into_par_iter(self) -> Par<Self::Iter> {
            Par(self)
        }
    }

    impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
        type Iter = std::slice::Iter<'a, T>;
        fn into_par_iter(self) -> Par<Self::Iter> {
            Par(self.iter())
        }
    }

    impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
        type Iter = std::slice::Iter<'a, T>;
        fn into_par_iter(self) -> Par<Self::Iter> {
            Par(self.iter())
        }
    }

    /// `par_iter()` on anything whose reference converts.
    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> Par<Self::Iter>;
    }

    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoParallelIterator,
    {
        type Iter = <&'a C as IntoParallelIterator>::Iter;
        fn par_iter(&'a self) -> Par<Self::Iter> {
            self.into_par_iter()
        }
    }

    /// `par_chunks()` on slices.
    pub trait ParallelSlice<T: Sync> {
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>> {
            Par(self.chunks(size))
        }
    }

    /// `par_chunks_mut()` on slices.
    pub trait ParallelSliceMut<T: Send> {
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
            Par(self.chunks_mut(size))
        }
    }
}

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adaptors_behave_like_their_sequential_twins() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..1000usize).map(|i| i * i).collect::<Vec<_>>());

        let r: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(|i| if i == 7 { Err("seven".to_string()) } else { Ok(i) })
            .collect();
        assert_eq!(r, Err("seven".to_string()));

        let v = vec![1u64, 2, 3];
        let total: u64 = v.par_iter().map(|x| *x * 2).sum();
        assert_eq!(total, 12);
        assert_eq!(v.par_chunks(2).count(), 2);
        assert_eq!(super::join(|| 1, || 2), (1, 2));
    }
}
