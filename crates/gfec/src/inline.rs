//! [`InlineVec`]: a list kept on the stack up to a fixed count and on the
//! heap beyond it.
//!
//! A decode plan, an update plan and the lists the request path builds
//! around them hold one entry per fragment (or per pair of fragments),
//! and a stripe has at most [`INLINE`] fragments in every configuration
//! this workspace runs. Kept inline, such a list costs no allocation; a
//! wider code still works and pays for its lists on the heap.

use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// Fragments a plan keeps inline: a fleet of sixteen providers and a
/// hot copy, as the dispatcher's own fleet lists.
pub const INLINE: usize = 17;

/// A list of `T` that lives in place while it holds at most `N` items
/// and moves to the heap for good when it grows past that.
pub struct InlineVec<T, const N: usize> {
    /// Items `..len` are initialised while `spill` is `None`.
    inline: [MaybeUninit<T>; N],
    len: usize,
    /// Every item, once there were more than `N`.
    spill: Option<Vec<T>>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub const fn new() -> Self {
        InlineVec { inline: [const { MaybeUninit::uninit() }; N], len: 0, spill: None }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if let Some(heap) = &mut self.spill {
            heap.push(item);
        } else if self.len < N {
            self.inline[self.len].write(item);
            self.len += 1;
        } else {
            let mut heap = Vec::with_capacity(2 * N);
            // The items move out one by one; `len` drops to zero first so
            // that nothing is read twice or dropped twice.
            let len = std::mem::take(&mut self.len);
            for slot in &self.inline[..len] {
                // SAFETY: slots below the old `len` are initialised, and
                // each is read exactly once.
                heap.push(unsafe { slot.assume_init_read() });
            }
            heap.push(item);
            self.spill = Some(heap);
        }
    }

    /// Removes the last item.
    pub fn pop(&mut self) -> Option<T> {
        if let Some(heap) = &mut self.spill {
            return heap.pop();
        }
        self.len = self.len.checked_sub(1)?;
        // SAFETY: the slot was initialised and is now past `len`, so it is
        // read exactly once.
        Some(unsafe { self.inline[self.len].assume_init_read() })
    }

    /// Removes item `index`, moving the last item into its place.
    pub fn swap_remove(&mut self, index: usize) -> T {
        let len = self.len();
        assert!(index < len, "index {index} out of a list of {len}");
        self.swap(index, len - 1);
        self.pop().expect("the list is not empty")
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        if self.spill.is_none() {
            // SAFETY: the inline items are initialised and dropped once;
            // a spilled list's `Vec` drops its own.
            unsafe { std::ptr::drop_in_place(self.deref_mut()) }
        }
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.spill {
            Some(heap) => heap,
            // SAFETY: slots `..len` are initialised, and `MaybeUninit<T>`
            // has `T`'s layout.
            None => unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast(), self.len) },
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(heap) => heap,
            // SAFETY: as in `deref`.
            None => unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast(), self.len)
            },
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = InlineVec::new();
        list.extend(items);
        list
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        items.into_iter().for_each(|item| self.push(item));
    }
}

/// The items of an [`InlineVec`], by value and in order.
pub enum IntoIter<T, const N: usize> {
    /// Slots `next..end` are initialised and not yet handed out.
    Inline { items: [MaybeUninit<T>; N], next: usize, end: usize },
    /// A spilled list's items.
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::Heap(items) => items.next(),
            IntoIter::Inline { items, next, end } => (*next < *end).then(|| {
                *next += 1;
                // SAFETY: the slot is initialised, and `next` moved past
                // it, so it is read exactly once.
                unsafe { items[*next - 1].assume_init_read() }
            }),
        }
    }
}

impl<T, const N: usize> Drop for IntoIter<T, N> {
    fn drop(&mut self) {
        if let IntoIter::Inline { items, next, end } = self {
            for slot in &mut items[*next..*end] {
                // SAFETY: the slots not handed out are initialised.
                unsafe { slot.assume_init_drop() }
            }
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        let mut list = std::mem::ManuallyDrop::new(self);
        match list.spill.take() {
            Some(heap) => IntoIter::Heap(heap.into_iter()),
            // SAFETY: the items move to the iterator, and `list` is never
            // dropped, so each is owned once.
            None => IntoIter::Inline {
                items: unsafe { std::ptr::read(&list.inline) },
                next: 0,
                end: list.len,
            },
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.deref().fmt(f)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.deref() == other.deref()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn a_list_stays_inline_up_to_its_capacity_and_spills_beyond() {
        let mut list: InlineVec<usize, 3> = (0..3).collect();
        assert!(list.spill.is_none());
        assert_eq!(list[..], [0, 1, 2]);
        list.push(3);
        assert!(list.spill.is_some());
        list[0] = 9;
        assert_eq!(list[..], [9, 1, 2, 3]);
        assert_eq!(list.clone(), list);
        assert_eq!(format!("{list:?}"), "[9, 1, 2, 3]");
        assert!(InlineVec::<u8, 4>::new().is_empty());
    }

    #[test]
    fn a_list_pops_and_removes_by_swapping_inline_or_spilled() {
        for extra in [0, 5] {
            let mut list: InlineVec<usize, 5> = (0..5 + extra).collect();
            assert_eq!(list.swap_remove(1), 1);
            assert_eq!(list[..4], [0, 4 + extra, 2, 3]);
            assert_eq!(list.pop(), Some(3 + extra));
            assert_eq!(list.into_iter().take(3).collect::<Vec<_>>(), [0, 4 + extra, 2]);
        }
        assert_eq!(InlineVec::<u8, 2>::new().pop(), None);
    }

    #[test]
    fn every_item_is_dropped_once_inline_or_spilled() {
        let item = Rc::new(());
        for count in [0, 2, 3, 7] {
            let list: InlineVec<Rc<()>, 3> = (0..count).map(|_| Rc::clone(&item)).collect();
            assert_eq!(Rc::strong_count(&item), 1 + count);
            drop(list);
            assert_eq!(Rc::strong_count(&item), 1, "{count} items");
            // Taken by value, part handed out and the rest dropped.
            let list: InlineVec<Rc<()>, 3> = (0..count).map(|_| Rc::clone(&item)).collect();
            let mut items = list.into_iter();
            let first = items.next();
            assert_eq!(Rc::strong_count(&item), 1 + count);
            drop((first, items));
            assert_eq!(Rc::strong_count(&item), 1, "{count} items by value");
        }
    }
}
