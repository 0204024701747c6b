//! [`FleetList`]: a list whose length the fleet bounds, kept inline.
//!
//! The request path's per-call lists — the replicas a read may try, the
//! fragments it fans out to, the flights in the air, the winners, a
//! placement's objects — hold at most one entry per provider (plus a hot
//! copy). A [`FleetList`] keeps them on the stack, so building one costs
//! no allocation; [`crate::Hyrd`] refuses a fleet larger than
//! [`MAX_FLEET`].

use hyrd_gfec::inline::{InlineVec, IntoIter};

/// The most providers a client works over.
pub const MAX_FLEET: usize = 16;

/// Entries a [`FleetList`] holds: one per provider, and a placement's
/// hot copy besides its fragments.
pub const CAPACITY: usize = MAX_FLEET + 1;

/// An inline list of at most [`CAPACITY`] items: `hyrd_gfec`'s
/// [`InlineVec`] at the fleet's capacity — the same list the decoder and
/// the ranged update keep their plans in — with the bound checked. It
/// derefs to a slice. Pushing past the bound panics: the fleet's size is
/// checked when the client is built.
#[derive(Debug, Clone)]
pub struct FleetList<T>(InlineVec<T, CAPACITY>);

impl<T> FleetList<T> {
    /// An empty list.
    pub const fn new() -> Self {
        FleetList(InlineVec::new())
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        assert!(self.len() < CAPACITY, "a fleet list holds at most {CAPACITY} items");
        self.0.push(item);
    }

    /// Removes the last item.
    pub fn pop(&mut self) -> Option<T> {
        self.0.pop()
    }

    /// Removes item `index`, moving the last item into its place.
    pub fn swap_remove(&mut self, index: usize) -> T {
        self.0.swap_remove(index)
    }
}

impl<T> Default for FleetList<T> {
    fn default() -> Self {
        FleetList::new()
    }
}

impl<T> std::ops::Deref for FleetList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> std::ops::DerefMut for FleetList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> FromIterator<T> for FleetList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = FleetList::new();
        items.into_iter().for_each(|item| list.push(item));
        list
    }
}

impl<T> IntoIterator for FleetList<T> {
    type Item = T;
    type IntoIter = IntoIter<T, CAPACITY>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a FleetList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_list_keeps_order_and_removes_by_swapping() {
        let mut list: FleetList<u32> = (0..5).collect();
        assert_eq!((list.len(), list[4]), (5, 4));
        assert_eq!(list.swap_remove(1), 1);
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), [0, 4, 2, 3]);
        list.sort_by_key(|&x| std::cmp::Reverse(x));
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), [4, 3, 2, 0]);
        assert_eq!(list.pop(), Some(0));
        assert_eq!(list.into_iter().collect::<Vec<_>>(), [4, 3, 2]);
        assert!(FleetList::<u8>::new().pop().is_none());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn a_list_refuses_more_than_a_fleet_and_a_hot_copy() {
        let _: FleetList<usize> = (0..=CAPACITY).collect();
    }
}
