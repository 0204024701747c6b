//! [`FleetList`]: a list whose length the fleet bounds, kept inline.
//!
//! The request path's per-call lists — the replicas a read may try, the
//! fragments it fans out to, the flights in the air, the winners, a
//! placement's objects — hold at most one entry per provider (plus a hot
//! copy). A [`FleetList`] keeps them on the stack, so building one costs
//! no allocation; [`crate::Hyrd`] refuses a fleet larger than
//! [`MAX_FLEET`].

/// The most providers a client works over.
pub const MAX_FLEET: usize = 16;

/// Entries a [`FleetList`] holds: one per provider, and a placement's
/// hot copy besides its fragments.
pub const CAPACITY: usize = MAX_FLEET + 1;

/// An inline list of at most [`CAPACITY`] items. Pushing past it panics:
/// the fleet's size is checked when the client is built.
#[derive(Debug, Clone, Copy)]
pub struct FleetList<T> {
    slots: [Option<T>; CAPACITY],
    len: usize,
}

impl<T> FleetList<T> {
    /// An empty list.
    pub fn new() -> Self {
        FleetList { slots: [const { None }; CAPACITY], len: 0 }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        assert!(self.len < CAPACITY, "a fleet list holds at most {CAPACITY} items");
        self.slots[self.len] = Some(item);
        self.len += 1;
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The items in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone + '_ {
        self.slots[..self.len].iter().flatten()
    }

    /// Item `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.slots[..self.len].get(index)?.as_ref()
    }

    /// Removes the last item.
    pub fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        self.slots[self.len].take()
    }

    /// Removes item `index`, moving the last item into its place.
    pub fn swap_remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "index {index} out of a list of {}", self.len);
        self.len -= 1;
        self.slots.swap(index, self.len);
        self.slots[self.len].take().expect("slots below len are filled")
    }

    /// Sorts the items by `key`, stably.
    pub fn sort_by_key<K: Ord>(&mut self, mut key: impl FnMut(&T) -> K) {
        self.slots[..self.len].sort_by_key(|slot| key(slot.as_ref().expect("filled")));
    }
}

impl<T> Default for FleetList<T> {
    fn default() -> Self {
        FleetList::new()
    }
}

impl<T> std::ops::Index<usize> for FleetList<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index).unwrap_or_else(|| panic!("index {index} out of a list of {}", self.len))
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
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<T>, CAPACITY>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

impl<'a, T> IntoIterator for &'a FleetList<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots[..self.len].iter().flatten()
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
