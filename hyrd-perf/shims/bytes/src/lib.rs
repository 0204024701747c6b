//! Offline stand-in for the `bytes` crate: [`Bytes`] only.
//!
//! Same cost model as the real type where HyRD depends on it: `clone` and
//! `slice` are O(1) reference-count bumps over one shared allocation,
//! `From<Vec<u8>>` takes ownership without copying, and converting a
//! uniquely-owned full-range `Bytes` back into a `Vec<u8>` reclaims the
//! buffer instead of copying it.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes` (no allocation).
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(bytes), start: 0, end: bytes.len() }
    }

    /// Copies `data` into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn backing(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        }
    }

    /// A sub-view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi, "range start must not be greater than end: {lo} <= {hi}");
        assert!(hi <= len, "range end out of bounds: {hi} <= {len}");
        Bytes { repr: self.repr.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds: {at} <= {}", self.len());
        let head = Bytes { repr: self.repr.clone(), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at`; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds: {at} <= {}", self.len());
        let tail = Bytes { repr: self.repr.clone(), start: self.start + at, end: self.end };
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.backing()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = v.len();
        Bytes { repr: Repr::Shared(Arc::new(v)), start: 0, end }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    /// Reclaims the buffer when this handle is the only owner of the
    /// whole allocation; copies otherwise.
    fn from(b: Bytes) -> Vec<u8> {
        let (start, end) = (b.start, b.end);
        match b.repr {
            Repr::Shared(arc) if start == 0 && end == arc.len() => {
                Arc::try_unwrap(arc).unwrap_or_else(|shared| shared.as_ref().clone())
            }
            Repr::Shared(arc) => arc[start..end].to_vec(),
            Repr::Static(s) => s[start..end].to_vec(),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            match b {
                b'"' | b'\\' => write!(f, "\\{}", b as char)?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl<'a, T: ?Sized> PartialEq<&'a T> for Bytes
where
    Bytes: PartialEq<T>,
{
    fn eq(&self, other: &&'a T) -> bool {
        *self == **other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self[..] == *other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_and_vec_round_trip_reclaims() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.slice(1..3), [2u8, 3][..]);
        assert_eq!(b.slice(..), b);
        let back: Vec<u8> = b.into();
        assert_eq!(back.as_ptr(), ptr, "sole owner reclaims the buffer");

        let b = Bytes::from(back);
        let keep = b.clone();
        let copied: Vec<u8> = b.into();
        assert_eq!(copied, keep);
        assert_ne!(copied.as_ptr(), keep.as_ptr());
    }

    #[test]
    fn split_and_static() {
        let mut b = Bytes::from_static(b"hello world");
        let head = b.split_to(5);
        assert_eq!(head, "hello");
        assert_eq!(b.split_off(1), "world");
        assert_eq!(b, " ");
        assert!(Bytes::new().is_empty());
    }
}
