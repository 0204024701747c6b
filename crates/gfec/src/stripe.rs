//! Striping: how an object of arbitrary size maps onto the fixed-shape
//! fragments of an erasure code.
//!
//! HyRD ships one fragment per cloud provider, so the layout here is the
//! simple contiguous one: shard `i` holds bytes
//! `[i * shard_len, (i+1) * shard_len)` of the (zero-padded) object. This
//! keeps byte ranges local to few shards, which is what makes partial
//! updates cheap to plan, and lets large reads fan out one Get per
//! provider in parallel (the paper's latency argument for large files).

use crate::inline::{InlineVec, INLINE};
use crate::update::Touched;
use crate::{ErasureCode, GfecError, Result};

/// The geometry of one encoded object: everything needed to split, join
/// and plan updates. Stored in HyRD's metadata next to the fragment
/// locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentLayout {
    /// Original object length in bytes (before padding).
    pub object_len: usize,
    /// Data fragments `m`.
    pub m: usize,
    /// Total fragments `n`.
    pub n: usize,
    /// Bytes per fragment (object padded to `m * shard_len`).
    pub shard_len: usize,
}

impl FragmentLayout {
    /// Total padded length `m * shard_len`.
    pub fn padded_len(&self) -> usize {
        self.m * self.shard_len
    }

    /// Bytes of zero padding appended to the object.
    pub fn padding(&self) -> usize {
        self.padded_len() - self.object_len
    }

    /// Total bytes stored across all `n` fragments.
    pub fn stored_bytes(&self) -> usize {
        self.n * self.shard_len
    }

    /// Storage overhead factor versus the raw object (`>= n/m`; slightly
    /// more for tiny objects because of padding).
    pub fn overhead(&self) -> f64 {
        if self.object_len == 0 {
            return self.n as f64 / self.m as f64;
        }
        self.stored_bytes() as f64 / self.object_len as f64
    }

    /// Maps an absolute byte range of the object to the set of data
    /// shards it touches, as `(shard_index, start_within_shard, len)`.
    pub fn shards_for_range(&self, offset: usize, len: usize) -> Result<Touched> {
        if offset + len > self.object_len {
            return Err(GfecError::RangeOutOfBounds { offset, len, object: self.object_len });
        }
        let mut out = Touched::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let shard = pos / self.shard_len;
            let within = pos % self.shard_len;
            let take = (self.shard_len - within).min(end - pos);
            out.push((shard, within, take));
            pos += take;
        }
        Ok(out)
    }
}

/// Plans fragment geometry and turns objects into fragments, for a given
/// code shape. The way back is [`crate::decode_object`].
///
/// ```
/// use hyrd_gfec::{Raid5, StripePlanner};
///
/// let planner = StripePlanner::new(3, 4).unwrap();
/// let code = Raid5::new(3).unwrap();
/// let (layout, fragments) = planner.split_encode(&code, &[7u8; 10_000]).unwrap();
/// assert_eq!(fragments.len(), 4);
/// assert!(fragments.iter().all(|f| f.len() == layout.shard_len));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePlanner {
    m: usize,
    n: usize,
}

impl StripePlanner {
    /// Shard lengths are rounded up to a multiple of this: 64 B keeps
    /// the XOR loops on cache-line boundaries without bloating tiny
    /// objects.
    pub const ALIGN: usize = 64;

    /// Creates a planner for an `(m, n)` code shape.
    pub fn new(m: usize, n: usize) -> Result<Self> {
        if m == 0 || n <= m || n > 255 {
            return Err(GfecError::InvalidParams { m, n });
        }
        Ok(StripePlanner { m, n })
    }

    /// Computes the layout for an object of `object_len` bytes.
    pub fn plan(&self, object_len: usize) -> FragmentLayout {
        let raw = object_len.div_ceil(self.m).max(1);
        let shard_len = raw.div_ceil(Self::ALIGN) * Self::ALIGN;
        FragmentLayout { object_len, m: self.m, n: self.n, shard_len }
    }

    /// Splits `object` into its `m` data fragments — the first half of
    /// [`Self::split_encode`], for callers that time the parity fill on
    /// its own. Each fragment is built with a single copy from the
    /// caller's slice, zero-padding only past the object's end; the
    /// result has room for the parity fragments.
    pub fn split(&self, object: &[u8]) -> (FragmentLayout, Vec<Vec<u8>>) {
        let layout = self.plan(object.len());
        let len = layout.shard_len;
        let mut fragments: Vec<Vec<u8>> = Vec::with_capacity(self.n);
        for i in 0..self.m {
            let start = (i * len).min(object.len());
            let end = ((i + 1) * len).min(object.len());
            let mut shard = Vec::with_capacity(len);
            shard.extend_from_slice(&object[start..end]);
            shard.resize(len, 0);
            fragments.push(shard);
        }
        (layout, fragments)
    }

    /// Appends the `n - m` parity fragments to the `m` data fragments of
    /// [`Self::split`] — the second half of [`Self::split_encode`]. Each
    /// is allocated at the shard length and filled straight into its
    /// spare capacity, no zero fill first.
    pub fn push_parity<C: ErasureCode + ?Sized>(
        &self,
        code: &C,
        fragments: &mut Vec<Vec<u8>>,
    ) -> Result<()> {
        assert_eq!(code.data_fragments(), self.m, "code/planner m mismatch");
        assert_eq!(code.total_fragments(), self.n, "code/planner n mismatch");
        if fragments.len() != self.m {
            return Err(GfecError::NotEnoughFragments { have: fragments.len(), need: self.m });
        }
        let len = fragments[0].len();
        fragments.extend((self.m..self.n).map(|_| Vec::with_capacity(len)));
        let (data, parity) = fragments.split_at_mut(self.m);
        let shards: InlineVec<&[u8], INLINE> = data.iter().map(Vec::as_slice).collect();
        code.encode_into(&shards, parity)
    }

    /// Splits `object` into `m` data fragments and encodes the `n - m`
    /// parity fragments — the one place an object becomes fragments.
    /// Fragment `i` is element `i` of the result.
    ///
    /// Every fragment is its own exactly-sized allocation (a ranged
    /// update that later replaces one must not pin the whole stripe).
    pub fn split_encode<C: ErasureCode + ?Sized>(
        &self,
        code: &C,
        object: &[u8],
    ) -> Result<(FragmentLayout, Vec<Vec<u8>>)> {
        let (layout, mut fragments) = self.split(object);
        self.push_parity(code, &mut fragments)?;
        Ok((layout, fragments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_object, tests::without};
    use crate::raid5::Raid5;
    use crate::rs::ReedSolomon;

    #[test]
    fn plan_pads_and_aligns() {
        let p = StripePlanner::new(3, 4).unwrap();
        let l = p.plan(1000);
        assert_eq!(l.m, 3);
        assert_eq!(l.n, 4);
        assert!(l.shard_len.is_multiple_of(StripePlanner::ALIGN));
        assert!(l.padded_len() >= 1000);
        assert_eq!(l.padding(), l.padded_len() - 1000);
    }

    #[test]
    fn empty_object_still_has_one_aligned_shard() {
        let p = StripePlanner::new(2, 3).unwrap();
        let l = p.plan(0);
        assert_eq!(l.shard_len, StripePlanner::ALIGN);
        let code = Raid5::new(2).unwrap();
        let (l2, frags) = p.split_encode(&code, &[]).unwrap();
        assert_eq!(l2, l);
        assert_eq!(frags, vec![vec![0u8; l.shard_len]; 3]);
        assert_eq!(decode_object(&code, &l2, &without(&frags, &[0])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn data_fragments_are_the_object_zero_padded_at_various_sizes() {
        let p = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        for size in [0usize, 1, 63, 64, 65, 191, 192, 193, 1000, 4096, 100_000] {
            let obj: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let (layout, frags) = p.split_encode(&code, &obj).unwrap();
            assert!(frags.iter().all(|f| f.len() == layout.shard_len), "size={size}");
            let mut padded = frags[..3].concat();
            assert!(padded[size..].iter().all(|&b| b == 0), "size={size}");
            padded.truncate(size);
            assert_eq!(padded, obj, "size={size}");
            // The healthy read: data fragments only, no arithmetic.
            assert_eq!(decode_object(&code, &layout, &without(&frags, &[3])).unwrap(), obj);
        }
    }

    #[test]
    fn encode_decode_object_with_raid5_any_loss() {
        let p = StripePlanner::new(3, 4).unwrap();
        let code = Raid5::new(3).unwrap();
        let obj: Vec<u8> = (0..10_000).map(|i| (i * 7 % 256) as u8).collect();
        let (layout, frags) = p.split_encode(&code, &obj).unwrap();
        assert_eq!(frags.len(), 4);
        for lost in 0..4 {
            let back = decode_object(&code, &layout, &without(&frags, &[lost])).unwrap();
            assert_eq!(back, obj, "lost={lost}");
        }
    }

    #[test]
    fn encode_decode_object_with_rs() {
        let p = StripePlanner::new(4, 6).unwrap();
        let code = ReedSolomon::new(4, 6).unwrap();
        let obj = vec![0xC3u8; 5555];
        let (layout, frags) = p.split_encode(&code, &obj).unwrap();
        assert_eq!(decode_object(&code, &layout, &without(&frags, &[0, 1])).unwrap(), obj);
    }

    #[test]
    fn push_parity_wants_exactly_the_data_fragments() {
        let p = StripePlanner::new(4, 6).unwrap();
        let code = ReedSolomon::new(4, 6).unwrap();
        let (_, mut frags) = p.split(&[0x5Au8; 999]);
        assert_eq!(frags.len(), 4);
        p.push_parity(&code, &mut frags).unwrap();
        assert_eq!(frags, p.split_encode(&code, &[0x5Au8; 999]).unwrap().1);
        // Already carries its parity: not a set of data fragments any more.
        assert_eq!(
            p.push_parity(&code, &mut frags),
            Err(GfecError::NotEnoughFragments { have: 6, need: 4 })
        );
    }

    #[test]
    fn shards_for_range_covers_exactly() {
        let p = StripePlanner::new(4, 5).unwrap();
        let l = p.plan(1024);
        // Range fully inside one shard.
        let r = l.shards_for_range(10, 20).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], (0, 10, 20));
        // Range crossing a shard boundary.
        let r = l.shards_for_range(l.shard_len - 4, 8).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], (0, l.shard_len - 4, 4));
        assert_eq!(r[1], (1, 0, 4));
        // Whole object.
        let r = l.shards_for_range(0, 1024).unwrap();
        let total: usize = r.iter().map(|&(_, _, len)| len).sum();
        assert_eq!(total, 1024);
        // Empty range.
        assert!(l.shards_for_range(5, 0).unwrap().is_empty());
        // Out of bounds.
        assert!(matches!(l.shards_for_range(1020, 10), Err(GfecError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn overhead_approaches_code_rate_for_large_objects() {
        let p = StripePlanner::new(3, 4).unwrap();
        let l = p.plan(30 * 1024 * 1024);
        assert!((l.overhead() - 4.0 / 3.0).abs() < 0.01, "overhead={}", l.overhead());
        // Tiny objects pay padding overhead instead.
        let tiny = p.plan(10);
        assert!(tiny.overhead() > 4.0 / 3.0);
    }
}
