//! Offline vendored subset of the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships the small slice of the `bytes` API it actually uses:
//! [`Bytes`] (cheaply cloneable immutable buffer), [`BytesMut`] (growable
//! builder), and the [`Buf`]/[`BufMut`] cursor traits with the
//! little-endian accessors the wire codecs rely on. Semantics match the
//! upstream crate for this subset; anything cmg does not call is omitted.
//!
//! Like upstream, turning a vector into a [`Bytes`] — `Bytes::from(Vec)`,
//! [`BytesMut::freeze`] — takes ownership of its buffer instead of copying
//! it: the vector moves behind a shared `Arc`, and every clone and
//! [`Bytes::slice`] of the result points into that one allocation. A wire
//! frame read into a `Vec` is therefore handed out as a payload window of
//! the very buffer the socket filled. Unlike upstream (which defers it with
//! `unsafe` pointer tagging until the first clone), the shim pays the
//! `Arc`'s small header allocation up front.
//!
//! Also like upstream, the cursor accessors (`remaining`, `copy_to_slice`,
//! `put_slice`, the `get_*` / `put_*` defaults) and the small `Bytes` /
//! `BytesMut` methods are `#[inline]`. The wire codecs call them once per
//! field of every record, from other crates; without LTO a non-generic
//! function lacking the attribute stays an out-of-line call there.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Internally an `Arc<Vec<u8>>` plus a `[start, end)` window, so `clone`
/// and [`Bytes::slice`] are O(1) and never copy the payload.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Number of bytes remaining in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer (O(1), shares the allocation).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's buffer as is: no copy, no shrink.
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            end: v.len(),
            data: Arc::new(v),
            start: 0,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

/// A growable byte buffer used to assemble wire bundles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`] over
    /// the same allocation (no copy).
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte source. Little-endian accessors consume from
/// the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out of the front, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// `true` while bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    #[inline]
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        (**self).copy_to_slice(dst)
    }
}

/// Write cursor used by the wire encoders. Little-endian writers append
/// to the end.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slice() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u64_le(42);
        assert_eq!(m.len(), 13);
        let b = m.freeze();
        let sliced = b.slice(1..);
        let mut cur = sliced.clone();
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 42);
        assert!(!cur.has_remaining());
        // The original view is untouched by reads on the clone.
        assert_eq!(sliced.len(), 12);
        let mut whole = b.clone();
        assert_eq!(whole.get_u8(), 7);
    }

    #[test]
    fn from_vec_freeze_and_slice_share_one_allocation() {
        let v = vec![1u8, 2, 3, 4, 5];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p, "From<Vec<u8>> moves the buffer");
        assert_eq!(b.clone().as_ptr(), p);
        assert_eq!(b.slice(2..).as_ptr(), p.wrapping_add(2));
        assert_eq!(b.slice(..=3).slice(1..).as_ptr(), p.wrapping_add(1));
        let mut m = BytesMut::with_capacity(64);
        m.put_u32_le(7);
        let q = m.as_ptr();
        let f = m.freeze();
        assert_eq!(f.as_ptr(), q, "freeze moves the buffer");

        // Equality compares the viewed bytes, whatever the allocation or
        // window behind them.
        assert_eq!(f, Bytes::from(&7u32.to_le_bytes()[..]));
        assert_eq!(b.slice(1..3), Bytes::from(vec![2, 3]));
        assert_ne!(b.slice(1..3), b.slice(2..4));
        assert_eq!(Bytes::new(), Bytes::default());
        assert!(Bytes::new().is_empty());
        // A read advances only the reading view's window.
        let mut cur = b.slice(1..);
        assert_eq!(cur.get_u8(), 2);
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur.as_ptr(), p.wrapping_add(2));
        assert_eq!(&*b, &[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let b = Bytes::from(vec![1u8]);
        let mut cur = b;
        let _ = cur.get_u32_le();
    }
}
