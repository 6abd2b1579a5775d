//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `bytes` API it actually uses: a cheaply
//! cloneable immutable buffer ([`Bytes`]), a growable builder
//! ([`BytesMut`]), and the [`Buf`]/[`BufMut`] cursor traits. Multi-byte
//! integer accessors use big-endian byte order, matching upstream.
//!
//! Semantics intentionally preserved from upstream:
//! * `Bytes::clone` is O(1) (shared `Arc<[u8]>` plus a view window).
//! * `advance`/`copy_to_bytes`/`slice` never copy the underlying storage.
//! * `BytesMut::freeze` turns the accumulated bytes into a `Bytes`.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Shared Debug body for the two buffer types: `b"..."` literal style,
/// like upstream `bytes`.
macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "b\"")?;
            for &byte in self.as_ref() {
                if byte.is_ascii_graphic() || byte == b' ' {
                    write!(f, "{}", byte as char)?;
                } else {
                    write!(f, "\\x{byte:02x}")?;
                }
            }
            write!(f, "\"")
        }
    };
}

/// Backing storage for [`Bytes`]: either reference-counted heap bytes or
/// a borrowed `'static` slice. Both clone in O(1). Heap storage is the
/// reference count and the bytes in one block, so a buffer copied out
/// of a slice — a message out of an encoder's reused scratch buffer —
/// costs exactly one allocation. The price is that a `Vec` or a
/// [`BytesMut`] becomes a `Bytes` by copying.
#[derive(Clone)]
enum Storage {
    Shared(Arc<[u8]>),
    Static(&'static [u8]),
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Static(&[])
    }
}

/// A cheaply cloneable, immutable view into shared byte storage.
///
/// Four words, as upstream: every queued message holds one, so the
/// window is two `u32` offsets and a buffer is under 4 GiB.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Storage,
    start: u32,
    end: u32,
}

impl Bytes {
    /// A view of all `len` bytes of `data`.
    fn whole(data: Storage, len: usize) -> Self {
        Bytes {
            data,
            start: 0,
            end: u32::try_from(len).expect("a buffer of 4 GiB or more"),
        }
    }

    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static slice without copying, matching upstream semantics.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::whole(Storage::Static(bytes), bytes.len())
    }

    /// Copy a slice into a fresh buffer (one allocation).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::whole(Storage::Shared(Arc::from(data)), data.len())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of `self` over `range` (zero-copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        // Both fit: `hi` is within a view that does.
        Bytes {
            data: self.data.clone(),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// Split off and return the first `at` bytes, advancing `self` past
    /// them (zero-copy).
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start = head.end;
        head
    }

    /// Contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.data {
            Storage::Shared(data) => data,
            Storage::Static(data) => data,
        };
        &whole[self.start as usize..self.end as usize]
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        let len = vec.len();
        Bytes::whole(Storage::Shared(Arc::from(vec)), len)
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(buf: BytesMut) -> Self {
        buf.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(capacity),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.vec.extend_from_slice(extend);
    }

    /// Drop the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Convert into an immutable [`Bytes`] (a copy; see [`Storage`]).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

/// Read cursor over a byte source. All multi-byte reads are big-endian.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The current unread contiguous chunk.
    fn chunk(&self) -> &[u8];

    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True when at least one byte remains.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consume and return one byte.
    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 on empty buffer");
        let byte = self.chunk()[0];
        self.advance(1);
        byte
    }

    /// Consume and return a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_be_bytes(raw)
    }

    /// Consume and return a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_be_bytes(raw)
    }

    /// Consume and return a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_be_bytes(raw)
    }

    /// Consume `dst.len()` bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice past end");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consume `len` bytes and return them as a [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes past end");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt as u32;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        // Zero-copy specialization: hand out a window over the shared
        // storage instead of copying.
        self.split_to(len)
    }
}

/// Write cursor over a growable byte sink. All multi-byte writes are
/// big-endian.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, value: u16) {
        self.put_slice(&value.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, value: u32) {
        self.put_slice(&value.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, value: u64) {
        self.put_slice(&value.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_views() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(7);
        buf.put_u64(0x0102_0304_0506_0708);
        buf.put_slice(b"xyz");
        let mut bytes = buf.freeze();
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(bytes, b"xyz"[..]);
    }

    #[test]
    fn a_handle_is_at_most_four_words() {
        assert!(size_of::<Bytes>() <= 32);
    }

    #[test]
    fn clone_is_view_sharing() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let mut b = a.clone();
        b.advance(2);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[3, 4]);
        assert_eq!(a.slice(1..3).as_slice(), &[2, 3]);
    }

    #[test]
    fn copy_to_bytes_is_zero_copy_window() {
        let mut a = Bytes::from(vec![9, 8, 7]);
        let head = Buf::copy_to_bytes(&mut a, 2);
        assert_eq!(head.as_slice(), &[9, 8]);
        assert_eq!(a.as_slice(), &[7]);
    }

    #[test]
    fn from_static_borrows_without_copying() {
        static RAW: [u8; 4] = [1, 2, 3, 4];
        let b = Bytes::from_static(&RAW);
        assert_eq!(b.as_slice().as_ptr(), RAW.as_ptr());
        // Views over the static storage stay zero-copy too.
        let tail = b.slice(2..);
        assert_eq!(tail.as_slice().as_ptr(), RAW[2..].as_ptr());
        assert_eq!(tail.as_slice(), &[3, 4]);
    }

    #[test]
    fn frozen_bytes_are_shared_by_their_clones() {
        let mut buf = BytesMut::with_capacity(4);
        buf.put_slice(&[1, 2, 3, 4]);
        let frozen = buf.freeze();
        assert_eq!(frozen.as_slice(), &[1, 2, 3, 4]);
        // O(1) clones keep pointing at the same storage.
        let ptr = frozen.as_slice().as_ptr();
        assert_eq!(frozen.clone().as_slice().as_ptr(), ptr);
    }

    #[test]
    fn debug_renders_literal_style() {
        let b = Bytes::from(vec![b'h', b'i', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"hi\\x00\"");
    }
}
