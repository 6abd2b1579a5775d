//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `bytes` API it actually uses: a cheaply
//! cloneable immutable buffer ([`Bytes`]), a growable builder
//! ([`BytesMut`]), and the [`BufMut`] write cursor. Multi-byte integer
//! writes use big-endian byte order, matching upstream. There is no
//! read cursor: `marp_wire::Reader` reads a message as a plain slice.
//!
//! Semantics intentionally preserved from upstream:
//! * `Bytes::clone` and `Bytes::slice` are O(1) and never allocate.
//! * A slice of shared storage is a window on it, never a copy.
//! * `Bytes::from_static` borrows its slice.
//! * `BytesMut::freeze` turns the accumulated bytes into a `Bytes`.
//! * Equality, ordering, hashing and `Debug` go by content.
//!
//! One representation upstream does not have: a buffer of up to 30
//! bytes copied in (`copy_from_slice`, `From<Vec<u8>>`, `From<&[u8]>`,
//! `From<String>`, `freeze`) lives inside its handle, so a small
//! message costs no allocation. A larger one is one heap block.

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

/// The most bytes a handle holds inline: what is left of its four
/// words after the variant tag and the length byte.
const INLINE_CAP: usize = 30;

// A larger inline buffer would make every handle, and every queued
// message holding one, a word longer.
const _: () = assert!(size_of::<Bytes>() <= 32);

/// A cheaply cloneable, immutable byte buffer.
///
/// Four words, as upstream: every queued message holds one. Three
/// forms, each cloned and sliced without allocating:
/// * `Inline`: up to 30 bytes copied into the handle, the
///   form every small buffer copied in takes; a slice of it is inline
///   too.
/// * `Shared`: a window `start..end` on reference-counted heap bytes,
///   the count and the bytes in one block, so a larger buffer copied in
///   costs exactly one allocation. A slice is a narrower window, however
///   short, so a field decoded out of a message is a view of it. The
///   offsets are `u32`: a buffer is under 4 GiB.
/// * `Static`: a borrowed `'static` slice, sliced by re-borrowing.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        data: [u8; INLINE_CAP],
    },
    Shared {
        data: Arc<[u8]>,
        start: u32,
        end: u32,
    },
    Static(&'static [u8]),
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes(Repr::Static(&[]))
    }
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static slice without copying, matching upstream semantics.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Copy a slice into a fresh buffer: inside the handle if it is 30
    /// bytes or less, else one allocation.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_CAP {
            let mut data = [0; INLINE_CAP];
            data[..bytes.len()].copy_from_slice(bytes);
            return Bytes(Repr::Inline {
                len: bytes.len() as u8,
                data,
            });
        }
        Bytes(Repr::Shared {
            data: Arc::from(bytes),
            start: 0,
            end: u32::try_from(bytes.len()).expect("a buffer of 4 GiB or more"),
        })
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared { start, end, .. } => (end - start) as usize,
            Repr::Static(bytes) => bytes.len(),
        }
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of `self` over `range`, without allocating: a window
    /// on the same storage, or for an inline buffer an inline copy.
    ///
    /// # Panics
    ///
    /// With "slice out of bounds" unless `range` lies within `self`,
    /// in every build profile.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let out_of_bounds = || panic!("slice out of bounds");
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i.checked_add(1).unwrap_or_else(out_of_bounds),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i.checked_add(1).unwrap_or_else(out_of_bounds),
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        if lo > hi || hi > self.len() {
            out_of_bounds();
        }
        match &self.0 {
            Repr::Inline { .. } => Bytes::copy_from_slice(&self[lo..hi]),
            // Both fit: `hi` is within a window that does.
            Repr::Shared { data, start, .. } => Bytes(Repr::Shared {
                data: data.clone(),
                start: start + lo as u32,
                end: start + hi as u32,
            }),
            Repr::Static(bytes) => Bytes(Repr::Static(&bytes[lo..hi])),
        }
    }

    /// Contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Shared { data, start, end } => &data[*start as usize..*end as usize],
            Repr::Static(bytes) => bytes,
        }
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&vec)
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
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

    /// Convert into an immutable [`Bytes`]: a copy, inside the handle
    /// for 30 bytes or less and otherwise into one block with its
    /// reference count.
    pub fn freeze(self) -> Bytes {
        Bytes::copy_from_slice(&self.vec)
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

    fn put_u8(&mut self, value: u8) {
        self.vec.push(value);
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

    /// `len` bytes counting up from 1.
    fn counting(len: u8) -> Vec<u8> {
        (1..=len).collect()
    }

    #[test]
    fn roundtrip_and_views() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(7);
        buf.put_u64(0x0102_0304_0506_0708);
        buf.put_slice(b"xyz");
        let bytes = buf.freeze();
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes.as_slice(), b"\x07\x01\x02\x03\x04\x05\x06\x07\x08xyz");
        assert_eq!(bytes.slice(9..), b"xyz"[..]);
    }

    #[test]
    fn a_handle_is_at_most_four_words() {
        assert!(size_of::<Bytes>() <= 32);
    }

    #[test]
    fn clone_is_view_sharing() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = a.clone().slice(2..);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[3, 4]);
        assert_eq!(a.slice(1..3).as_slice(), &[2, 3]);
        assert_eq!(b.slice(..1).as_slice(), &[3]);
    }

    /// A slice of shared storage is a window on it, however short; a
    /// slice of an inline buffer is an inline copy.
    #[test]
    fn slice_is_a_zero_copy_window() {
        let a = Bytes::from(counting(31));
        let head = a.slice(..2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert_eq!(head.as_slice().as_ptr(), a.as_slice().as_ptr());
        assert_eq!(a.slice(30..).as_slice(), &[31]);
        assert_eq!(a.slice(30..).as_slice().as_ptr(), a[30..].as_ptr());

        let small = Bytes::from(counting(30));
        let head = small.slice(..2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert!(matches!(head.0, Repr::Inline { len: 2, .. }));
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

    /// Past 30 bytes a frozen buffer is one block its clones share; up
    /// to 30 it lives in the handle, and each clone holds its own copy.
    #[test]
    fn frozen_bytes_are_shared_by_their_clones() {
        let mut buf = BytesMut::with_capacity(31);
        buf.put_slice(&counting(31));
        let frozen = buf.freeze();
        assert_eq!(frozen.as_slice(), &counting(31)[..]);
        // O(1) clones keep pointing at the same storage.
        let ptr = frozen.as_slice().as_ptr();
        assert_eq!(frozen.clone().as_slice().as_ptr(), ptr);

        let mut buf = BytesMut::with_capacity(30);
        buf.put_slice(&counting(30));
        let frozen = buf.freeze();
        assert_eq!(frozen.as_slice(), &counting(30)[..]);
        assert!(matches!(frozen.0, Repr::Inline { len: 30, .. }));
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn a_slice_ending_past_usize_max_panics() {
        Bytes::from(counting(6)).slice(..=usize::MAX);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn a_slice_starting_past_usize_max_panics() {
        Bytes::from(counting(6)).slice((Bound::Excluded(usize::MAX), Bound::Unbounded));
    }

    #[test]
    fn debug_renders_literal_style() {
        let b = Bytes::from(vec![b'h', b'i', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"hi\\x00\"");
    }
}
