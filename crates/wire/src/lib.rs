//! Binary wire codec for the MARP reproduction.
//!
//! Everything that crosses the simulated network — protocol messages,
//! client requests, and most importantly the *serialized state of a
//! migrating mobile agent* — is encoded with the [`Wire`] trait defined
//! here. The paper's mobile agents move code and state between IBM Aglets
//! servers; this reproduction emulates them as migrating state messages
//! (see `DESIGN.md`), so the codec is the exact boundary where an agent
//! "leaves" one host and "arrives" at another.
//!
//! Design goals:
//!
//! * **Compact**: integers use LEB128 varints, so small identifiers and
//!   counts cost one byte.
//! * **Deterministic**: a value always encodes to the same bytes; there is
//!   no padding, no alignment, and no versioning noise. This keeps the
//!   discrete-event simulator reproducible byte-for-byte.
//! * **Said once**: `encode` and `decode` are the format. A message's
//!   size is the length of its encoding; nothing else describes it.
//! * **Self-contained**: no external serialization framework; the entire
//!   format is visible in this crate and covered by round-trip property
//!   tests.

#![warn(missing_docs)]

mod error;
mod label;
mod ragged;
mod reader;
mod varint;

pub use error::WireError;
pub use ragged::Ragged;
pub use reader::Reader;
pub use varint::{get_uvarint, put_uvarint};

use bytes::{Bytes, BytesMut};
use std::cell::Cell;

/// A type that can be encoded to and decoded from the wire format.
///
/// Encoding is infallible (the buffer grows as needed); decoding returns a
/// [`WireError`] on truncated or malformed input. Implementations must
/// round-trip: `decode(encode(v)) == v`.
///
/// The trait is sealed: this crate's leaf codecs and the expansions of
/// [`wire_struct!`] and [`wire_enum!`] are its only implementations, so
/// every message's `encode` and `decode` come from one field list. A
/// handwritten impl does not compile:
///
/// ```compile_fail,E0277
/// use marp_wire::{Reader, Wire, WireError};
///
/// struct Handwritten(u8);
/// impl Wire for Handwritten {
///     fn encode(&self, buf: &mut bytes::BytesMut) {
///         self.0.encode(buf);
///     }
///     fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
///         u8::decode(buf).map(Handwritten)
///     }
/// }
/// ```
pub trait Wire: __private::Sealed + Sized {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode a value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode a value from the front of `buf` into `self`, reusing the
    /// buffers `self` already holds: the result equals
    /// [`decode`](Wire::decode)'s (a field [`wire_struct!`] declares off
    /// the wire comes out `Default` here too), and a warm value of the
    /// same shape decodes without allocating. On `Err`, `self` holds
    /// some mix of the old value and the new one: nothing to read, but
    /// a warm value still, which the next `decode_into` overwrites as
    /// it would any other.
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        *self = Self::decode(buf)?;
        Ok(())
    }

    /// Number of bytes [`encode`](Wire::encode) appends. It costs an
    /// encode: the length of a value is the length of its encoding.
    fn encoded_len(&self) -> usize {
        to_bytes(self).len()
    }
}

/// The seal on [`Wire`]; the two declaration macros implement it.
#[doc(hidden)]
pub mod __private {
    pub trait Sealed {}
}

thread_local! {
    /// The buffer [`to_bytes`] encodes into, kept for its capacity;
    /// `None` before the first call and while one holds it (so an
    /// `encode` that itself calls `to_bytes` gets a buffer of its own).
    static SCRATCH: Cell<Option<BytesMut>> = const { Cell::new(None) };
}

/// Encode a value into a fresh, frozen byte buffer.
///
/// The value is written in one pass into a per-thread scratch buffer,
/// which keeps the capacity the largest message so far gave it, and
/// copied out: once the buffer is warm, a message of 30 bytes or less
/// costs no allocation (it lives inside its [`Bytes`] handle) and a
/// larger one costs one.
pub fn to_bytes<T: Wire>(value: &T) -> Bytes {
    frame(|buf| value.encode(buf))
}

/// Write a message with `write` in one pass and freeze it, as
/// [`to_bytes`] does a value: for a frame spelled field by field from
/// values held elsewhere (a nested payload, say, through [`put_nested`])
/// without first building the value that owns them.
/// Allocates as [`to_bytes`] does: nothing for 30 bytes or less, else
/// the one block the frame is copied into.
pub fn frame(write: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = SCRATCH.take().unwrap_or_default();
    buf.clear();
    write(&mut buf);
    let message = Bytes::copy_from_slice(&buf);
    SCRATCH.set(Some(buf));
    message
}

/// Append `value` as a nested payload: the bytes that encoding the
/// [`Bytes`] of `to_bytes(value)` appends (a length, then the
/// encoding), written in place. Returns the payload's length. The
/// payload is encoded after a one-byte length and moved up only when
/// its length needs more.
pub fn put_nested<T: Wire>(buf: &mut BytesMut, value: &T) -> usize {
    let at = buf.len();
    bytes::BufMut::put_u8(buf, 0);
    value.encode(buf);
    let len = buf.len() - at - 1;
    if len < 0x80 {
        buf[at] = len as u8;
        return len;
    }
    let (prefix, width) = varint::uvarint(len as u64);
    buf.extend_from_slice(&prefix[..width - 1]);
    buf.copy_within(at + 1..at + 1 + len, at + width);
    buf[at..at + width].copy_from_slice(&prefix[..width]);
    len
}

/// Decode a value from a byte buffer, requiring that the buffer is fully
/// consumed. Trailing bytes are treated as corruption.
pub fn from_bytes<T: Wire>(bytes: &Bytes) -> Result<T, WireError> {
    let mut buf = Reader::new(bytes);
    let value = T::decode(&mut buf)?;
    consumed(&buf).map(|()| value)
}

/// [`from_bytes`] into a value already held (see [`Wire::decode_into`]):
/// `Err` exactly when `from_bytes` would be, and on `Ok` `value` equals
/// what it would have returned.
pub fn from_bytes_into<T: Wire>(value: &mut T, bytes: &Bytes) -> Result<(), WireError> {
    let mut buf = Reader::new(bytes);
    value.decode_into(&mut buf)?;
    consumed(&buf)
}

/// Trailing bytes are corruption.
fn consumed(buf: &Reader<'_>) -> Result<(), WireError> {
    match buf.remaining() {
        0 => Ok(()),
        remaining => Err(WireError::TrailingBytes { remaining }),
    }
}

// ---------------------------------------------------------------------------
// Primitive implementations
// ---------------------------------------------------------------------------

macro_rules! sealed {
    ($($ty:ty),*) => {$( impl __private::Sealed for $ty {} )*};
}
sealed!(bool, u8, u16, u32, u64, usize, String, Bytes, &'static str);
impl<T> __private::Sealed for Option<T> {}
impl<T> __private::Sealed for Vec<T> {}
impl<K, V> __private::Sealed for std::collections::BTreeMap<K, V> {}
impl<A, B> __private::Sealed for (A, B) {}
impl<A, B, C> __private::Sealed for (A, B, C) {}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        bytes::BufMut::put_u8(buf, u8::from(*self));
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        match buf.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidTag {
                type_name: "bool",
                tag: u32::from(other),
            }),
        }
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        bytes::BufMut::put_u8(buf, *self);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        buf.u8()
    }
}

macro_rules! wire_uvarint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_uvarint(buf, u64::from(*self));
            }
            fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
                let raw = get_uvarint(buf)?;
                <$ty>::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
                    type_name: stringify!($ty),
                    value: raw,
                })
            }
        }
    )*};
}
wire_uvarint!(u16, u32);

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        get_uvarint(buf)
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self as u64);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = get_uvarint(buf)?;
        usize::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
            type_name: "usize",
            value: raw,
        })
    }
}

/// The string encoding, shared by [`String`] and `&'static str`
/// labels: a length prefix, then the UTF-8 bytes.
fn put_str(buf: &mut BytesMut, s: &str) {
    put_uvarint(buf, s.len() as u64);
    bytes::BufMut::put_slice(buf, s.as_bytes());
}

/// Read what [`put_str`] wrote, borrowed from the message.
fn decode_str<'a>(buf: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let len = decode_len(buf)?;
    std::str::from_utf8(buf.take(len)?).map_err(|_| WireError::InvalidUtf8)
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_str(buf).map(str::to_owned)
    }
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        let s = decode_str(buf)?;
        self.clear();
        self.push_str(s);
        Ok(())
    }
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        bytes::BufMut::put_slice(buf, self);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        buf.bytes(len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => bytes::BufMut::put_u8(buf, 0),
            Some(v) => {
                bytes::BufMut::put_u8(buf, 1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut value = None;
        value.decode_into(buf)?;
        Ok(value)
    }
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        match (buf.u8()?, self) {
            (0, slot) => *slot = None,
            (1, Some(held)) => held.decode_into(buf)?,
            (1, slot) => *slot = Some(T::decode(buf)?),
            (other, _) => {
                return Err(WireError::InvalidTag {
                    type_name: "Option",
                    tag: u32::from(other),
                })
            }
        }
        Ok(())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        // Guard against hostile length prefixes blowing up allocation: cap
        // the pre-allocation; the loop below still reads exactly `len`
        // elements or fails with UnexpectedEof first.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
    /// The elements held are decoded into in place, the rest dropped or
    /// pushed. A fresh vector is sized to its content; a held one grows
    /// by doubling, as a buffer reused for contents of varying length
    /// should.
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        let len = decode_len(buf)?;
        self.truncate(len);
        for item in self.iter_mut() {
            item.decode_into(buf)?;
        }
        let held = self.len();
        self.reserve((len - held).min(4096)); // the same cap as `decode`'s
        for _ in held..len {
            self.push(T::decode(buf)?);
        }
        Ok(())
    }
}

impl<K: Wire + Ord, V: Wire> Wire for std::collections::BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    /// Keys must come in strictly ascending order, as `encode` writes
    /// them: a map has one encoding, so a key out of order or twice is
    /// [`WireError::Malformed`].
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(WireError::Malformed {
                    type_name: "BTreeMap",
                });
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        self.0.decode_into(buf)?;
        self.1.decode_into(buf)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        self.0.decode_into(buf)?;
        self.1.decode_into(buf)?;
        self.2.decode_into(buf)
    }
}

fn decode_len(buf: &mut Reader<'_>) -> Result<usize, WireError> {
    let raw = get_uvarint(buf)?;
    usize::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
        type_name: "length",
        value: raw,
    })
}

/// Implement [`Wire`] for a struct by encoding the listed fields in
/// order. One field list feeds `encode`, `decode` and `decode_into`
/// (field by field into the buffers held), so they cannot disagree. Invoke it beside the struct definition;
/// the struct must be constructible with struct-literal syntax from the
/// macro's call site. Generic structs name their parameters (each gets
/// a `Wire` bound), tuple structs list their fields by index. A type
/// whose fields must agree with each other names the check after `if`:
/// a decoded value that fails it is [`WireError::Malformed`], so no
/// method ever sees one (`decode_into` runs the same check).
///
/// A field the receiver learns some other way (a migrating agent's id,
/// which its envelope already names) is listed after `off_wire` and
/// costs no bytes: `decode` and `decode_into` alike leave it
/// `Default::default()`, for the receiver to set. A value decoded into
/// a held one thus carries nothing of what the held one was; the field
/// is reset with [`Clone::clone_from`], so one whose `clone_from`
/// reuses its buffers keeps them for the receiver to fill.
///
/// ```
/// use marp_wire::{wire_struct, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// wire_struct!(Point { x, y });
///
/// #[derive(Debug, PartialEq)]
/// struct Tagged<T> { tag: u8, value: T }
/// wire_struct!(Tagged<T> { tag, value });
///
/// #[derive(Debug, PartialEq)]
/// struct Millis(u64);
/// wire_struct!(Millis { 0 });
///
/// let p = Point { x: 3, y: 9 };
/// let bytes = marp_wire::to_bytes(&p);
/// assert_eq!(marp_wire::from_bytes::<Point>(&bytes).unwrap(), p);
/// let t = Tagged { tag: 1, value: Millis(300) };
/// let bytes = marp_wire::to_bytes(&t);
/// assert_eq!(bytes.as_ref(), &[1, 0xac, 0x02]);
/// assert_eq!(marp_wire::from_bytes::<Tagged<Millis>>(&bytes).unwrap(), t);
///
/// #[derive(Debug, PartialEq)]
/// struct Span { from: u32, to: u32 }
/// impl Span {
///     fn is_ordered(&self) -> bool { self.from <= self.to }
/// }
/// wire_struct!(Span { from, to } if Span::is_ordered);
///
/// let backwards = bytes::Bytes::from_static(&[9, 3]);
/// assert_eq!(
///     marp_wire::from_bytes::<Span>(&backwards),
///     Err(marp_wire::WireError::Malformed { type_name: "Span" })
/// );
///
/// #[derive(Debug, PartialEq)]
/// struct Visitor { name: u32, route: Vec<u16> }
/// wire_struct!(Visitor { route } off_wire { name });
///
/// let bytes = marp_wire::to_bytes(&Visitor { name: 7, route: vec![1, 2] });
/// assert_eq!(bytes.as_ref(), &[2, 1, 2]);
/// let fresh: Visitor = marp_wire::from_bytes(&bytes).unwrap();
/// assert_eq!(fresh, Visitor { name: 0, route: vec![1, 2] });
/// let mut held = Visitor { name: 9, route: vec![5] };
/// marp_wire::from_bytes_into(&mut held, &bytes).unwrap();
/// assert_eq!(held, fresh);
/// ```
///
/// A field in neither list is a compile error:
///
/// ```compile_fail,E0063
/// # use marp_wire::wire_struct;
/// struct Visitor { name: u32, route: Vec<u16> }
/// wire_struct!(Visitor { route });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$($param:ident),+>)? { $($field:tt),* $(,)? }
        $(off_wire { $($skip:ident),* $(,)? })? $(if $valid:path)?) => {
        impl $(<$($param),+>)? $crate::__private::Sealed for $name $(<$($param),+>)? {}
        impl $(<$($param: $crate::Wire),+>)? $crate::Wire for $name $(<$($param),+>)? {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                $( $crate::Wire::encode(&self.$field, buf); )*
            }
            fn decode(buf: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                let value = Self {
                    $( $field: $crate::Wire::decode(buf)?, )*
                    $($( $skip: ::core::default::Default::default(), )*)?
                };
                $( if !$valid(&value) {
                    return Err($crate::WireError::Malformed { type_name: stringify!($name) });
                } )?
                Ok(value)
            }
            fn decode_into(&mut self, buf: &mut $crate::Reader<'_>) -> ::core::result::Result<(), $crate::WireError> {
                $( $crate::Wire::decode_into(&mut self.$field, buf)?; )*
                $($( ::core::clone::Clone::clone_from(&mut self.$skip, &::core::default::Default::default()); )*)?
                $( if !$valid(&*self) {
                    return Err($crate::WireError::Malformed { type_name: stringify!($name) });
                } )?
                Ok(())
            }
        }
    };
}

/// Implement [`Wire`] for an enum as a tagged union: a leading `u8` tag
/// (a literal or a `const`), then the variant's fields in the listed
/// order. Variants may be unit, one-field tuple, or named-field. Invoke
/// it beside the enum definition, as [`wire_struct!`] is beside a
/// struct. Decoding rejects unknown tags with
/// [`WireError::InvalidTag`].
///
/// One variant list feeds `encode` (an exhaustive `match`), `decode` and
/// `decode_into`, so an asymmetric codec is unrepresentable and an
/// incomplete one does not compile. `decode_into` a value holding
/// the frame's variant decodes each field into the one held (a field
/// [`wire_struct!`] declares off the wire comes out `Default`, as from
/// `decode`); into any other variant it is `decode`.
///
/// ```
/// use marp_wire::{wire_enum, Wire};
///
/// const TAG_PUT: u8 = 1;
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Msg {
///     Ping,
///     Put { key: u64, value: u64 },
///     Batch(Vec<u64>),
/// }
/// wire_enum!(Msg {
///     0 => Ping,
///     TAG_PUT => Put { key, value },
///     2 => Batch(keys),
/// });
///
/// let msg = Msg::Put { key: 5, value: 300 };
/// let bytes = marp_wire::to_bytes(&msg);
/// assert_eq!(bytes.as_ref(), &[1, 5, 0xac, 0x02]);
/// assert_eq!(marp_wire::from_bytes::<Msg>(&bytes).unwrap(), msg);
/// assert_eq!(marp_wire::to_bytes(&Msg::Ping).as_ref(), &[0]);
/// assert!(marp_wire::from_bytes::<Msg>(&bytes::Bytes::from_static(&[3])).is_err());
///
/// let mut held = Msg::Batch(Vec::with_capacity(8));
/// marp_wire::from_bytes_into(&mut held, &marp_wire::to_bytes(&Msg::Batch(vec![4, 5]))).unwrap();
/// assert!(matches!(&held, Msg::Batch(keys) if keys == &[4, 5] && keys.capacity() == 8));
/// marp_wire::from_bytes_into(&mut held, &bytes).unwrap();
/// assert_eq!(held, msg);
/// ```
///
/// A variant missing from the list is a compile error (the old
/// unit-only form panicked on the first `encode` of it instead):
///
/// ```compile_fail,E0004
/// # use marp_wire::wire_enum;
/// enum Msg { Ping, Pong }
/// wire_enum!(Msg { 0 => Ping });
/// ```
///
/// So is a field missing from a variant's list:
///
/// ```compile_fail,E0027
/// # use marp_wire::wire_enum;
/// enum Msg { Put { key: u64, value: u64 } }
/// wire_enum!(Msg { 0 => Put { key } });
/// ```
///
/// And so is a tag given to two variants:
///
/// ```compile_fail
/// # use marp_wire::wire_enum;
/// enum Msg { Ping, Pong }
/// wire_enum!(Msg { 0 => Ping, 0 => Pong });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident { $(
        $tag:tt => $variant:ident $(($inner:ident))? $({ $($field:ident),* $(,)? })?
    ),* $(,)? }) => {
        impl $crate::__private::Sealed for $name {}
        impl $crate::Wire for $name {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $( $name::$variant $(($inner))? $({ $($field),* })? => {
                        <u8 as $crate::Wire>::encode(&$tag, buf);
                        $( $crate::Wire::encode($inner, buf); )?
                        $( $( $crate::Wire::encode($field, buf); )* )?
                    } )*
                }
            }
            // A tag listed twice makes the second arm unreachable.
            #[deny(unreachable_patterns)]
            fn decode(buf: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                match <u8 as $crate::Wire>::decode(buf)? {
                    // (`$inner` is bound and returned only so the optional
                    // tuple group has a metavariable to repeat over.)
                    $( $tag => Ok($name::$variant
                        $(({ let $inner = $crate::Wire::decode(buf)?; $inner }))?
                        $({ $( $field: $crate::Wire::decode(buf)? ),* })?
                    ), )*
                    tag => Err($crate::WireError::InvalidTag {
                        type_name: stringify!($name),
                        tag: u32::from(tag),
                    }),
                }
            }
            fn decode_into(&mut self, buf: &mut $crate::Reader<'_>) -> ::core::result::Result<(), $crate::WireError> {
                let mut body = buf.clone();
                let tag = <u8 as $crate::Wire>::decode(&mut body)?;
                match (tag, &mut *self) {
                    $( ($tag, $name::$variant $(($inner))? $({ $($field),* })?) => {
                        *buf = body;
                        $( $crate::Wire::decode_into($inner, buf)?; )?
                        $( $( $crate::Wire::decode_into($field, buf)?; )* )?
                    } )*
                    _ => *self = Self::decode(buf)?,
                }
                Ok(())
            }
        }
    };
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests build raw bytes by hand")]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn roundtrip_primitives() {
        roundtrip(false);
        roundtrip(true);
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0u16);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
    }

    #[test]
    fn roundtrip_containers() {
        roundtrip(String::from("hello, 世界"));
        roundtrip(String::new());
        roundtrip(Bytes::from_static(b"\x00\x01\x02"));
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip((1u32, String::from("x")));
        roundtrip((1u32, 2u64, true));
        let mut map = BTreeMap::new();
        map.insert(1u32, String::from("one"));
        map.insert(2u32, String::from("two"));
        roundtrip(map);
    }

    #[test]
    fn a_nested_payload_is_the_bytes_of_its_encoding() {
        for len in [0, 1, 126, 127, 128, 300, 16_383, 16_384, 20_000] {
            let payload = "x".repeat(len);
            let mut buf = BytesMut::with_capacity(4);
            bytes::BufMut::put_u8(&mut buf, 9);
            assert_eq!(put_nested(&mut buf, &payload), to_bytes(&payload).len());
            let mut expected = BytesMut::with_capacity(4);
            bytes::BufMut::put_u8(&mut expected, 9);
            to_bytes(&payload).encode(&mut expected);
            assert_eq!(buf.as_ref(), expected.as_ref(), "a {len}-byte string");
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        assert_eq!(to_bytes(&0u64).len(), 1);
        assert_eq!(to_bytes(&127u64).len(), 1);
        assert_eq!(to_bytes(&128u64).len(), 2);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        bytes::BufMut::put_u8(&mut buf, 0xFF);
        let err = from_bytes::<u32>(&buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&String::from("hello"));
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(
            from_bytes::<String>(&truncated),
            Err(WireError::UnexpectedEof)
        ));
    }

    #[test]
    fn bool_rejects_other_tags() {
        let raw = Bytes::from_static(&[2]);
        assert!(matches!(
            from_bytes::<bool>(&raw),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn option_rejects_other_tags() {
        let raw = Bytes::from_static(&[9]);
        assert!(matches!(
            from_bytes::<Option<u8>>(&raw),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn u16_range_enforced() {
        let bytes = to_bytes(&(u16::MAX as u64 + 1));
        assert!(matches!(
            from_bytes::<u16>(&bytes),
            Err(WireError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 2);
        bytes::BufMut::put_slice(&mut buf, &[0xFF, 0xFE]);
        assert!(matches!(
            from_bytes::<String>(&buf.freeze()),
            Err(WireError::InvalidUtf8)
        ));
    }

    #[test]
    fn hostile_length_prefix_fails_cleanly() {
        // A length prefix claiming u64::MAX elements must not allocate
        // unboundedly; it must fail with EOF once the data runs out.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::MAX);
        assert!(from_bytes::<Vec<u8>>(&buf.freeze()).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u32,
        name: String,
        tags: Vec<u16>,
    }
    wire_struct!(Sample { id, name, tags });

    #[test]
    fn wire_struct_macro_roundtrips() {
        roundtrip(Sample {
            id: 17,
            name: "agent".into(),
            tags: vec![1, 2, 3],
        });
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Colour {
        Red,
        Green,
        Blue,
    }
    wire_enum!(Colour { 0 => Red, 1 => Green, 2 => Blue });

    #[test]
    fn wire_enum_macro_roundtrips_unit_variants_under_their_tags() {
        roundtrip(Colour::Red);
        roundtrip(Colour::Green);
        roundtrip(Colour::Blue);
        assert_eq!(to_bytes(&Colour::Red).as_ref(), &[0]);
        assert_eq!(to_bytes(&Colour::Blue).as_ref(), &[2]);
    }

    #[test]
    fn wire_enum_rejects_unknown_tags() {
        let raw = Bytes::from_static(&[3]);
        assert!(matches!(
            from_bytes::<Colour>(&raw),
            Err(WireError::InvalidTag {
                type_name: "Colour",
                tag: 3
            })
        ));
    }

    #[test]
    fn prefix_decoding_leaves_remainder() {
        let mut buf = BytesMut::new();
        5u32.encode(&mut buf);
        9u32.encode(&mut buf);
        let bytes = buf.freeze();
        let mut reader = Reader::new(&bytes);
        let first = u32::decode(&mut reader).unwrap();
        let second = u32::decode(&mut reader).unwrap();
        assert_eq!((first, second), (5, 9));
        assert_eq!(reader.remaining(), 0);
    }
}
