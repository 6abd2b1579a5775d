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
//! * **Compact**: unsigned values use LEB128 varints, signed values use
//!   zigzag varints, so small identifiers and counts cost one byte.
//! * **Deterministic**: a value always encodes to the same bytes; there is
//!   no padding, no alignment, and no versioning noise. This keeps the
//!   discrete-event simulator reproducible byte-for-byte.
//! * **Self-contained**: no external serialization framework; the entire
//!   format is visible in this crate and covered by round-trip property
//!   tests.

#![warn(missing_docs)]

mod error;
mod label;
mod varint;

pub use error::WireError;
pub use varint::{get_ivarint, get_uvarint, ivarint_len, put_ivarint, put_uvarint, uvarint_len};

use bytes::{Buf, Bytes, BytesMut};
use std::cell::Cell;

/// A type that can be encoded to and decoded from the wire format.
///
/// Encoding is infallible (the buffer grows as needed); decoding returns a
/// [`WireError`] on truncated or malformed input. Implementations must
/// round-trip: `decode(encode(v)) == v`.
pub trait Wire: Sized {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode a value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Exact number of bytes [`encode`](Wire::encode) will append.
    ///
    /// Used by [`to_bytes`] to reserve the output buffer in a single
    /// allocation. Implementations must be exact — `to_bytes` asserts
    /// (in debug builds) that the hint matches what `encode` produced.
    fn encoded_len(&self) -> usize;
}

thread_local! {
    /// The buffer [`to_bytes`] encodes into, kept for its capacity;
    /// `None` before the first call and while one holds it (so an
    /// `encode` that itself calls `to_bytes` gets a buffer of its own).
    static SCRATCH: Cell<Option<BytesMut>> = const { Cell::new(None) };
}

/// Encode a value into a fresh, frozen byte buffer.
///
/// The value is written into a per-thread scratch buffer, reserved once
/// from [`Wire::encoded_len`] so encoding never reallocates mid-write,
/// and copied out: the message is the call's one allocation.
pub fn to_bytes<T: Wire>(value: &T) -> Bytes {
    let hint = value.encoded_len();
    let mut buf = SCRATCH.take().unwrap_or_default();
    buf.clear();
    buf.reserve(hint);
    value.encode(&mut buf);
    debug_assert_eq!(
        buf.len(),
        hint,
        "Wire::encoded_len for {} is not exact",
        std::any::type_name::<T>()
    );
    let message = Bytes::copy_from_slice(&buf);
    SCRATCH.set(Some(buf));
    message
}

/// Decode a value from a byte buffer, requiring that the buffer is fully
/// consumed. Trailing bytes are treated as corruption.
pub fn from_bytes<T: Wire>(bytes: &Bytes) -> Result<T, WireError> {
    let mut buf = bytes.clone();
    let value = T::decode(&mut buf)?;
    if buf.has_remaining() {
        return Err(WireError::TrailingBytes {
            remaining: buf.remaining(),
        });
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Primitive implementations
// ---------------------------------------------------------------------------

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        bytes::BufMut::put_u8(buf, u8::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match take_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidTag {
                type_name: "bool",
                tag: u32::from(other),
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        bytes::BufMut::put_u8(buf, *self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        take_u8(buf)
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

macro_rules! wire_uvarint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_uvarint(buf, u64::from(*self));
            }
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                let raw = get_uvarint(buf)?;
                <$ty>::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
                    type_name: stringify!($ty),
                    value: raw,
                })
            }
            fn encoded_len(&self) -> usize {
                uvarint_len(u64::from(*self))
            }
        }
    )*};
}
wire_uvarint!(u16, u32);

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_uvarint(buf)
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(*self)
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self as u64);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_uvarint(buf)?;
        usize::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
            type_name: "usize",
            value: raw,
        })
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(*self as u64)
    }
}

macro_rules! wire_ivarint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_ivarint(buf, i64::from(*self));
            }
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                let raw = get_ivarint(buf)?;
                <$ty>::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
                    type_name: stringify!($ty),
                    value: raw as u64,
                })
            }
            fn encoded_len(&self) -> usize {
                ivarint_len(i64::from(*self))
            }
        }
    )*};
}
wire_ivarint!(i16, i32);

impl Wire for i64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_ivarint(buf, *self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_ivarint(buf)
    }
    fn encoded_len(&self) -> usize {
        ivarint_len(*self)
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        bytes::BufMut::put_u64(buf, self.to_bits());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        Ok(f64::from_bits(buf.get_u64()))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

/// The string encoding, shared by [`String`] and `&'static str`
/// labels: a length prefix, then the UTF-8 bytes.
fn put_str(buf: &mut BytesMut, s: &str) {
    put_uvarint(buf, s.len() as u64);
    bytes::BufMut::put_slice(buf, s.as_bytes());
}

fn str_len(s: &str) -> usize {
    uvarint_len(s.len() as u64) + s.len()
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        if buf.remaining() < len {
            return Err(WireError::UnexpectedEof);
        }
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
    fn encoded_len(&self) -> usize {
        str_len(self)
    }
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        bytes::BufMut::put_slice(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        if buf.remaining() < len {
            return Err(WireError::UnexpectedEof);
        }
        Ok(buf.copy_to_bytes(len))
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.len()
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
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match take_u8(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(WireError::InvalidTag {
                type_name: "Option",
                tag: u32::from(other),
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
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
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
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
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

impl<T: Wire + Ord> Wire for std::collections::BTreeSet<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(buf)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for std::collections::VecDeque<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        let mut out = std::collections::VecDeque::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push_back(T::decode(buf)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

fn take_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

fn decode_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let raw = get_uvarint(buf)?;
    usize::try_from(raw).map_err(|_| WireError::ValueOutOfRange {
        type_name: "length",
        value: raw,
    })
}

/// Implement [`Wire`] for a struct by encoding the listed fields in
/// order. One field list feeds `encode`, `decode` and `encoded_len`, so
/// the three cannot disagree. Invoke it beside the struct definition;
/// the struct must be constructible with struct-literal syntax from the
/// macro's call site. Generic structs name their parameters (each gets
/// a `Wire` bound), tuple structs list their fields by index. A type
/// whose fields must agree with each other names the check after `if`:
/// a decoded value that fails it is [`WireError::Malformed`], so no
/// method ever sees one.
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
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$($param:ident),+>)? { $($field:tt),* $(,)? } $(if $valid:path)?) => {
        impl $(<$($param: $crate::Wire),+>)? $crate::Wire for $name $(<$($param),+>)? {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                $( $crate::Wire::encode(&self.$field, buf); )*
            }
            fn decode(buf: &mut ::bytes::Bytes) -> ::core::result::Result<Self, $crate::WireError> {
                let value = Self { $( $field: $crate::Wire::decode(buf)? ),* };
                $( if !$valid(&value) {
                    return Err($crate::WireError::Malformed { type_name: stringify!($name) });
                } )?
                Ok(value)
            }
            fn encoded_len(&self) -> usize {
                0 $( + $crate::Wire::encoded_len(&self.$field) )*
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
/// One variant list feeds `encode`, `decode` and `encoded_len` through
/// an exhaustive `match`, so an asymmetric codec is unrepresentable and
/// an incomplete one does not compile.
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
            fn decode(buf: &mut ::bytes::Bytes) -> ::core::result::Result<Self, $crate::WireError> {
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
            fn encoded_len(&self) -> usize {
                match self {
                    $( $name::$variant $(($inner))? $({ $($field),* })? => {
                        1 $( + $crate::Wire::encoded_len($inner) )?
                            $( $( + $crate::Wire::encoded_len($field) )* )?
                    } )*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
        roundtrip(-1i32);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(0.0f64);
        roundtrip(-1234.5678f64);
    }

    #[test]
    fn roundtrip_f64_nan_bits() {
        let bytes = to_bytes(&f64::NAN);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
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
        let set: BTreeSet<u16> = [5, 6, 7].into_iter().collect();
        roundtrip(set);
        let deque: VecDeque<u8> = [9, 8, 7].into_iter().collect();
        roundtrip(deque);
    }

    #[test]
    fn small_values_are_one_byte() {
        assert_eq!(to_bytes(&0u64).len(), 1);
        assert_eq!(to_bytes(&127u64).len(), 1);
        assert_eq!(to_bytes(&128u64).len(), 2);
        assert_eq!(to_bytes(&-1i64).len(), 1);
        assert_eq!(to_bytes(&63i64).len(), 1);
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
        let mut bytes = buf.freeze();
        let first = u32::decode(&mut bytes).unwrap();
        let second = u32::decode(&mut bytes).unwrap();
        assert_eq!((first, second), (5, 9));
        assert!(bytes.is_empty());
    }
}
