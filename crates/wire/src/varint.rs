//! LEB128 varint primitives.
//!
//! Values are encoded seven bits at a time, least-significant group
//! first, with the high bit of each byte marking continuation.

use crate::{Reader, WireError};
use bytes::{BufMut, BytesMut};

/// Maximum number of bytes a 64-bit varint may occupy.
const MAX_VARINT_LEN: usize = 10;

/// Append an unsigned 64-bit value as a LEB128 varint.
pub fn put_uvarint(buf: &mut BytesMut, value: u64) {
    if value < 0x80 {
        buf.put_u8(value as u8);
        return;
    }
    let (out, len) = uvarint(value);
    buf.put_slice(&out[..len]);
}

/// `value` as a LEB128 varint: the bytes, and how many of them count.
pub(crate) fn uvarint(mut value: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut out = [0u8; MAX_VARINT_LEN];
    let mut len = 0;
    while value >= 0x80 {
        out[len] = (value as u8) | 0x80;
        value >>= 7;
        len += 1;
    }
    out[len] = value as u8;
    (out, len + 1)
}

/// Read an unsigned LEB128 varint from the front of `buf`.
pub fn get_uvarint(buf: &mut Reader<'_>) -> Result<u64, WireError> {
    let rest = buf.rest();
    let mut value: u64 = 0;
    for (i, &byte) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
        // The tenth byte may only contribute the final bit of a u64.
        if i == MAX_VARINT_LEN - 1 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            buf.advance(i + 1);
            return Ok(value);
        }
    }
    // Every byte read asked for another: the input ended first.
    Err(WireError::UnexpectedEof)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests build raw bytes by hand")]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Encode `value`, decode it back, and return the encoded length.
    fn uroundtrip(value: u64) -> usize {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, value);
        let bytes = buf.freeze();
        let mut reader = Reader::new(&bytes);
        assert_eq!(get_uvarint(&mut reader).unwrap(), value);
        assert_eq!(reader.remaining(), 0);
        bytes.len()
    }

    #[test]
    fn unsigned_roundtrip_boundaries() {
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            uroundtrip(value);
        }
    }

    #[test]
    fn every_bit_width_takes_one_byte_per_seven_bits() {
        for shift in 0..64 {
            assert_eq!(uroundtrip(1u64 << shift), shift / 7 + 1, "1 << {shift}");
        }
    }

    #[test]
    fn eof_in_middle_of_varint() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::MAX);
        let bytes = buf.freeze();
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert_eq!(
            get_uvarint(&mut Reader::new(&truncated)),
            Err(WireError::UnexpectedEof)
        );
        // Ended by the first byte's continuation bit, and by no byte.
        for cut in [&[0x80][..], &[]] {
            let truncated = Bytes::copy_from_slice(cut);
            assert_eq!(
                get_uvarint(&mut Reader::new(&truncated)),
                Err(WireError::UnexpectedEof)
            );
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        // Eleven continuation bytes: longer than any valid u64 varint.
        let raw: Vec<u8> = vec![0x80; 11];
        let bytes = Bytes::from(raw);
        assert_eq!(
            get_uvarint(&mut Reader::new(&bytes)),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn tenth_byte_range_checked() {
        // Nine 0xFF continuation bytes followed by 0x02 would need bit 65.
        let mut raw = vec![0xFF; 9];
        raw.push(0x02);
        let bytes = Bytes::from(raw.clone());
        assert_eq!(
            get_uvarint(&mut Reader::new(&bytes)),
            Err(WireError::VarintOverflow)
        );
        // ... while 0x01 there is u64::MAX's top bit, and ends the value
        // before whatever follows.
        raw[9] = 0x01;
        raw.push(0x7F);
        let bytes = Bytes::from(raw);
        let mut reader = Reader::new(&bytes);
        assert_eq!(get_uvarint(&mut reader), Ok(u64::MAX));
        assert_eq!(reader.remaining(), 1);
    }
}
