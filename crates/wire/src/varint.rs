//! LEB128 varint primitives.
//!
//! Unsigned values are encoded seven bits at a time, least-significant
//! group first, with the high bit of each byte marking continuation.
//! Signed values are zigzag-mapped (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`)
//! before the unsigned encoding so small negative numbers stay short.

use crate::{Reader, WireError};
use bytes::{BufMut, BytesMut};

/// Maximum number of bytes a 64-bit varint may occupy.
const MAX_VARINT_LEN: usize = 10;

/// Append an unsigned 64-bit value as a LEB128 varint.
pub fn put_uvarint(buf: &mut BytesMut, mut value: u64) {
    if value < 0x80 {
        buf.put_u8(value as u8);
        return;
    }
    let mut out = [0u8; MAX_VARINT_LEN];
    let mut len = 0;
    while value >= 0x80 {
        out[len] = (value as u8) | 0x80;
        value >>= 7;
        len += 1;
    }
    out[len] = value as u8;
    buf.put_slice(&out[..=len]);
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

/// Append a signed 64-bit value as a zigzag LEB128 varint.
pub fn put_ivarint(buf: &mut BytesMut, value: i64) {
    put_uvarint(buf, zigzag_encode(value));
}

/// Read a signed zigzag LEB128 varint from the front of `buf`.
pub fn get_ivarint(buf: &mut Reader<'_>) -> Result<i64, WireError> {
    Ok(zigzag_decode(get_uvarint(buf)?))
}

/// Number of bytes `value` occupies as an unsigned varint.
pub fn uvarint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Number of bytes `value` occupies as a signed zigzag varint.
pub fn ivarint_len(value: i64) -> usize {
    uvarint_len(zigzag_encode(value))
}

fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn uroundtrip(value: u64) {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, value);
        assert_eq!(buf.len(), uvarint_len(value), "length mismatch for {value}");
        let bytes = buf.freeze();
        let mut reader = Reader::new(&bytes);
        assert_eq!(get_uvarint(&mut reader).unwrap(), value);
        assert_eq!(reader.remaining(), 0);
    }

    fn iroundtrip(value: i64) {
        let mut buf = BytesMut::new();
        put_ivarint(&mut buf, value);
        let bytes = buf.freeze();
        let mut reader = Reader::new(&bytes);
        assert_eq!(get_ivarint(&mut reader).unwrap(), value);
        assert_eq!(reader.remaining(), 0);
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
    fn signed_roundtrip_boundaries() {
        for value in [0, -1, 1, -64, 63, 64, -65, i64::MIN, i64::MAX] {
            iroundtrip(value);
        }
    }

    #[test]
    fn zigzag_small_negatives_are_short() {
        let mut buf = BytesMut::new();
        put_ivarint(&mut buf, -3);
        assert_eq!(buf.len(), 1);
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

    #[test]
    fn uvarint_len_matches_encoding() {
        for shift in 0..64 {
            uroundtrip(1u64 << shift);
        }
    }

    #[test]
    fn zigzag_mapping_is_interleaved() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
    }
}
