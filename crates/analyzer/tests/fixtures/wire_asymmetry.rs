//! Positive fixture for the `handwritten-wire-impl` rule: a codec
//! spelled out by hand instead of declared with `wire_enum!`. It is also
//! the kind of bug the rule exists to prevent — `Put`'s decode reads
//! `val` before `key`, reversing the encode order, and `encoded_len`
//! forgets the tag byte — neither of which the macro can express.
//! Never compiled — parsed by `crates/analyzer/tests/passes.rs`.

pub enum BrokenMsg {
    Put { key: u64, val: u64 },
    Del { key: u64 },
}

impl Wire for BrokenMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BrokenMsg::Put { key, val } => {
                0u8.encode(buf);
                key.encode(buf);
                val.encode(buf);
            }
            BrokenMsg::Del { key } => {
                1u8.encode(buf);
                key.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(BrokenMsg::Put {
                val: u64::decode(buf)?,
                key: u64::decode(buf)?,
            }),
            1 => Ok(BrokenMsg::Del {
                key: u64::decode(buf)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "BrokenMsg",
                tag: u32::from(tag),
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            BrokenMsg::Put { key, val } => key.encoded_len() + val.encoded_len(),
            BrokenMsg::Del { key } => key.encoded_len(),
        }
    }
}
