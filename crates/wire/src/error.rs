//! Error taxonomy for the wire codec.

use std::fmt;

/// Everything that can go wrong while decoding wire-format bytes.
///
/// Encoding never fails; all variants describe malformed or truncated
/// input encountered during decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was fully decoded.
    UnexpectedEof,
    /// A discriminant byte did not name a known variant of `type_name`.
    InvalidTag {
        /// The Rust type being decoded.
        type_name: &'static str,
        /// The unknown discriminant that was read.
        tag: u32,
    },
    /// A varint used more than ten bytes (it cannot fit in 64 bits).
    VarintOverflow,
    /// A decoded integer does not fit in the target type `type_name`.
    ValueOutOfRange {
        /// The Rust type being decoded.
        type_name: &'static str,
        /// The decoded raw value.
        value: u64,
    },
    /// A string field held bytes that are not valid UTF-8.
    InvalidUtf8,
    /// Every field of `type_name` decoded, but together they break the
    /// condition the type keeps among them (an index past the table it
    /// points into, say).
    Malformed {
        /// The Rust type being decoded.
        type_name: &'static str,
    },
    /// `from_bytes` decoded a value but bytes were left over.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidTag { type_name, tag } => {
                write!(f, "invalid tag {tag} while decoding {type_name}")
            }
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::ValueOutOfRange { type_name, value } => {
                write!(f, "value {value} out of range for {type_name}")
            }
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Malformed { type_name } => {
                write!(f, "decoded fields do not form a valid {type_name}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            WireError::UnexpectedEof.to_string(),
            "unexpected end of input"
        );
        assert!(WireError::InvalidTag {
            type_name: "Msg",
            tag: 7
        }
        .to_string()
        .contains("Msg"));
        assert!(WireError::ValueOutOfRange {
            type_name: "u16",
            value: 70000
        }
        .to_string()
        .contains("70000"));
        assert!(WireError::TrailingBytes { remaining: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<WireError>();
    }
}
