//! The decoder's cursor.

use crate::WireError;
use bytes::Bytes;

/// What [`Wire::decode`](crate::Wire::decode) reads from: the unread
/// bytes of a message as a plain slice, and the [`Bytes`] they live in,
/// so that a `Bytes` field decodes to a view of the message rather than
/// a copy. Reading a byte is one slice split and one bounds check.
#[derive(Debug)]
pub struct Reader<'a> {
    message: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `message`.
    pub fn new(message: &'a Bytes) -> Self {
        Reader {
            message,
            rest: message,
        }
    }

    /// Number of bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unread bytes, left unread.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Mark the first `len` bytes of [`Self::rest`] read.
    pub(crate) fn advance(&mut self, len: usize) {
        self.rest = &self.rest[len..];
    }

    /// Read one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let (&byte, rest) = self.rest.split_first().ok_or(WireError::UnexpectedEof)?;
        self.rest = rest;
        Ok(byte)
    }

    /// Read the next `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(WireError::UnexpectedEof)?;
        self.rest = rest;
        Ok(head)
    }

    /// Read the next `len` bytes as a view of the message: no copy, no
    /// allocation.
    pub(crate) fn bytes(&mut self, len: usize) -> Result<Bytes, WireError> {
        let start = self.message.len() - self.rest.len();
        self.take(len)?;
        Ok(self.message.slice(start..start + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let message = Bytes::from_static(&[1, 2, 3, 4, 5]);
        let mut buf = Reader::new(&message);
        assert_eq!(buf.u8(), Ok(1));
        assert_eq!(buf.take(2), Ok(&[2, 3][..]));
        assert_eq!(buf.remaining(), 2);
        assert_eq!(buf.take(3), Err(WireError::UnexpectedEof));
        assert_eq!(buf.remaining(), 2, "a failed read consumes nothing");
        let tail = buf.bytes(2).unwrap();
        assert_eq!(tail, [4, 5]);
        assert_eq!(tail.as_ptr(), message[3..].as_ptr());
        assert_eq!(buf.u8(), Err(WireError::UnexpectedEof));
        assert_eq!(buf.bytes(1), Err(WireError::UnexpectedEof));
        assert_eq!(buf.bytes(0), Ok(Bytes::new()));
    }
}
