//! What a `Bytes` costs the allocator: one block for a buffer copied
//! out of a slice (reference count and bytes together), nothing for a
//! clone or a view.

use bytes::{Buf, BufMut, Bytes, BytesMut};

#[path = "../../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

#[test]
fn a_buffer_copied_out_of_a_slice_is_one_allocation() {
    let mut scratch = BytesMut::with_capacity(64);
    scratch.put_u64(7);
    scratch.put_slice(b"a message");
    let (message, requests, largest) =
        noting_alloc::requests_during(|| Bytes::copy_from_slice(&scratch));
    assert_eq!(message.as_slice(), &scratch[..]);
    assert_eq!(requests, 1);
    // The block holds the two reference counts and the bytes.
    assert!(largest <= scratch.len() + 2 * size_of::<usize>() + align_of::<usize>());
}

#[test]
fn clones_and_views_allocate_nothing() {
    let message = Bytes::copy_from_slice(b"header and body");
    let ((), requests, _) = noting_alloc::requests_during(|| {
        let mut rest = message.clone();
        let header = rest.copy_to_bytes(6);
        let body = message.slice(11..);
        assert_eq!(header, b"header"[..]);
        assert_eq!(rest, b" and body"[..]);
        assert_eq!(body, b"body"[..]);
        // All three are windows on the one block.
        assert_eq!(header.as_slice().as_ptr(), message.as_slice().as_ptr());
        assert_eq!(body.as_slice().as_ptr(), message[11..].as_ptr());
    });
    assert_eq!(requests, 0);
}
