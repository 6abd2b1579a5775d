//! What a `Bytes` costs the allocator: nothing for a buffer of up to 30
//! bytes, which lives inside its handle; one block for a larger buffer
//! copied in (reference count and bytes together); nothing for a clone
//! or a view of either.

use bytes::{BufMut, Bytes, BytesMut};

#[path = "../../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

/// Every way a buffer is copied into a `Bytes`, each given `raw`
/// (ASCII); the allocations each conversion made, having checked that
/// it holds `raw`.
fn conversions(raw: &[u8]) -> [usize; 5] {
    let vec = raw.to_vec();
    let text = String::from_utf8(raw.to_vec()).expect("ASCII");
    let mut buf = BytesMut::with_capacity(raw.len());
    buf.put_slice(raw);
    let counted = |(bytes, requests, _): (Bytes, usize, usize)| {
        assert_eq!(bytes, raw);
        requests
    };
    [
        counted(noting_alloc::requests_during(|| {
            Bytes::copy_from_slice(raw)
        })),
        counted(noting_alloc::requests_during(|| Bytes::from(raw))),
        counted(noting_alloc::requests_during(|| Bytes::from(vec))),
        counted(noting_alloc::requests_during(|| Bytes::from(text))),
        counted(noting_alloc::requests_during(|| buf.freeze())),
    ]
}

#[test]
fn a_buffer_of_up_to_30_bytes_is_no_allocation() {
    for len in 0..=30u8 {
        let raw: Vec<u8> = (b'a'..).take(len.into()).collect();
        assert_eq!(conversions(&raw), [0; 5], "{len} bytes");
    }
}

#[test]
fn a_buffer_copied_out_of_a_slice_is_one_allocation() {
    let mut scratch = BytesMut::with_capacity(64);
    scratch.put_u64(7);
    scratch.put_slice(b"a message past 30 bytes");
    assert_eq!(scratch.len(), 30 + 1);
    let (message, requests, largest) =
        noting_alloc::requests_during(|| Bytes::copy_from_slice(&scratch));
    assert_eq!(message.as_slice(), &scratch[..]);
    assert_eq!(requests, 1);
    // The block holds the two reference counts and the bytes.
    assert!(largest <= scratch.len() + 2 * size_of::<usize>() + align_of::<usize>());
    for len in [31, 64, 500] {
        let raw: Vec<u8> = (b'a'..=b'z').cycle().take(len).collect();
        assert_eq!(conversions(&raw), [1; 5], "{len} bytes");
    }
}

#[test]
fn clones_and_views_allocate_nothing() {
    let message = Bytes::copy_from_slice(b"header and a body past 30 bytes");
    let small = Bytes::copy_from_slice(b"header and body");
    let ((), requests, _) = noting_alloc::requests_during(|| {
        let header = message.slice(..6);
        let rest = message.clone().slice(6..);
        let body = message.slice(11..);
        assert_eq!(header, b"header"[..]);
        assert_eq!(rest, b" and a body past 30 bytes"[..]);
        assert_eq!(body, b"a body past 30 bytes"[..]);
        // All three are windows on the one block, however short.
        assert_eq!(header.as_slice().as_ptr(), message.as_slice().as_ptr());
        assert_eq!(body.as_slice().as_ptr(), message[11..].as_ptr());

        let header = small.slice(..6);
        let body = small.clone().slice(11..).slice(1..);
        assert_eq!(header, b"header"[..]);
        assert_eq!(body, b"ody"[..]);
    });
    assert_eq!(requests, 0);
}
