//! `to_bytes` costs one allocation — the message — however large the
//! value: the bytes are written into a per-thread scratch buffer that a
//! first call has grown. Decoding a `Bytes` field costs none: it is a
//! view of the message.

use bytes::Bytes;
use marp_wire::{from_bytes, to_bytes};

#[test]
fn a_bytes_field_decodes_to_a_view_of_the_message() {
    let message = to_bytes(&(7u64, Bytes::from_static(b"agent state")));
    let (decoded, requests, _) = noting_alloc::requests_during(|| from_bytes(&message));
    let (seq, state): (u64, Bytes) = decoded.unwrap();
    assert_eq!(requests, 0);
    assert_eq!((seq, &state[..]), (7, &b"agent state"[..]));
    // After the `u64` and the length prefix, one byte each.
    assert_eq!(state.as_ptr(), message[2..].as_ptr());
}

#[path = "../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

#[test]
fn encoding_a_message_is_one_allocation() {
    let value: Vec<(u64, String)> = (0..40).map(|i| (i << 20, format!("agent-{i}"))).collect();
    let warm = to_bytes(&value);
    let (message, requests, largest) = noting_alloc::requests_during(|| to_bytes(&value));
    assert_eq!(requests, 1);
    assert!(largest >= message.len() && largest <= message.len() + 32);
    assert_eq!(message, warm);
    assert_eq!(from_bytes::<Vec<(u64, String)>>(&message), Ok(value));
}

#[test]
fn a_smaller_message_after_a_larger_one_is_cut_to_size() {
    let large = to_bytes(&vec![u64::MAX; 500]);
    let (small, requests, largest) = noting_alloc::requests_during(|| to_bytes(&7u8));
    assert!(large.len() > 4000);
    assert_eq!(small.len(), 1);
    assert_eq!(requests, 1);
    assert!(
        largest <= 32,
        "a one-byte message asked for {largest} bytes"
    );
}
