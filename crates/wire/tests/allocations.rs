//! `to_bytes` costs no allocation for a message of up to 30 bytes,
//! which lives inside its `Bytes` handle, and one — the message —
//! however large the value past that: the bytes are written into a
//! per-thread scratch buffer that a first call has grown. Decoding a
//! `Bytes` field costs none: it is a view of the message, or of a small
//! message an inline copy.

use bytes::Bytes;
use marp_wire::{from_bytes, to_bytes};

#[test]
fn a_bytes_field_decodes_to_a_view_of_the_message() {
    let state = Bytes::from_static(b"agent state");
    let padding = Bytes::from_static(b"and some more bytes");
    let message = to_bytes(&(7u64, state.clone(), padding.clone()));
    assert_eq!(message.len(), 33);
    let (decoded, requests, _) = noting_alloc::requests_during(|| from_bytes(&message));
    let (seq, short, long): (u64, Bytes, Bytes) = decoded.unwrap();
    assert_eq!(requests, 0);
    assert_eq!((seq, &short, &long), (7, &state, &padding));
    // After the `u64` and the length prefix, one byte each: a short
    // field of a long message is a view of it too.
    assert_eq!(short.as_ptr(), message[2..].as_ptr());
    assert_eq!(long.as_ptr(), message[14..].as_ptr());

    let message = to_bytes(&(7u64, state.clone()));
    assert_eq!(message.len(), 13);
    let (decoded, requests, _) = noting_alloc::requests_during(|| from_bytes(&message));
    assert_eq!(requests, 0);
    assert_eq!(decoded, Ok((7u64, state)));
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
fn encoding_a_message_of_up_to_30_bytes_allocates_nothing() {
    let warm = to_bytes(&vec![u64::MAX; 500]);
    assert!(warm.len() > 4000);
    for len in 0..=29 {
        let value = "x".repeat(len);
        let (message, requests, _) = noting_alloc::requests_during(|| to_bytes(&value));
        assert_eq!(message.len(), len + 1);
        assert_eq!(requests, 0, "a {}-byte message", len + 1);
        assert_eq!(from_bytes::<String>(&message), Ok(value));
    }
    let value = "x".repeat(30);
    let (message, requests, _) = noting_alloc::requests_during(|| to_bytes(&value));
    assert_eq!((message.len(), requests), (31, 1));
}

#[test]
fn a_smaller_message_after_a_larger_one_is_cut_to_size() {
    let large = to_bytes(&vec![u64::MAX; 500]);
    let (small, requests, _) = noting_alloc::requests_during(|| to_bytes(&7u8));
    assert!(large.len() > 4000);
    assert_eq!(small.len(), 1);
    assert_eq!(requests, 0);
    let value = "m".repeat(39);
    let (medium, requests, largest) = noting_alloc::requests_during(|| to_bytes(&value));
    assert_eq!(medium.len(), 40);
    assert_eq!(requests, 1);
    assert!(
        largest <= medium.len() + 32,
        "a {}-byte message asked for {largest} bytes",
        medium.len()
    );
}
