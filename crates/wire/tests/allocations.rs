//! `to_bytes` costs one allocation — the message — however large the
//! value: the bytes are written into a per-thread scratch buffer that a
//! first call has grown.

use marp_wire::{from_bytes, to_bytes};

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
