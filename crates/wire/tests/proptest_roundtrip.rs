//! Property-based round-trip tests for the wire codec.

use bytes::Bytes;
use marp_wire::{from_bytes, to_bytes, wire_struct, Wire};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug + Clone>(value: &T) {
    let bytes = to_bytes(value);
    let back: T = from_bytes(&bytes).expect("decode must succeed");
    assert_eq!(&back, value);
}

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn u32_roundtrip(v in any::<u32>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn u16_roundtrip(v in any::<u16>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn string_roundtrip(v in ".{0,64}") {
        assert_roundtrip(&v.to_string());
    }

    #[test]
    fn bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_roundtrip(&Bytes::from(v));
    }

    #[test]
    fn vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        assert_roundtrip(&v);
    }

    #[test]
    fn map_roundtrip(v in proptest::collection::btree_map(any::<u32>(), ".{0,8}", 0..32)) {
        let v: BTreeMap<u32, String> = v.into_iter().map(|(k, s)| (k, s.to_string())).collect();
        assert_roundtrip(&v);
    }

    #[test]
    fn option_roundtrip(v in proptest::option::of(any::<u64>())) {
        assert_roundtrip(&v);
    }

    #[test]
    fn nested_roundtrip(v in proptest::collection::vec(
        (any::<u32>(), proptest::option::of(".{0,8}")), 0..16)
    ) {
        let v: Vec<(u32, Option<String>)> =
            v.into_iter().map(|(k, s)| (k, s.map(|x| x.to_string()))).collect();
        assert_roundtrip(&v);
    }

    /// Arbitrary garbage never panics the decoder — it either decodes or
    /// errors.
    #[test]
    fn garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
        let bytes = Bytes::from(raw);
        let _ = from_bytes::<Vec<(u32, String)>>(&bytes);
        let _ = from_bytes::<BTreeMap<u64, Vec<u8>>>(&bytes);
        let _ = from_bytes::<Option<(u16, u64, bool)>>(&bytes);
    }

    /// Encoding is deterministic: the same value always yields identical
    /// bytes.
    #[test]
    fn encoding_is_deterministic(v in proptest::collection::vec(any::<u64>(), 0..32)) {
        assert_eq!(to_bytes(&v), to_bytes(&v));
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Composite {
    id: u64,
    label: String,
    visited: Vec<u16>,
    note: Option<String>,
}
wire_struct!(Composite {
    id,
    label,
    visited,
    note
});

proptest! {
    #[test]
    fn struct_macro_roundtrip(
        id in any::<u64>(),
        label in ".{0,16}",
        visited in proptest::collection::vec(any::<u16>(), 0..16),
        note in proptest::option::of(".{0,8}"),
    ) {
        assert_roundtrip(&Composite {
            id,
            label: label.to_string(),
            visited,
            note: note.map(|s| s.to_string()),
        });
    }
}
