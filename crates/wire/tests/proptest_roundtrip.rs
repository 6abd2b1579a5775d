//! Property-based round-trip tests for the wire codec.

use bytes::Bytes;
use marp_wire::{from_bytes, from_bytes_into, to_bytes, wire_enum, wire_struct, Wire};
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

/// Decoding `bytes` into `warm` — a value already held — gives exactly
/// what `from_bytes` gives: the same value, or the same error.
fn assert_decodes_into<T: Wire + PartialEq + std::fmt::Debug>(bytes: &Bytes, mut warm: T) {
    let decoded = from_bytes_into(&mut warm, bytes);
    assert_eq!(decoded.map(|()| warm), from_bytes::<T>(bytes));
}

/// `held` then `value`'s elements, each altered: more elements than
/// `value`, and not `value`'s.
fn larger<T: Clone>(value: &[T], held: &[T], alter: impl Fn(T) -> T) -> Vec<T> {
    held.iter()
        .chain(value)
        .cloned()
        .map(alter)
        .chain(held.first().cloned())
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Dot,
    Line(Vec<u16>),
    Named { label: String, points: Vec<u32> },
}
wire_enum!(Shape {
    0 => Dot,
    1 => Line(points),
    2 => Named { label, points },
});

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Dot),
        proptest::collection::vec(any::<u16>(), 0..8).prop_map(Shape::Line),
        (".{0,8}", proptest::collection::vec(any::<u32>(), 0..8))
            .prop_map(|(label, points)| Shape::Named { label, points }),
    ]
}

/// A struct whose decoded value must pass a check.
#[derive(Debug, Clone, PartialEq)]
struct Ascending {
    items: Vec<u16>,
}
impl Ascending {
    fn is_ascending(&self) -> bool {
        self.items.windows(2).all(|pair| pair[0] < pair[1])
    }
}
wire_struct!(Ascending { items } if Ascending::is_ascending);

proptest! {
    /// Every leaf, container, tuple and macro-declared type decodes
    /// into a warm value holding a different, larger one exactly as
    /// `from_bytes` decodes it.
    #[test]
    fn decoding_into_a_larger_value_is_decoding(
        ints in (any::<u64>(), any::<u64>(), any::<u16>(), any::<bool>()),
        texts in (".{0,16}", ".{0,16}"),
        longs in (
            proptest::collection::vec(any::<u64>(), 0..32),
            proptest::collection::vec(any::<u64>(), 0..32),
        ),
        maps in (
            proptest::collection::btree_map(any::<u32>(), ".{0,8}", 0..16),
            proptest::collection::btree_map(any::<u32>(), ".{0,8}", 0..16),
        ),
        note in proptest::option::of(".{0,8}"),
        pairs in (
            proptest::collection::vec((any::<u32>(), proptest::option::of(".{0,8}")), 0..16),
            proptest::collection::vec((any::<u32>(), proptest::option::of(".{0,8}")), 0..16),
        ),
        shapes in (arb_shape(), arb_shape()),
        items in proptest::collection::btree_set(any::<u16>(), 0..8),
    ) {
        let (a, b, short, flag) = ints;
        let (text, other) = texts;
        let (long, held) = longs;
        let more = |s: String| s + "+";
        let bigger_text = more(other.clone() + &text);
        let bigger_long = larger(&long, &held, |v| v ^ 1);

        assert_decodes_into(&to_bytes(&a), b);
        assert_decodes_into(&to_bytes(&short), !short);
        assert_decodes_into(&to_bytes(&flag), !flag);
        assert_decodes_into(&to_bytes(&text), bigger_text.clone());
        let blob = Bytes::from(text.clone().into_bytes());
        assert_decodes_into(&to_bytes(&blob), Bytes::from(bigger_text.clone().into_bytes()));
        assert_decodes_into(&to_bytes(&long), bigger_long.clone());

        let (map, held_map) = maps;
        let mut bigger_map: BTreeMap<u32, String> = held_map;
        bigger_map.extend(map.iter().map(|(&k, v)| (k, more(v.clone()))));
        bigger_map.insert(map.keys().max().map_or(0, |k| k.wrapping_add(1)), String::new());
        assert_decodes_into(&to_bytes(&map), bigger_map);

        assert_decodes_into(&to_bytes(&note), Some(bigger_text.clone()));
        assert_decodes_into(&to_bytes(&note), Option::<String>::None);
        assert_decodes_into(&to_bytes(&Some(a)), Some(b));

        let (pairs, held_pairs) = pairs;
        let bigger_pairs = larger(&pairs, &held_pairs, |(k, v)| (!k, Some(v.map_or_else(String::new, more))));
        assert_decodes_into(&to_bytes(&pairs), bigger_pairs);

        let triple = (short, long.clone(), text.clone());
        assert_decodes_into(&to_bytes(&triple), (!short, bigger_long.clone(), bigger_text.clone()));

        let composite = Composite { id: a, label: text.clone(), visited: vec![short], note: note.clone() };
        let warm = Composite {
            id: b,
            label: bigger_text.clone(),
            visited: vec![!short; 9],
            note: Some(bigger_text.clone()),
        };
        assert_decodes_into(&to_bytes(&composite), warm);

        let (shape, held_shape) = shapes;
        assert_decodes_into(&to_bytes(&shape), held_shape);
        let line = Shape::Line(bigger_long.iter().map(|&v| v as u16).collect());
        assert_decodes_into(&to_bytes(&shape), line);

        // The check runs on a value decoded into, as on a fresh one.
        let items: Vec<u16> = items.into_iter().collect();
        let warm = Ascending { items: (0..20).collect() };
        assert_decodes_into(&to_bytes(&Ascending { items: items.clone() }), warm.clone());
        let reversed: Vec<u16> = items.iter().rev().copied().collect();
        assert_decodes_into::<Ascending>(&to_bytes(&reversed), warm);
    }
}

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
