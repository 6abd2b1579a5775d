//! Model test for [`Ragged`], the two-buffer list of lists: driven
//! through arbitrary inserts, replacements, removals, retains, rows
//! built in the tail, rewrites in place and copies, it must hold
//! exactly what a `Vec<(H, Vec<T>)>` driven the same way holds, and
//! encode to the same bytes. Decoding into a warm value must give what
//! a fresh decode gives, on any bytes, and a hostile length prefix must
//! fail without reserving past the cap.

use bytes::{BufMut, Bytes, BytesMut};
use marp_wire::{from_bytes, from_bytes_into, put_uvarint, to_bytes, Ragged, WireError};
use proptest::prelude::*;

#[path = "../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

type Head = (u16, u64);
type Rows = Ragged<Head, u16>;
type Model = Vec<(Head, Vec<u16>)>;

/// One step: an operation, a row index to project, a head and items.
type Step = (u8, usize, Head, Vec<u16>);

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..8,
        any::<usize>(),
        (any::<u16>(), any::<u64>()),
        proptest::collection::vec(any::<u16>(), 0..6),
    )
}

/// Whether a retain keeps a row, by its head, its length and a draw.
fn keeps(head: &Head, items: &[u16], draw: usize) -> bool {
    !(usize::from(head.0) + items.len() + draw).is_multiple_of(3)
}

/// Apply `step` to both.
fn apply(rows: &mut Rows, model: &mut Model, (op, draw, head, items): Step) {
    let len = model.len();
    match op {
        0 => {
            let at = draw % (len + 1);
            rows.insert(at, head, items.iter().copied());
            model.insert(at, (head, items));
        }
        1 if len > 0 => {
            let at = draw % len;
            rows.replace(at, head, items.iter().copied());
            model[at] = (head, items);
        }
        2 if len > 0 => {
            let at = draw % len;
            rows.remove(at);
            model.remove(at);
        }
        3 => {
            rows.retain(|head, items| keeps(head, items, draw));
            model.retain(|(head, items)| keeps(head, items, draw));
        }
        // A row built in the tail while every item, the tail's among
        // them, is rewritten in place — as a Locking Table interns.
        4 => {
            let at = draw % (len + 1);
            for &item in &items {
                rows.push(item);
                for item in rows.items_mut() {
                    *item = item.wrapping_add(1);
                }
                for (_, row) in model.iter_mut() {
                    for item in row {
                        *item = item.wrapping_add(1);
                    }
                }
            }
            let built: Vec<u16> = (0..items.len())
                .map(|i| items[i].wrapping_add((items.len() - i) as u16))
                .collect();
            rows.insert_tail(at, head);
            model.insert(at, (head, built));
        }
        // A tail abandoned: it is no part of the value, and the next
        // change drops it.
        5 => {
            let before = rows.clone();
            for &item in &items {
                rows.push(item);
            }
            assert_eq!(*rows, before);
            assert_eq!(to_bytes(rows), to_bytes(&before));
            if len > 0 {
                let at = draw % len;
                rows.remove(at);
                model.remove(at);
            } else {
                rows.retain(|_, _| true);
            }
        }
        6 => {
            let mut copy = Rows::new();
            copy.insert(0, head, items.iter().copied());
            copy.clone_from(rows);
            *rows = copy;
        }
        7 => {
            rows.clear();
            model.clear();
        }
        _ => {}
    }
}

/// Every query of `rows` against `model`, and the bytes.
fn agree(rows: &Rows, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(rows.len(), model.len());
    prop_assert_eq!(rows.is_empty(), model.is_empty());
    let listed: Model = rows.iter().map(|(h, items)| (*h, items.to_vec())).collect();
    prop_assert_eq!(&listed, model);
    for (at, (head, items)) in model.iter().enumerate() {
        prop_assert_eq!(rows.head(at), head);
        prop_assert_eq!(rows.row(at), &items[..]);
    }
    let heads: Vec<Head> = rows.heads().copied().collect();
    let model_heads: Vec<Head> = model.iter().map(|(head, _)| *head).collect();
    prop_assert_eq!(heads, model_heads);
    let flat: Vec<u16> = model.iter().flat_map(|(_, items)| items.clone()).collect();
    prop_assert_eq!(rows.items(), &flat[..]);
    let bytes = to_bytes(model);
    prop_assert_eq!(to_bytes(rows), bytes.clone());
    prop_assert_eq!(from_bytes::<Rows>(&bytes), Ok(rows.clone()));
    Ok(())
}

fn build(steps: Vec<Step>) -> Rows {
    let (mut rows, mut model) = (Rows::new(), Model::new());
    for step in steps {
        apply(&mut rows, &mut model, step);
    }
    rows
}

/// A list of lists with a row length far past the bytes that follow.
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn hostile_row(items: u64) -> Bytes {
    let mut buf = BytesMut::new();
    put_uvarint(&mut buf, 1);
    put_uvarint(&mut buf, 7);
    put_uvarint(&mut buf, 9);
    put_uvarint(&mut buf, items);
    buf.put_slice(&[1, 2, 3]);
    buf.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_mutator_matches_the_vec_of_vecs(
        steps in proptest::collection::vec(step(), 0..40),
    ) {
        let (mut rows, mut model) = (Rows::new(), Model::new());
        for step in steps {
            apply(&mut rows, &mut model, step);
            agree(&rows, &model)?;
        }
    }

    #[test]
    fn decode_into_a_warm_value_is_a_fresh_decode(
        value in proptest::collection::vec(step(), 0..24),
        warm in proptest::collection::vec(step(), 0..24),
        cut in any::<usize>(),
        flip in proptest::option::of((any::<usize>(), any::<u8>())),
    ) {
        let bytes = to_bytes(&build(value));
        let mut raw = bytes[..cut % (bytes.len() + 1)].to_vec();
        if let (Some((at, byte)), false) = (flip, raw.is_empty()) {
            let at = at % raw.len();
            raw[at] = byte;
        }
        let raw = Bytes::from(raw);
        let mut warm = build(warm);
        let fresh = from_bytes::<Rows>(&raw);
        let into = from_bytes_into(&mut warm, &raw);
        match fresh {
            Ok(fresh) => {
                prop_assert_eq!(into, Ok(()));
                prop_assert_eq!(warm, fresh);
            }
            Err(error) => prop_assert_eq!(into, Err(error)),
        }
    }

    #[test]
    fn a_hostile_row_length_reserves_no_more_than_the_cap(
        items in 4u64..u64::MAX,
        warm in proptest::collection::vec(step(), 0..8),
    ) {
        let bytes = hostile_row(items);
        let cap = 4096 * std::mem::size_of::<u16>();
        let (decoded, _, largest) = noting_alloc::requests_during(|| from_bytes::<Rows>(&bytes));
        prop_assert_eq!(decoded, Err(WireError::UnexpectedEof));
        prop_assert!(largest <= cap, "a fresh decode asked for {} bytes", largest);
        // A warm value reserves the cap past what it holds.
        let mut warm = build(warm);
        let held = std::mem::size_of_val(warm.items());
        let (decoded, _, largest) =
            noting_alloc::requests_during(|| from_bytes_into(&mut warm, &bytes));
        prop_assert_eq!(decoded, Err(WireError::UnexpectedEof));
        prop_assert!(largest <= 2 * (held + cap), "a warm decode asked for {} bytes", largest);
    }
}

#[test]
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn a_hostile_row_count_fails_at_the_end_of_the_bytes() {
    let mut buf = BytesMut::new();
    put_uvarint(&mut buf, u64::MAX >> 1);
    put_uvarint(&mut buf, 7);
    let bytes = buf.freeze();
    let (decoded, _, largest) = noting_alloc::requests_during(|| from_bytes::<Rows>(&bytes));
    assert_eq!(decoded, Err(WireError::UnexpectedEof));
    assert!(largest <= 4096 * std::mem::size_of::<(Head, usize)>());
}

/// Rows of owned items decode into the rows held, item by item.
#[test]
fn rows_of_strings_decode_into_the_rows_held() {
    let model: Vec<(u8, Vec<String>)> = vec![
        (1, vec!["a".into(), "bc".into()]),
        (2, vec![]),
        (3, vec!["def".into()]),
    ];
    let bytes = to_bytes(&model);
    let mut rows: Ragged<u8, String> = from_bytes(&bytes).expect("rows");
    assert_eq!(to_bytes(&rows), bytes);
    rows.replace(1, 2, ["xyz".to_string()]);
    from_bytes_into(&mut rows, &bytes).expect("rows");
    let listed: Vec<(u8, Vec<String>)> = rows.iter().map(|(h, s)| (*h, s.to_vec())).collect();
    assert_eq!(listed, model);
}
