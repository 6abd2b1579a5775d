//! `Bytes` against a `Vec<u8>` model, across the 30-byte boundary
//! where a buffer copied in stops living inside its handle: every
//! constructor, lengths 0..=64, nested slices (views of shared storage
//! cut down to 30 bytes or less among them), the content-based traits,
//! and wire round trips of a `(u64, Bytes)` at every length.

use bytes::{BufMut, Bytes, BytesMut};
use marp_wire::{from_bytes, to_bytes};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

/// Where `from_static` buffers come from: each byte its own offset.
static POOL: [u8; 256] = {
    let mut pool = [0; 256];
    let mut i = 0;
    while i < 256 {
        pool[i] = i as u8;
        i += 1;
    }
    pool
};

/// `len` bytes of content drawn from `seed`, all ASCII so that
/// `From<String>` takes them too.
fn content(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            b' ' + (state >> 58) as u8
        })
        .collect()
}

/// The buffer constructor `way` makes of `len` bytes from `seed`, its
/// model, and whether it is a view of storage outside the handle (so
/// that its slices must point into that storage).
fn construct(way: u8, seed: u64, len: usize) -> (Bytes, Vec<u8>, bool) {
    let model = content(seed, len);
    let bytes = match way {
        0 => Bytes::copy_from_slice(&model),
        1 => Bytes::from(model.clone()),
        2 => Bytes::from(&model[..]),
        3 => Bytes::from(String::from_utf8(model.clone()).expect("ASCII")),
        4 => {
            let mut buf = BytesMut::with_capacity(len);
            buf.put_slice(&model);
            buf.freeze()
        }
        _ => {
            let at = (seed % 192) as usize;
            let pool = &POOL[at..at + len];
            return (Bytes::from_static(pool), pool.to_vec(), true);
        }
    };
    (bytes, model, len > 30)
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// `bytes` agrees with `model` on everything read by content.
fn agrees(bytes: &Bytes, model: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(bytes.len(), model.len());
    prop_assert_eq!(bytes.is_empty(), model.is_empty());
    prop_assert_eq!(bytes.as_slice(), model);
    prop_assert_eq!(bytes.to_vec(), model.to_vec());
    let clone = bytes.clone();
    prop_assert_eq!(clone.as_slice(), model);
    let copy = Bytes::copy_from_slice(model);
    prop_assert!(clone == copy && *bytes == *model);
    prop_assert_eq!(bytes.cmp(&copy), Ordering::Equal);
    prop_assert_eq!(hash_of(bytes), hash_of(model));
    prop_assert_eq!(hash_of(bytes), hash_of(&copy));
    prop_assert_eq!(format!("{bytes:?}"), format!("{copy:?}"));
    Ok(())
}

/// A range of `len` from two raw draws, in one of the five forms a
/// caller writes: `lo..hi`, `lo..`, `..hi`, `lo..=hi - 1` and the
/// exclusive-start bound pair.
fn cut(len: usize, (a, b, form): (u64, u64, u8)) -> (usize, usize, (Bound<usize>, Bound<usize>)) {
    let lo = (a % (len as u64 + 1)) as usize;
    let hi = lo + (b % ((len - lo) as u64 + 1)) as usize;
    let bounds = match form % 5 {
        0 => (Bound::Included(lo), Bound::Excluded(hi)),
        1 => return (lo, len, (Bound::Included(lo), Bound::Unbounded)),
        2 => return (0, hi, (Bound::Unbounded, Bound::Excluded(hi))),
        3 if hi > lo => (Bound::Included(lo), Bound::Included(hi - 1)),
        4 if lo > 0 => (Bound::Excluded(lo - 1), Bound::Excluded(hi)),
        _ => (Bound::Included(lo), Bound::Excluded(hi)),
    };
    (lo, hi, bounds)
}

proptest! {
    #[test]
    fn bytes_behaves_as_its_model_through_nested_slices(
        way in 0u8..6,
        seed in any::<u64>(),
        len in 0usize..=64,
        cuts in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..5),
        other in proptest::collection::vec(32u8..96, 0..=64),
    ) {
        let (mut bytes, mut model, view) = construct(way, seed, len);
        agrees(&bytes, &model)?;
        for draw in cuts {
            let (lo, hi, range) = cut(model.len(), draw);
            let sliced = bytes.slice(range);
            if view {
                prop_assert_eq!(sliced.as_ptr(), bytes[lo..].as_ptr(), "a window, not a copy");
            }
            bytes = sliced;
            model = model[lo..hi].to_vec();
            agrees(&bytes, &model)?;
            let other_bytes = Bytes::from(other.clone());
            prop_assert_eq!(bytes.cmp(&other_bytes), model.cmp(&other));
            prop_assert_eq!(bytes == other_bytes, model == other);
        }
    }

    #[test]
    fn a_u64_and_bytes_round_trip_at_every_length(
        seq in any::<u64>(),
        way in 0u8..6,
        seed in any::<u64>(),
    ) {
        for len in 0..=64 {
            let (state, model, _) = construct(way, seed, len);
            let message = to_bytes(&(seq, state.clone()));
            let decoded: (u64, Bytes) = from_bytes(&message).expect("a message to_bytes wrote");
            prop_assert_eq!(&decoded.0, &seq);
            prop_assert_eq!(decoded.1.as_slice(), &model[..]);
            prop_assert_eq!(to_bytes(&decoded), message);
        }
    }
}
