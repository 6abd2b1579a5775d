//! `&'static str` labels on the wire.
//!
//! Trace events name their drop reasons and custom kinds with
//! compile-time string constants. On the wire a label is a
//! length-prefixed string like any [`String`]; decoding brings it back
//! as an owned string, and an interner turns that into a `'static`
//! reference again — leaking one allocation per *distinct* label ever
//! decoded. Labels are constants in practice, so the set is tiny; do
//! not point this codec at input whose label set an adversary grows.

use crate::{put_str, str_len, Wire, WireError};
use bytes::{Bytes, BytesMut};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

fn intern(label: String) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("interner poisoned");
    if let Some(&stored) = set.get(label.as_str()) {
        return stored;
    }
    let leaked: &'static str = Box::leak(label.into_boxed_str());
    set.insert(leaked);
    leaked
}

impl Wire for &'static str {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(intern(String::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        str_len(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes};

    #[test]
    fn a_label_encodes_as_the_string_it_spells() {
        let label: &'static str = "partition";
        let bytes = to_bytes(&label);
        assert_eq!(bytes, to_bytes(&String::from("partition")));
        assert_eq!(from_bytes::<&'static str>(&bytes).unwrap(), label);
    }

    #[test]
    fn equal_labels_decode_to_one_allocation() {
        let bytes = to_bytes(&"some-label");
        let a: &'static str = from_bytes(&bytes).unwrap();
        let b: &'static str = from_bytes(&bytes).unwrap();
        assert!(std::ptr::eq(a, b));
        let other: &'static str = from_bytes(&to_bytes(&"another")).unwrap();
        assert_eq!(other, "another");
    }
}
