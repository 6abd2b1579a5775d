//! Collection strategies: `vec`, `btree_map`, `btree_set`.

use crate::strategy::{SizeRange, Strategy, VecStrategy};
use std::collections::{BTreeMap, BTreeSet};

/// `Vec` of values from `element`, with length drawn from `size`.
pub fn vec<S: Strategy>(
    element: S,
    size: impl Into<SizeRange>,
) -> impl Strategy<Value = Vec<S::Value>> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// `BTreeMap` with keys/values from the given strategies. The requested
/// size is an upper bound: duplicate keys collapse, as upstream.
pub fn btree_map<K, V>(
    key: K,
    value: V,
    size: impl Into<SizeRange>,
) -> impl Strategy<Value = BTreeMap<K::Value, V::Value>>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    let size = size.into();
    vec((key, value), size).prop_map(|pairs| pairs.into_iter().collect())
}

/// `BTreeSet` of values from `element`. The requested size is an upper
/// bound: duplicates collapse, as upstream.
pub fn btree_set<S>(
    element: S,
    size: impl Into<SizeRange>,
) -> impl Strategy<Value = BTreeSet<S::Value>>
where
    S: Strategy,
    S::Value: Ord,
{
    let size = size.into();
    vec(element, size).prop_map(|items| items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::Gen;

    #[test]
    fn vec_lengths_in_range() {
        let mut g = Gen::from_seed(1);
        let strat = vec(0u64..10, 2..=5);
        for _ in 0..200 {
            let v = strat.generate(&mut g);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn maps_and_sets_generate() {
        let mut g = Gen::from_seed(2);
        let m = btree_map(0u8..=255, 0u64..100, 0..8).generate(&mut g);
        assert!(m.len() <= 8);
        let s = btree_set(0u16..50, 3..=3).generate(&mut g);
        assert!(s.len() <= 3);
    }
}
