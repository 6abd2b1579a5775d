//! Value-generation strategies: the core trait, primitive sources, and
//! the combinators the workspace uses.

use crate::test_runner::Gen;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating random values of one type.
///
/// Unlike upstream proptest there is no value tree and no shrinking: a
/// strategy is simply a deterministic function of the [`Gen`] stream.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, gen: &mut Gen) -> Self::Value;

    /// Transform generated values with `map`.
    fn prop_map<O, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, map }
    }

    /// Discard generated values failing `pred`, retrying with fresh
    /// draws. `whence` labels the filter in the panic raised if the
    /// filter rejects essentially everything.
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            source: self,
            whence,
            pred,
        }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Strategy yielding clones of one value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _gen: &mut Gen) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, gen: &mut Gen) -> O {
        (self.map)(self.source.generate(gen))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    source: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, gen: &mut Gen) -> S::Value {
        for _ in 0..1_000 {
            let candidate = self.source.generate(gen);
            if (self.pred)(&candidate) {
                return candidate;
            }
        }
        panic!(
            "prop_filter {:?} rejected 1000 consecutive candidates",
            self.whence
        );
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        self.0.generate(gen)
    }
}

/// Uniform choice between boxed strategies (the [`crate::prop_oneof!`]
/// backend).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Build from the alternative arms. Panics when empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! of zero strategies");
        Union(arms)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        let arm = gen.below(self.0.len() as u64) as usize;
        self.0[arm].generate(gen)
    }
}

/// Types with a canonical "any value" strategy (mirrors
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(gen: &mut Gen) -> Self;
}

/// The canonical strategy for `T` over its whole value space.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

macro_rules! arbitrary_uint {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(gen: &mut Gen) -> $ty {
                // Truncation keeps all bit patterns reachable.
                gen.next_u64() as $ty
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(gen: &mut Gen) -> $ty {
                gen.next_u64() as $ty
            }
        }
    )*};
}
arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(gen: &mut Gen) -> bool {
        gen.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(gen: &mut Gen) -> f64 {
        // Mix raw bit patterns (exercising NaN/infinity/subnormals, as
        // upstream does) with "ordinary" magnitudes so numeric code sees
        // both.
        if gen.next_u64() & 1 == 0 {
            f64::from_bits(gen.next_u64())
        } else {
            (gen.unit_f64() - 0.5) * 2e9
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(gen: &mut Gen) -> f32 {
        f64::arbitrary(gen) as f32
    }
}

macro_rules! range_strategy_uint {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, gen: &mut Gen) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + gen.below(span) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, gen: &mut Gen) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return gen.next_u64() as $ty;
                }
                lo + gen.below(span + 1) as $ty
            }
        }
    )*};
}
range_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_int {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, gen: &mut Gen) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(gen.below(span) as $ty)
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, gen: &mut Gen) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return gen.next_u64() as $ty;
                }
                lo.wrapping_add(gen.below(span + 1) as $ty)
            }
        }
    )*};
}
range_strategy_int!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, gen: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + gen.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, gen: &mut Gen) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + gen.unit_f64() * (hi - lo)
    }
}

/// String patterns as strategies. Only the `".{lo,hi}"` shape the
/// workspace uses is interpreted (a printable-ASCII string of length in
/// `[lo, hi]`); any other pattern generates its own text literally.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, gen: &mut Gen) -> String {
        match parse_dot_repeat(self) {
            Some((lo, hi)) => {
                let len = lo + gen.below((hi - lo + 1) as u64) as usize;
                (0..len)
                    .map(|_| {
                        // Printable ASCII: 0x20 ..= 0x7E.
                        (0x20 + gen.below(0x5F) as u8) as char
                    })
                    .collect()
            }
            None => (*self).to_string(),
        }
    }
}

fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    let lo: usize = lo.trim().parse().ok()?;
    let hi: usize = hi.trim().parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(gen),)+)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// A size specification for collection strategies: a fixed size, an
/// exclusive range, or an inclusive range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl SizeRange {
    /// Draw a size from the range.
    pub fn pick(&self, gen: &mut Gen) -> usize {
        self.lo + gen.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

pub(crate) struct VecStrategy<S> {
    pub(crate) element: S,
    pub(crate) size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
        let len = self.size.pick(gen);
        (0..len).map(|_| self.element.generate(gen)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::Gen;

    fn gen() -> Gen {
        Gen::from_seed(42)
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut g = gen();
        for _ in 0..1_000 {
            let v = (10u64..20).generate(&mut g);
            assert!((10..20).contains(&v));
            let w = (-5i64..=5).generate(&mut g);
            assert!((-5..=5).contains(&w));
            let f = (0.5f64..2.0).generate(&mut g);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn map_filter_union_compose() {
        let mut g = gen();
        let strat = crate::prop_oneof![
            (0u64..10).prop_map(|v| v * 2),
            (100u64..110).prop_filter("unused", |v| v % 2 == 0),
        ];
        for _ in 0..200 {
            let v = strat.generate(&mut g);
            assert!(v % 2 == 0);
            assert!(v < 20 || (100..110).contains(&v));
        }
    }

    #[test]
    fn string_pattern_lengths() {
        let mut g = gen();
        for _ in 0..200 {
            let s = ".{0,8}".generate(&mut g);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
        assert_eq!("literal".generate(&mut g), "literal");
    }

    #[test]
    fn determinism_by_seed() {
        let a: Vec<u64> = {
            let mut g = Gen::from_seed(7);
            (0..16)
                .map(|_| (0u64..1_000_000).generate(&mut g))
                .collect()
        };
        let b: Vec<u64> = {
            let mut g = Gen::from_seed(7);
            (0..16)
                .map(|_| (0u64..1_000_000).generate(&mut g))
                .collect()
        };
        assert_eq!(a, b);
    }
}
