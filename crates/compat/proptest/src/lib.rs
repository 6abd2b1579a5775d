//! Offline stand-in for the [`proptest`](https://docs.rs/proptest)
//! crate.
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements the proptest *surface* the workspace uses as a real —
//! randomized, deterministic-by-seed, but **non-shrinking** — property
//! testing engine:
//!
//! * [`Strategy`](strategy::Strategy) with `prop_map` / `prop_filter` / `boxed`
//! * [`prelude::any`] for primitives and [`sample::Index`]
//! * ranges (`0u64..100`, `-1e6f64..1e6`, `1..=5`) as strategies
//! * tuples of strategies (arity 2–8) as strategies
//! * `".{lo,hi}"` string patterns (the only regex shape the workspace
//!   uses; other patterns generate the pattern text literally)
//! * [`collection`]: `vec`, `btree_map`, `btree_set`
//! * [`option::of`], [`sample::subsequence`], [`prelude::Just`]
//! * the [`proptest!`] macro with `#![proptest_config(..)]`, and
//!   `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`
//!
//! Failures report the case number and the master seed. Re-running the
//! same binary reproduces them (the per-test seed is derived from the
//! test name, not wall-clock time). Set `PROPTEST_SEED=<u64>` to vary
//! the exploration.

pub mod strategy;

pub mod test_runner;

pub mod collection;
pub mod option;
pub mod sample;

/// The glob-import module, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use test_runner::{Config as ProptestConfig, TestCaseError};

/// Run a block of property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(8))]
///     #[test]
///     fn name(x in 0u64..10, v in any::<u8>()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                $crate::test_runner::run_property_test(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    |__proptest_gen| {
                        $(
                            let $arg = $crate::strategy::Strategy::generate(
                                &($strat),
                                __proptest_gen,
                            );
                        )+
                        let __proptest_outcome: ::std::result::Result<
                            (),
                            $crate::test_runner::TestCaseError,
                        > = (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                        __proptest_outcome
                    },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Fail the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Choose uniformly between several strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
