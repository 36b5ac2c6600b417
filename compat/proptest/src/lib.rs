//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] test macro with
//! `#![proptest_config(...)]`, range / tuple / [`strategy::Just`] / `prop_map` /
//! [`prop_oneof!`] / [`collection::vec`] strategies, and the
//! `prop_assert*` family. Case generation is seeded deterministically per
//! test name, so failures are reproducible by re-running the test.
//!
//! Deliberate simplification: **no shrinking**. A failing case panics with
//! the case number and the generated inputs' `Debug` form; minimisation is
//! delegated to the domain-specific shrinkers in this repository (see
//! `ccr-workload`'s fault-simulation shrinker), which produce far smaller
//! reproducers than structural shrinking of the raw inputs.

#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`proptest::collection` subset).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Sizes a collection strategy can take: `n`, `lo..hi`, or `lo..=hi`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and size range.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop` module alias (`prop::collection::vec(...)`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert a condition inside a [`proptest!`] body; failures report the
/// generated inputs instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {
        match (&$lhs, &$rhs) {
            (__pt_l, __pt_r) => {
                $crate::prop_assert!(
                    *__pt_l == *__pt_r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($lhs),
                    stringify!($rhs),
                    __pt_l,
                    __pt_r
                );
            }
        }
    };
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {
        match (&$lhs, &$rhs) {
            (__pt_l, __pt_r) => {
                $crate::prop_assert!(
                    *__pt_l == *__pt_r,
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    __pt_l,
                    __pt_r
                );
            }
        }
    };
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {
        match (&$lhs, &$rhs) {
            (__pt_l, __pt_r) => {
                $crate::prop_assert!(
                    *__pt_l != *__pt_r,
                    "assertion failed: {} != {} (both {:?})",
                    stringify!($lhs),
                    stringify!($rhs),
                    __pt_l
                );
            }
        }
    };
}

/// Choose among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::test_runner::ProptestConfig = $cfg;
            let __pt_strategy = ($($strat,)+);
            let mut __pt_rng = $crate::test_runner::rng_for(stringify!($name), __pt_config.seed);
            for __pt_case in 0..__pt_config.cases {
                let __pt_values =
                    $crate::strategy::Strategy::generate(&__pt_strategy, &mut __pt_rng);
                let __pt_repr = format!("{:?}", __pt_values);
                let ($($pat,)+) = __pt_values;
                let __pt_result: ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = __pt_result {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        __pt_case + 1,
                        __pt_config.cases,
                        e,
                        __pt_repr
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(a in 1u64..=3, (b, c) in ((0u8..4), (10usize..20))) {
            prop_assert!((1..=3).contains(&a));
            prop_assert!(b < 4);
            prop_assert!((10..20).contains(&c));
        }

        #[test]
        fn oneof_map_and_vec(v in prop::collection::vec(
            prop_oneof![2 => (0u32..5).prop_map(|x| x * 2), 1 => Just(99u32)],
            1..10,
        )) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            for x in &v {
                prop_assert!(*x == 99 || (*x % 2 == 0 && *x < 10), "bad element {}", x);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inputs:")]
    fn failures_report_inputs() {
        proptest! {
            #[allow(unreachable_code)]
            fn inner(x in 0u8..10) {
                prop_assert!(x > 100);
            }
        }
        inner();
    }
}
