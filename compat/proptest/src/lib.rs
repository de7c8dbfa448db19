//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing framework.
//!
//! Implements the API subset the QSDD test suite uses: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map`, range and tuple strategies, [`collection::vec`],
//! the [`proptest!`] macro with `#![proptest_config(..)]`, and the
//! `prop_assert!` / `prop_assert_eq!` assertion macros.
//!
//! Unlike real proptest there is **no shrinking** and the case seeds are
//! fixed (deterministic across runs — a failing case reproduces by rerunning
//! the test). Swap for the registry crate when network access is available.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Strategies: composable random-value generators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of values produced.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy adapter created by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and a length drawn from
    /// a range. Created by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` strategy: lengths drawn uniformly from `size`, elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(!size.is_empty(), "empty size range for vec strategy");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration and per-case RNG derivation.
pub mod test_runner {
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// Configuration of a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Derives the deterministic RNG for one case index.
    pub fn case_rng(case: u32) -> TestRng {
        TestRng::seed_from_u64(0x7E57_5EED ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Map, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property (plain `assert!` here: failures
/// abort the test without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }` runs
/// the body for every generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::case_rng(case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 0..10u8, f in -1.0f64..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_the_size_range(v in collection::vec(0..5usize, 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn prop_map_applies_the_function(doubled in (1..50u32,).prop_map(|(x,)| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert_ne!(doubled, 1);
        }
    }

    #[test]
    fn default_config_runs() {
        let config = ProptestConfig::default();
        assert!(config.cases > 0);
    }
}
