//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this vendored crate
//! implements the subset of proptest the workspace's property tests
//! use: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! range / tuple / `any` / `prop_map` strategies,
//! [`collection::vec`], and the `prop_assert*` / `prop_assume!`
//! macros. Cases are generated from a deterministic per-test RNG;
//! failing inputs are reported via panic message. **No shrinking** is
//! performed — a failure prints the exact generated input instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy;

/// Test-runner configuration types.
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Leaner than upstream's 256: these run in CI on every test
            // invocation and the workspace sets explicit counts where
            // more coverage matters.
            Self { cases: 48 }
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.0.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The per-test deterministic RNG state and seeding.
#[doc(hidden)]
pub fn __new_test_rng(test_name: &str, case: u32) -> strategy::TestRng {
    // Stable FNV-1a hash of the test name keeps cases reproducible
    // across runs and independent of sibling tests.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    strategy::TestRng(StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x5EED)))
}

/// Everything a property test needs, glob-imported.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (e.g. `prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn prop_name(x in 0.0f64..1.0, ys in prop::collection::vec(any::<u64>(), 1..9)) {
///         prop_assert!(x < 1.0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident
        ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                #[allow(clippy::redundant_closure_call)]
                for __case in 0..config.cases {
                    let mut __rng = $crate::__new_test_rng(stringify!($name), __case);
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng); )+
                    $( let _ = &$arg; )+
                    $body
                }
            }
        )*
    };
}

/// Assert inside a property (panics with the message on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when its inputs do not satisfy a precondition.
/// Must appear directly in the property body (it `continue`s the case
/// loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pairs() -> impl Strategy<Value = Vec<(bool, u64)>> {
        prop::collection::vec((any::<bool>(), any::<u64>()), 2..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_respect_bounds(x in -3.0f64..3.0, n in 1usize..10) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_strategy_sizes(xs in prop::collection::vec(0u32..5, 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
            prop_assert!(xs.iter().all(|&v| v < 5));
        }

        #[test]
        fn fixed_size_vec(xs in prop::collection::vec(-1.0f64..1.0, 4)) {
            prop_assert_eq!(xs.len(), 4);
        }

        #[test]
        fn tuples_and_maps(v in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(v < 19);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn composite_strategy_compiles(ps in pairs(), j in Just(7u8)) {
            prop_assert!(ps.len() >= 2);
            prop_assert_eq!(j, 7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::__new_test_rng("t", 0);
        let mut b = crate::__new_test_rng("t", 0);
        let s = crate::strategy::any::<u64>();
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
