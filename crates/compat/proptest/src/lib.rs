#![warn(missing_docs)]

//! In-tree stand-in for the `proptest` crate so the workspace builds and
//! tests without network access.
//!
//! Implements the subset the workspace uses: the [`proptest!`] macro with an
//! optional `#![proptest_config(..)]` header, [`Strategy`] with `prop_map`,
//! integer-range and tuple strategies, [`any`], `prop::collection::vec`,
//! [`prop_assert!`]/[`prop_assert_eq!`], and [`TestCaseError`]. Inputs are
//! drawn from a deterministic splitmix64 stream seeded per test name, so
//! failures are reproducible; there is **no shrinking** — a failing case is
//! reported with its case index and the generated inputs' `Debug` output is
//! left to the assertion message.

use std::fmt;
use std::ops::Range;

/// Re-exports matching `proptest::prelude::*` as used in this workspace.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Per-test configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed test case (subset of `proptest::test_runner::TestCaseError`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Fails the current case with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// The deterministic generator behind every strategy.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from a test name (deterministic across runs).
    pub fn deterministic(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A generator of random values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through a function.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Types with a canonical full-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (subset of `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
}

/// The `prop::` namespace (subset: `prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// A strategy for vectors with lengths drawn from `size`.
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        /// Generates vectors of `elem` values with length in `size`.
        pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty size range");
            VecStrategy { elem, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + (rng.next_u64() % span) as usize;
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }` item
/// becomes a `#[test]` running `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("proptest `{}` failed at case {case}: {e}", stringify!($name));
                }
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

/// Fails the current case (with an optional formatted message) unless the
/// condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                stringify!($left), stringify!($right), l, r, format!($($fmt)+)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_name() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        let s = (0u8..10, any::<bool>());
        for _ in 0..50 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let mut rng = crate::TestRng::deterministic("vec");
        let s = prop::collection::vec(0u8..4, 1..6);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((1..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        #[test]
        fn macro_runs_and_asserts(
            xs in prop::collection::vec((0u8..8, any::<bool>()), 0..5),
            n in 1usize..10,
        ) {
            prop_assert!(n >= 1, "n = {}", n);
            prop_assert_eq!(xs.iter().filter(|(x, _)| *x < 8).count(), xs.len());
        }
    }
}
