//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small, deterministic property-testing harness that is API-compatible
//! with the subset of `proptest` the test suites use: range strategies,
//! tuple strategies, `collection::vec` / `collection::btree_set`,
//! `bool::ANY`, `Strategy::prop_map`, the `proptest!` macro, and the
//! `prop_assert*` macros. There is **no shrinking**: a failing case is
//! reported with its generated inputs and the deterministic seed, which is
//! enough to reproduce it (every run generates the same cases).

use std::fmt;

pub use rand::rngs::SmallRng as TestRng;
use rand::SeedableRng;

/// A failed test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
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

/// Strategies: recipes for generating values.
pub mod strategy {
    use super::TestRng;

    /// A value generator. Unlike real proptest there is no value tree and no
    /// shrinking; a strategy simply draws a value from the RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
        )*};
    }

    range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, f64);

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
}

pub use strategy::Strategy;

/// Boolean strategies.
pub mod bool {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Generates `true` and `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Size specifications accepted by [`vec()`] and [`btree_set`]: a fixed
    /// `usize` or a `Range<usize>`.
    pub trait IntoSizeRange {
        /// Draws a size.
        fn draw_size(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_size(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn draw_size(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn draw_size(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Generates a `Vec` whose elements come from `element` and whose length
    /// comes from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.draw_size(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates a `BTreeSet`; because duplicates collapse, the resulting set
    /// may be smaller than the drawn size (real proptest retries — this shim
    /// accepts the smaller set, which is fine for the workspace's tests as
    /// long as at least one element survives for non-empty size ranges).
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// The strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.draw_size(rng);
            let mut out = BTreeSet::new();
            // A few extra draws compensate for collisions without risking an
            // endless loop on tiny domains.
            for _ in 0..(4 * n + 8) {
                if out.len() >= n {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            if n > 0 && out.is_empty() {
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

/// Everything a test module usually imports.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError, TestRng,
    };
}

/// Deterministic per-property seed: cases are reproducible run over run.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `body` for `cases` deterministic cases — or as many as
/// `PROPTEST_CASES` says, the variable upstream proptest reads, when it is
/// set. Used by the [`proptest!`] macro; not part of the public proptest API.
pub fn run_cases(
    name: &str,
    cases: u32,
    mut body: impl FnMut(&mut TestRng, u32) -> Result<(), TestCaseError>,
) {
    let cases = case_count(std::env::var("PROPTEST_CASES").ok().as_deref(), cases);
    let mut rng = <TestRng as SeedableRng>::seed_from_u64(seed_for(name));
    for case in 0..cases {
        if let Err(e) = body(&mut rng, case) {
            panic!("property '{name}' failed at case {case}/{cases}: {e}");
        }
    }
}

/// The number of cases to run: `PROPTEST_CASES`, when set, replaces the
/// configured count.
fn case_count(var: Option<&str>, configured: u32) -> u32 {
    var.map_or(configured, |cases| {
        cases.parse().expect("PROPTEST_CASES is a number of cases")
    })
}

/// Declares property tests. Matches the real macro's surface for the forms
/// used in this workspace; there is no shrinking.
#[macro_export]
macro_rules! proptest {
    // With an explicit config.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!({ $cfg } $($rest)*);
    };
    // Default config.
    ($($rest:tt)*) => {
        $crate::__proptest_fns!({ $crate::ProptestConfig::default() } $($rest)*);
    };
}

/// Internal expansion of [`proptest!`]; do not use directly.
#[macro_export]
macro_rules! __proptest_fns {
    ({ $cfg:expr } $( $(#[$meta:meta])* fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), config.cases, |rng, _case| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), rng);)*
                    let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    result
                });
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not panicking)
/// when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "{} (left: {:?}, right: {:?})", format!($($fmt)*), l, r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = <TestRng as rand::SeedableRng>::seed_from_u64(1);
        for _ in 0..100 {
            let v = crate::collection::vec((1i64..=3, 0.1f64..0.9), 1..5).generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 5);
            for (i, f) in v {
                assert!((1..=3).contains(&i));
                assert!((0.1..0.9).contains(&f));
            }
            let s = crate::collection::btree_set(0u64..6, 1..4).generate(&mut rng);
            assert!(!s.is_empty() && s.len() < 4);
            let mapped = (1u32..=9)
                .prop_map(|i| f64::from(i) / 10.0)
                .generate(&mut rng);
            assert!((0.1..=0.9).contains(&mapped));
        }
    }

    #[test]
    fn proptest_cases_replaces_the_configured_count() {
        assert_eq!(crate::case_count(None, 32), 32);
        assert_eq!(crate::case_count(Some("500"), 32), 500);
        assert_eq!(crate::case_count(Some("1"), 64), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_arguments(x in 0i64..10, flag in crate::bool::ANY) {
            prop_assert!((0..10).contains(&x));
            let _ = flag;
            prop_assert_eq!(x, x, "x must equal itself ({})", x);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(v in crate::collection::vec(0i64..5, 3)) {
            prop_assert_eq!(v.len(), 3);
        }
    }
}
