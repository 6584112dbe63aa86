//! Minimal, dependency-light stand-in for the crates.io `proptest` crate.
//!
//! This build environment has no registry access, so the workspace vendors
//! the subset of proptest it uses: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` inner attribute), range and
//! [`collection::vec`] strategies, and the `prop_assert!` /
//! `prop_assert_eq!` assertion macros.
//!
//! Semantics: each property runs `ProptestConfig::cases` times with inputs
//! drawn from the strategies under a deterministic per-case seed. There is
//! **no shrinking** — a failing case reports its inputs' debug rendering and
//! case number instead. That is a weaker debugging experience than real
//! proptest but identical pass/fail power for CI. Swap the workspace
//! manifest entry to `proptest = "1"` to return to the real crate.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng, SeedableRng};

/// Error type carried by `prop_assert!` failures (upstream:
/// `proptest::test_runner::TestCaseError`). A plain message is enough here.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for TestCaseError {
    fn from(s: String) -> Self {
        TestCaseError(s)
    }
}

impl From<&str> for TestCaseError {
    fn from(s: &str) -> Self {
        TestCaseError(s.to_string())
    }
}

/// Subset of `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream default is 256; keep a smaller default so `cargo test`
        // stays fast — properties that need more pass an explicit config.
        ProptestConfig { cases: 64 }
    }
}

/// A source of random values (subset of `proptest::strategy::Strategy`).
///
/// Strategies here sample directly (no value trees / shrinking).
pub trait Strategy {
    type Value: fmt::Debug;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Subset of `proptest::collection::vec`: the workspace only passes
    /// half-open `usize` ranges for the size.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a `proptest!` test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u64) -> TestRng {
    // FNV-1a over the test name, mixed with the case index, so every
    // property sees a distinct but fully deterministic stream.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    TestRng::seed_from_u64(h ^ case.wrapping_mul(0x9e3779b97f4a7c15))
}

/// Subset of `proptest::proptest!`: a sequence of
/// `#[test] fn name(pat in strategy, ...) { body }` items, optionally
/// preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases as u64 {
                let mut __rng = $crate::__case_rng(stringify!($name), __case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?} ",)+),
                    $(&$arg),+
                );
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__e) = __result {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        __case + 1, __config.cases, __e, __inputs
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Subset of `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::from(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::from(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Subset of `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::from(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::from(format!(
                "assertion failed: {} == {}: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Range strategies stay inside their bounds.
        #[test]
        fn ranges_in_bounds(x in 0u64..100, y in 3usize..7) {
            prop_assert!(x < 100);
            prop_assert!((3..7).contains(&y), "y = {}", y);
        }

        /// Nested vec strategies respect element and size bounds.
        #[test]
        fn nested_vecs(vs in collection::vec(collection::vec(0u32..8, 1..4), 1..6)) {
            prop_assert!((1..6).contains(&vs.len()));
            for v in &vs {
                prop_assert!((1..4).contains(&v.len()));
                for &e in v {
                    prop_assert!(e < 8);
                }
            }
            // Early-return form used by downstream tests must compile.
            if vs.is_empty() {
                return Ok(());
            }
            prop_assert_eq!(vs.len(), vs.capacity().min(vs.len()));
        }
    }

    #[test]
    fn case_rng_is_deterministic_and_distinct() {
        use rand::Rng;
        let mut a = crate::__case_rng("t", 0);
        let mut b = crate::__case_rng("t", 0);
        let mut c = crate::__case_rng("t", 1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
