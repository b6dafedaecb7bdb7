//! Offline drop-in subset of `proptest`.
//!
//! Supports the surface this workspace uses: the `proptest!` macro with an
//! optional `#![proptest_config(...)]` header, range / tuple / `Just` /
//! `any::<T>()` / `prop::collection::vec` strategies, `prop_map` and
//! `prop_flat_map` combinators, and the `prop_assert*` / `prop_assume`
//! macros. Cases are generated from a seed derived deterministically from
//! the test's module path, so failures reproduce across runs. There is no
//! shrinking: a failing case reports its case index, message and replay
//! seed, whether it failed a `prop_assert*` or panicked.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::marker::PhantomData;
use std::ops::Range;

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// Environment variable that pins a single replay seed: when set, each
/// `proptest!` test runs exactly one case seeded from its value (decimal
/// or `0x…` hex) instead of the full generated sequence. Failure messages
/// print the seed in this form, so a failing case replays with
/// `COLD_PROPTEST_SEED=<seed> cargo test <test-name>`.
pub const SEED_ENV: &str = "COLD_PROPTEST_SEED";

/// The deterministic seed for `(test, case)`: FNV-1a over the test path,
/// mixed with the case index. Printed on failure for replay via
/// [`SEED_ENV`].
pub fn seed_for_case(test: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The RNG for an explicit seed (replaying a recorded failure).
pub fn rng_from_seed(seed: u64) -> TestRng {
    SmallRng::seed_from_u64(seed)
}

/// Derive the deterministic RNG for `(test, case)`.
pub fn rng_for_case(test: &str, case: u64) -> TestRng {
    rng_from_seed(seed_for_case(test, case))
}

/// Parse a seed override: decimal or `0x`-prefixed hex.
pub fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// The [`SEED_ENV`] override, if set and parseable.
pub fn env_seed() -> Option<u64> {
    parse_seed(&std::env::var(SEED_ENV).ok()?)
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it does not count.
    Reject,
    /// A `prop_assert*` failed.
    Fail(String),
}

/// Re-raise a panic from property case `case` with its replay seed in the
/// message, so a body that panics (rather than failing a `prop_assert*`)
/// still says how to replay it. The original message is kept, so
/// `#[should_panic(expected = ...)]` still matches.
#[doc(hidden)]
pub fn rethrow_with_seed(case: u64, seed: u64, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(msg) => (*msg).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    };
    panic!("proptest case #{case} panicked (replay with {SEED_ENV}=0x{seed:x}): {msg}");
}

/// Runner configuration (subset of proptest's).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases each test must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then build and sample a dependent strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng as _;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Types with a default "arbitrary" distribution for [`any`].
pub trait ArbitraryValue: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uniform {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                use rand::Rng as _;
                rng.gen_range(<$t>::MIN..<$t>::MAX)
            }
        }
    )*};
}

impl_arbitrary_uniform!(u8, u16, u32, i8, i16, i32);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        use rand::Rng as _;
        rng.gen::<bool>()
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        use rand::Rng as _;
        rng.gen_range(-1.0e6..1.0e6)
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default strategy for `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Vectors of `element` values with length in `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                use rand::Rng as _;
                let len = rng.gen_range(self.size.clone());
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Everything a `proptest!` test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any,
        ArbitraryValue, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declare property tests (subset of proptest's macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($config:expr;) => {};
    ($config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let pinned = $crate::env_seed();
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while accepted < config.cases {
                case += 1;
                assert!(
                    rejected < config.cases.saturating_mul(16) + 256,
                    "prop_assume rejected too many cases ({rejected})"
                );
                let seed = pinned.unwrap_or_else(|| {
                    $crate::seed_for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    )
                });
                let mut __rng = $crate::rng_from_seed(seed);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ))
                .unwrap_or_else(|payload| $crate::rethrow_with_seed(case, seed, payload));
                match result {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => rejected += 1,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case #{case} failed \
                             (replay with {}=0x{seed:x}): {msg}",
                            $crate::SEED_ENV,
                        );
                    }
                }
                if pinned.is_some() {
                    // A pinned seed replays exactly one case.
                    break;
                }
            }
        }
        $crate::__proptest_fns! { $config; $($rest)* }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} != {:?}",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Fail the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left != right,
            "assertion failed: both sides equal {:?}",
            left
        );
    }};
}

/// Discard the current case unless `cond` holds (it does not count).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct_across_cases() {
        let a = seed_for_case("crate::tests::prop", 1);
        assert_eq!(a, seed_for_case("crate::tests::prop", 1));
        assert_ne!(a, seed_for_case("crate::tests::prop", 2));
        assert_ne!(a, seed_for_case("crate::tests::other", 1));
    }

    #[test]
    fn rng_from_seed_matches_rng_for_case() {
        use rand::Rng;
        let seed = seed_for_case("crate::tests::prop", 7);
        let mut direct = rng_from_seed(seed);
        let mut derived = rng_for_case("crate::tests::prop", 7);
        for _ in 0..8 {
            assert_eq!(direct.gen::<u64>(), derived.gen::<u64>());
        }
    }

    proptest! {
        fn panics_on_every_case(x in 0u32..10) {
            assert!(x >= 10, "boom {x}");
        }
    }

    #[test]
    fn a_panicking_property_names_its_replay_seed() {
        let payload = std::panic::catch_unwind(panics_on_every_case).unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        let seed = env_seed()
            .unwrap_or_else(|| seed_for_case(concat!(module_path!(), "::panics_on_every_case"), 1));
        assert!(msg.contains(&format!("{SEED_ENV}=0x{seed:x}")), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 0xff "), Some(255));
        assert_eq!(parse_seed("0XDEADBEEF"), Some(0xdead_beef));
        assert_eq!(parse_seed("nope"), None);
        assert_eq!(parse_seed(""), None);
    }
}
