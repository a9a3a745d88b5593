//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the subset of proptest its property tests rely on: the [`proptest!`]
//! macro, range/tuple/[`Just`](strategy::Just)/mapped strategies, `prop_oneof!`,
//! recursive and collection strategies, and the `prop_assert*` macros.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its inputs (`Debug`) but is
//!   not minimized;
//! * **derived seeding** — each test's RNG is seeded from a hash of its
//!   module path and name, so runs are deterministic across invocations
//!   (set `PROPTEST_SEED` to explore a different universe);
//! * sampling distributions are plain uniforms, not proptest's
//!   edge-case-biased generators.

pub mod strategy;

pub mod arbitrary {
    //! `any::<T>()` — full-domain strategies for primitives.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
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

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric, magnitude spread over ~±1e18.
            let m = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let scale = 10f64.powi((rng.next_u64() % 19) as i32);
            if rng.next_u64() >> 63 == 1 {
                m * scale
            } else {
                -m * scale
            }
        }
    }

    /// Strategy wrapper returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy for any value of `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy producing `Vec<S::Value>` with a length drawn from `L`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector whose elements come from `element` and whose length from
    /// `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

pub mod test_runner {
    //! Test execution plumbing: config, RNG, case-level errors.

    /// Per-test configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 48 }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed with the given message.
        Fail(String),
        /// The input was rejected (unused in this workspace; kept for API
        /// compatibility).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure carrying `reason`.
        #[must_use]
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "assertion failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    /// Per-case result used by generated test bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The deterministic RNG driving every strategy (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test identifier (FNV-1a of the name, XORed with
        /// `PROPTEST_SEED` when set) so each test gets a stable but
        /// distinct stream.
        #[must_use]
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.parse::<u64>() {
                    h ^= extra.rotate_left(17);
                }
            }
            TestRng { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0);
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

pub mod prelude {
    //! Everything the tests import via `use proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec(...)` etc.).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Asserts a condition inside a proptest body, failing the case (not
/// panicking) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Asserts inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The proptest entry macro: wraps `fn name(arg in strategy, ...) { body }`
/// items into `#[test]` functions that run the body over many sampled
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = ($crate::test_runner::Config::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_args! {
                @parse
                cfg = ($cfg);
                name = $name;
                body = $body;
                done = [];
                cur = ();
                toks = [$($args)*];
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_args {
    // Start of one `ident in strategy` binding.
    (@parse cfg = $cfg:tt; name = $name:ident; body = $body:tt;
        done = [$($done:tt)*]; cur = (); toks = [$arg:ident in $($rest:tt)*];) => {
        $crate::__proptest_args! {
            @parse cfg = $cfg; name = $name; body = $body;
            done = [$($done)*]; cur = ($arg: ); toks = [$($rest)*];
        }
    };
    // Top-level comma ends the current strategy expression.
    (@parse cfg = $cfg:tt; name = $name:ident; body = $body:tt;
        done = [$($done:tt)*]; cur = ($arg:ident: $($s:tt)+); toks = [, $($rest:tt)*];) => {
        $crate::__proptest_args! {
            @parse cfg = $cfg; name = $name; body = $body;
            done = [$($done)* ($arg: $($s)+)]; cur = (); toks = [$($rest)*];
        }
    };
    // Any other token joins the current strategy expression.
    (@parse cfg = $cfg:tt; name = $name:ident; body = $body:tt;
        done = [$($done:tt)*]; cur = ($arg:ident: $($s:tt)*); toks = [$t:tt $($rest:tt)*];) => {
        $crate::__proptest_args! {
            @parse cfg = $cfg; name = $name; body = $body;
            done = [$($done)*]; cur = ($arg: $($s)* $t); toks = [$($rest)*];
        }
    };
    // Out of tokens with a binding in flight: finish it.
    (@parse cfg = $cfg:tt; name = $name:ident; body = $body:tt;
        done = [$($done:tt)*]; cur = ($arg:ident: $($s:tt)+); toks = [];) => {
        $crate::__proptest_args! {
            @parse cfg = $cfg; name = $name; body = $body;
            done = [$($done)* ($arg: $($s)+)]; cur = (); toks = [];
        }
    };
    // All bindings parsed: emit the runner loop.
    (@parse cfg = ($cfg:expr); name = $name:ident; body = $body:block;
        done = [$(($arg:ident: $($s:tt)+))*]; cur = (); toks = [];) => {
        let config: $crate::test_runner::Config = $cfg;
        let mut rng = $crate::test_runner::TestRng::for_test(
            concat!(module_path!(), "::", stringify!($name)),
        );
        for case in 0..config.cases {
            $(
                let $arg = $crate::strategy::Strategy::sample(&($($s)+), &mut rng);
            )*
            let outcome: $crate::test_runner::TestCaseResult = (|| {
                $body
                #[allow(unreachable_code)]
                ::core::result::Result::Ok(())
            })();
            if let ::core::result::Result::Err(e) = outcome {
                panic!(
                    "proptest {} failed at case {}/{}: {}\ninputs: {:#?}",
                    stringify!($name),
                    case + 1,
                    config.cases,
                    e,
                    ($(&$arg,)*)
                );
            }
        }
    };
}
