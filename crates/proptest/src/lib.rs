//! A minimal, dependency-free property-testing shim exposing the subset of
//! the `proptest` 1.x API this workspace uses.
//!
//! The build container has no access to crates.io, so the real `proptest`
//! crate cannot be fetched; this in-tree stand-in keeps every property test
//! in the workspace source-compatible. Differences from the real crate:
//!
//! * no shrinking — a failing case panics with the sampled arguments in the
//!   normal assertion message instead of a minimized counterexample;
//! * sampling is deterministic per test (seeded from the test's module
//!   path + name), so failures reproduce across runs; setting the
//!   `CAKE_TEST_SEED` environment variable (a `u64`) perturbs every
//!   test's stream, and a failing case prints the seed and case index
//!   needed to reproduce it locally;
//! * only the strategies the workspace uses are implemented: integer
//!   ranges (half-open and inclusive), `any::<bool>()`, and
//!   `prop::sample::select(Vec<T>)`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Mirror of the `prop::` path exposed by the real crate's prelude.
pub mod prop {
    pub use crate::sample;
}

/// `prop::sample` strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly select one of the given items per case.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select requires at least one item");
        Select { items }
    }

    /// Strategy returned by [`select`].
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.items.len() as u64) as usize;
            self.items[i].clone()
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and the built-in strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A value generator driven by the per-test RNG.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Sample one value.
        fn pick(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + (rng.next_u64() % span) as i128) as $t
                }
            }
        )*};
    }
    impl_signed_range!(i8, i16, i32, i64, isize);

    /// `any::<T>()` — full-domain strategy for simple types.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(PhantomData<T>);

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Sample an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Config and RNG plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    /// Per-test configuration (only `cases` is honoured).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Deterministic splitmix64 RNG, seeded from the test's full name so
    /// each property samples a stable, independent stream.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the named test: FNV-1a hash of the name, perturbed by
        /// the `CAKE_TEST_SEED` environment variable so CI can re-roll
        /// every property's stream and failures stay reproducible.
        pub fn for_test(name: &str) -> Self {
            Self::for_test_with_seed(name, env_seed())
        }

        /// RNG for the named test with an explicit extra seed (what
        /// [`TestRng::for_test`] does with the `CAKE_TEST_SEED` value).
        pub fn for_test_with_seed(name: &str, seed: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self { state: h ^ seed }
        }

        /// RNG from a raw 64-bit seed (for non-macro consumers such as
        /// the `cake-verify` differential fuzzer).
        pub fn from_seed(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Next 64 random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The `CAKE_TEST_SEED` environment value (0 when unset or invalid),
    /// read once and cached so a process sees one consistent seed even if
    /// the environment is mutated mid-run.
    pub fn env_seed() -> u64 {
        static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        *SEED.get_or_init(|| {
            std::env::var("CAKE_TEST_SEED")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0)
        })
    }
}

/// Property-test entry macro: same surface as `proptest::proptest!` for
/// plain `arg in strategy` parameter lists.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursive expansion of the test items inside [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::pick(&($strat), &mut __rng);)*
                let __outcome = std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(move || $body),
                );
                if let Err(__panic) = __outcome {
                    eprintln!(
                        "proptest shim: {} failed at case {} of {}; reproduce with \
                         CAKE_TEST_SEED={}",
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                        __cfg.cases,
                        $crate::test_runner::env_seed(),
                    );
                    std::panic::resume_unwind(__panic);
                }
            }
        }
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    (@cfg ($cfg:expr)) => {};
}

/// `prop_assert!` — no shrinking, so a plain `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!` — forwarded to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!` — forwarded to `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn explicit_seed_perturbs_the_stream_deterministically() {
        let mut base = crate::test_runner::TestRng::for_test_with_seed("x", 0);
        let mut same = crate::test_runner::TestRng::for_test_with_seed("x", 0);
        let mut other = crate::test_runner::TestRng::for_test_with_seed("x", 1234);
        assert_eq!(base.next_u64(), same.next_u64());
        assert_ne!(base.next_u64(), other.next_u64());
    }

    #[test]
    fn for_test_uses_the_env_seed() {
        // In a clean environment the cached seed is 0, so `for_test` and
        // the explicit-seed constructor agree; either way they must match
        // the process-wide cached value.
        let seed = crate::test_runner::env_seed();
        let mut a = crate::test_runner::TestRng::for_test("consistency");
        let mut b = crate::test_runner::TestRng::for_test_with_seed("consistency", seed);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn from_seed_is_a_raw_splitmix_stream() {
        let mut a = crate::test_runner::TestRng::from_seed(42);
        let mut b = crate::test_runner::TestRng::from_seed(42);
        let mut c = crate::test_runner::TestRng::from_seed(43);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        let mut c = crate::test_runner::TestRng::for_test("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = Strategy::pick(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::pick(&(0u64..5), &mut rng);
            assert!(w < 5);
            let i = Strategy::pick(&(-4i32..9), &mut rng);
            assert!((-4..9).contains(&i));
        }
    }

    #[test]
    fn select_draws_every_item_eventually() {
        let mut rng = crate::test_runner::TestRng::for_test("select");
        let s = crate::sample::select(vec![1usize, 2, 3]);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[Strategy::pick(&s, &mut rng) - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_samples_all_declared_args(
            a in 1usize..10,
            b in prop::sample::select(vec![2usize, 4]),
            flip in any::<bool>(),
        ) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b == 2 || b == 4);
            prop_assert_eq!(flip as u8 <= 1, true);
        }
    }
}
