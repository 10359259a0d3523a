//! Offline stand-in for the `proptest` crate.
//!
//! Implements the generate-and-check core the workspace's property tests
//! use — [`Strategy`](strategy::Strategy) with `prop_map`,
//! range/tuple/`Just`/union strategies, `collection::vec`, `option::of`,
//! `sample::Index`, the `proptest!` /
//! `prop_assert*` / `prop_assume!` / `prop_oneof!` macros, and
//! [`test_runner::ProptestConfig`] — without shrinking. Case generation is
//! deterministic (seeded from the test name), so failures reproduce exactly.

/// The RNG that drives all generation.
pub type TestRng = rand::rngs::StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinator types.

    use super::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Produces random values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value *tree* and no shrinking: a
    /// strategy simply generates one value per case.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe mirror of [`Strategy`] used for type erasure.
    trait DynStrategy<T> {
        fn dyn_generate(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.dyn_generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between heterogeneous strategies of one value type
    /// (what `prop_oneof!` builds).
    pub struct Union<T> {
        members: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union from already-erased members; panics if empty.
        pub fn new(members: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!members.is_empty(), "prop_oneof! needs at least one arm");
            Union { members }
        }

        /// Erases one arm (helper for `prop_oneof!`).
        pub fn member<S>(s: S) -> BoxedStrategy<T>
        where
            S: Strategy<Value = T> + 'static,
        {
            s.boxed()
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.members.len());
            self.members[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
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
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// `&'static str` as a strategy: a tiny subset of proptest's
    /// string-regex support. `"\\PC{m,n}"` generates `m..=n` arbitrary
    /// printable (non-control) chars; any other literal generates itself.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_repeat_spec(self) {
                Some(("\\PC", lo, hi)) => {
                    let len = rng.gen_range(lo..=hi);
                    (0..len).map(|_| printable_char(rng)).collect()
                }
                _ => (*self).to_string(),
            }
        }
    }

    /// Splits `"<prefix>{m,n}"` into its parts.
    fn parse_repeat_spec(s: &str) -> Option<(&str, usize, usize)> {
        let body = s.strip_suffix('}')?;
        let brace = body.rfind('{')?;
        let (prefix, counts) = (&body[..brace], &body[brace + 1..]);
        let (lo, hi) = counts.split_once(',')?;
        Some((prefix, lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    /// An arbitrary non-control char, biased toward ASCII so the text
    /// still stresses real tokenizer paths.
    fn printable_char(rng: &mut TestRng) -> char {
        const EXOTIC: &[char] = &['é', 'µ', '→', '\u{00a0}', '≤', '∅', '😀', '中'];
        if rng.gen_bool(0.9) {
            char::from(rng.gen_range(0x20u8..0x7f))
        } else {
            EXOTIC[rng.gen_range(0..EXOTIC.len())]
        }
    }

    /// Strategy for [`any`](crate::arbitrary::any).
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait and [`any`].

    use super::strategy::Any;
    use super::TestRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            crate::sample::Index(rng.next_u64())
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for generated collections. Only `usize`
    /// ranges convert, which (as in real proptest) pins unsuffixed
    /// integer literals like `0..30` to `usize`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// `Vec` strategy: `size` picks the length, `element` fills it.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Strategy behind [`of`].
    pub struct OptionStrategy<S>(S);

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.gen_bool(0.75) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod sample {
    //! Sampling helpers.

    /// An arbitrary index into a collection whose length is only known at
    /// use time. Obtain via `any::<Index>()`, resolve with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// Maps this abstract index into `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod test_runner {
    //! Case loop, configuration, and failure plumbing.

    use super::TestRng;
    use rand::SeedableRng;

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases each test must pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case's inputs did not satisfy a `prop_assume!`; it is
        /// retried with fresh inputs, not counted as a failure.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A rejection (see [`TestCaseError::Reject`]).
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }

        /// A failure (see [`TestCaseError::Fail`]).
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    /// Result of one test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Drives one property: draws cases until `cfg.cases` are accepted,
    /// panicking on the first failure. Deterministically seeded from the
    /// test name so failures reproduce; setting `MFB_TEST_SEED=<u64>` in
    /// the environment mixes an extra seed in, letting CI run the same
    /// suite over several input streams (failures still reproduce by
    /// exporting the same value).
    pub fn run_proptest<F>(cfg: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> TestCaseResult,
    {
        let extra = std::env::var("MFB_TEST_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let mut rng = TestRng::seed_from_u64(
            fnv1a(name.as_bytes()) ^ extra.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut accepted = 0u32;
        let mut attempts = 0u64;
        let max_attempts = u64::from(cfg.cases).saturating_mul(20).max(200);
        while accepted < cfg.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "proptest `{name}`: gave up after {attempts} attempts \
                 ({accepted}/{} cases accepted — prop_assume! too strict?)",
                cfg.cases
            );
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest `{name}` failed (case {}): {msg}", accepted + 1)
                }
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat_param in $s:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(
                &$cfg,
                stringify!($name),
                |__proptest_rng| {
                    $(let $p = $crate::strategy::Strategy::generate(&($s), __proptest_rng);)+
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{}` == `{}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), __l, __r
        );
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

/// Discards the current case (retried with new inputs) when `cond` fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among strategies that share a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Union::member($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(
            n in 2usize..18,
            seed in any::<u64>(),
            pair in (1u32..4, -9.0f64..-4.0),
            v in crate::collection::vec(0u64..10, 0..20),
            opt in crate::option::of(1u32..5),
            idx in any::<crate::sample::Index>(),
            text in "\\PC{0,40}",
        ) {
            prop_assert!((2..18).contains(&n));
            let _ = seed;
            prop_assert!((1..4).contains(&pair.0));
            prop_assert!((-9.0..-4.0).contains(&pair.1));
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 10));
            if let Some(x) = opt {
                prop_assert!((1..5).contains(&x));
            }
            prop_assert_eq!(idx.index(1), 0);
            prop_assert!(idx.index(7) < 7);
            prop_assert!(text.chars().count() <= 40);
            prop_assert!(!text.chars().any(char::is_control));
        }

        #[test]
        fn oneof_and_assume(x in prop_oneof![Just(1u32), Just(2u32), 3u32..5]) {
            prop_assume!(x != 2);
            prop_assert!(x == 1 || (3..5).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_panic() {
        proptest! {
            fn inner(_x in 0u32..5) {
                prop_assert!(false, "deliberate");
            }
        }
        inner();
    }
}
