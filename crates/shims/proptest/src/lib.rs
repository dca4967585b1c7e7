//! Offline, API-compatible subset of the
//! [`proptest`](https://crates.io/crates/proptest) crate, vendored so the
//! workspace's property-test suites build and run without network access.
//!
//! Supported surface (exactly what the workspace uses):
//!
//! * the [`proptest!`] macro with `#![proptest_config(..)]`, `pat in strategy`
//!   and `name: Type` parameter forms;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`];
//! * [`Strategy`](strategy::Strategy) for integer and float ranges, tuples of
//!   strategies, `prop_map`;
//! * [`collection::vec`] and [`collection::btree_set`];
//! * [`test_runner::ProptestConfig`] (`cases`, `with_cases`, struct-update
//!   syntax) and [`test_runner::TestCaseError`].
//!
//! Failing cases are **shrunk** with a simple halving ladder before
//! being reported: numeric inputs halve toward their range start and
//! collections truncate toward their minimum size
//! ([`Strategy::shrink`](strategy::Strategy::shrink)), re-running the
//! test body after each step and keeping the smaller input while it
//! still fails. The panic message reports the case number, *the exact
//! RNG seed that generated the original failure*, and the minimized
//! input (`Debug`-rendered). Runs are fully deterministic per test name,
//! so re-running the test reproduces the failure — and setting
//! `HETRTA_PROPTEST_SEED=0x<seed>` (the value printed in the panic
//! message) re-runs **only** that failing case, which is the fast loop
//! for debugging a property violation. Shrinking is intentionally
//! simpler than upstream proptest's (no strategy-tree rewinding): one
//! candidate per step, at most 64 steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Produces one *smaller* candidate from a failing `value`, or
        /// `None` when no further shrink applies.
        ///
        /// The shim's minimizer walks this halving ladder: numeric
        /// ranges halve the value toward the range start, collection
        /// strategies truncate toward their minimum size, tuples shrink
        /// their first shrinkable component. Mapped strategies
        /// ([`Strategy::prop_map`]) cannot invert their closure and
        /// return `None` (the default).
        fn shrink(&self, _value: &Self::Value) -> Option<Self::Value> {
            None
        }

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
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

    /// Strategy producing a fixed value (upstream `Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Halves an integer value toward the range start (`i128` math like
    /// `generate`, so signed ranges cannot overflow).
    macro_rules! int_halve_toward {
        ($t:ty, $lo:expr, $value:expr) => {{
            let span = (*$value as i128).wrapping_sub($lo as i128);
            if span > 0 {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some((($lo as i128).wrapping_add(span / 2)) as $t)
            } else {
                None
            }
        }};
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let offset = u128::from(rng.next_u64()) % span;
                    ((self.start as i128).wrapping_add(offset as i128)) as $t
                }

                fn shrink(&self, value: &$t) -> Option<$t> {
                    int_halve_toward!($t, self.start, value)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128).wrapping_sub(lo as i128) as u128 + 1;
                    let offset = u128::from(rng.next_u64()) % span;
                    ((lo as i128).wrapping_add(offset as i128)) as $t
                }

                fn shrink(&self, value: &$t) -> Option<$t> {
                    int_halve_toward!($t, *self.start(), value)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

    /// Halves a float value toward the range start, stopping once the
    /// distance becomes negligible.
    macro_rules! float_halve_toward {
        ($t:ty, $lo:expr, $value:expr) => {{
            let distance = *$value - $lo;
            if distance.is_finite() && distance > 1e-9 {
                Some($lo + distance / 2.0)
            } else {
                None
            }
        }};
    }

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + (self.end - self.start) * rng.unit() as $t
                }

                fn shrink(&self, value: &$t) -> Option<$t> {
                    float_halve_toward!($t, self.start, value)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    lo + (hi - lo) * rng.unit() as $t
                }

                fn shrink(&self, value: &$t) -> Option<$t> {
                    float_halve_toward!($t, *self.start(), value)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    // Tuple strategies shrink component-wise (first shrinkable component
    // wins), which needs `Clone` values to rebuild the tuple — every
    // value type the shim supports is `Clone` anyway.
    macro_rules! tuple_strategy {
        ($(($name:ident, $idx:tt)),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+)
            where
                $($name::Value: Clone,)+
            {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }

                fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
                    $(
                        if let Some(candidate) = self.$idx.shrink(&value.$idx) {
                            let mut out = value.clone();
                            out.$idx = candidate;
                            return Some(out);
                        }
                    )+
                    None
                }
            }
        };
    }
    tuple_strategy!((A, 0));
    tuple_strategy!((A, 0), (B, 1));
    tuple_strategy!((A, 0), (B, 1), (C, 2));
    tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3));
    tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
    tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));
    tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6));
    tuple_strategy!(
        (A, 0),
        (B, 1),
        (C, 2),
        (D, 3),
        (E, 4),
        (F, 5),
        (G, 6),
        (H, 7)
    );

    /// Strategy for any [`Arbitrary`](crate::arbitrary::Arbitrary) type
    /// (upstream `any::<T>()`).
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(PhantomData)
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! Default value generation for plain types (the `name: Type` parameter
    //! form of [`proptest!`](crate::proptest)).

    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            u128::arbitrary(rng) as i128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit()
        }
    }

    impl Arbitrary for f32 {
        #[allow(clippy::cast_possible_truncation)]
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit() as f32
        }
    }

    /// Returns the whole-domain strategy for `T` (upstream `any::<T>()`).
    #[must_use]
    pub fn any<T: Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any::default()
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose length is uniform in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        /// Truncates toward the minimum length (half the excess per step).
        fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
            let min = self.size.start;
            if value.len() > min {
                Some(value[..min.max(value.len() / 2)].to_vec())
            } else {
                None
            }
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with *target* size drawn from
    /// `size` (duplicates collapse, as in upstream proptest).
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates ordered sets with up to `size.end - 1` elements from
    /// `element`.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord + Clone,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.clone().generate(rng);
            (0..target).map(|_| self.element.generate(rng)).collect()
        }

        /// Truncates (keeping the smallest elements) toward the minimum
        /// size, half the excess per step.
        fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
            let min = self.size.start;
            if value.len() > min {
                Some(
                    value
                        .iter()
                        .take(min.max(value.len() / 2))
                        .cloned()
                        .collect(),
                )
            } else {
                None
            }
        }
    }
}

pub mod test_runner {
    //! Case execution: configuration, RNG and failure reporting.

    /// Configuration for a [`proptest!`](crate::proptest) block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum number of [`prop_assume!`](crate::prop_assume) rejections
        /// tolerated before the test errors out.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_global_rejects: 4096,
            }
        }
    }

    impl ProptestConfig {
        /// A default configuration running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// An assertion failed; the case (and test) fails.
        Fail(String),
        /// The case's inputs were rejected by [`prop_assume!`](crate::prop_assume);
        /// another case is drawn instead.
        Reject(String),
    }

    impl TestCaseError {
        /// Creates a failure with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Creates a rejection with the given reason.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
            }
        }
    }

    /// Deterministic RNG driving strategy generation (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from an explicit seed.
        #[must_use]
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Returns a uniform `f64` in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Environment variable that pins the RNG seed: when set (hex with a
    /// `0x` prefix, or decimal), the runner executes exactly one case from
    /// that seed — the reproduction loop for a reported failure.
    pub const SEED_ENV: &str = "HETRTA_PROPTEST_SEED";

    fn parse_seed(text: &str) -> Option<u64> {
        let text = text.trim();
        match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => text.parse().ok(),
        }
    }

    /// Drives the cases of one property test.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
        name: &'static str,
        base_seed: u64,
        rejects: u32,
        seed_override: Option<u64>,
    }

    impl TestRunner {
        /// Creates a runner for the named test, honoring [`SEED_ENV`].
        ///
        /// # Panics
        ///
        /// Panics when [`SEED_ENV`] is set but unparseable — a silently
        /// ignored override would "reproduce" the wrong case.
        #[must_use]
        pub fn new(config: ProptestConfig, name: &'static str) -> Self {
            let seed_override = std::env::var(SEED_ENV).ok().map(|raw| {
                parse_seed(&raw).unwrap_or_else(|| panic!("unparseable {SEED_ENV} value `{raw}`"))
            });
            if let Some(seed) = seed_override {
                // The override is process-wide: every property test in
                // this run shrinks to one case. Say so per test, loudly,
                // so a forgotten export can't silently gut coverage.
                eprintln!(
                    "proptest `{name}`: {SEED_ENV}={seed:#018x} set — running 1 case \
                     from that seed instead of {}",
                    config.cases
                );
            }
            TestRunner::with_seed_override(config, name, seed_override)
        }

        /// Creates a runner with an explicit seed override (what
        /// [`SEED_ENV`] sets from the environment): `Some(seed)` runs
        /// exactly one case generated from `seed`.
        #[must_use]
        pub fn with_seed_override(
            config: ProptestConfig,
            name: &'static str,
            seed_override: Option<u64>,
        ) -> Self {
            // FNV-1a over the test name: deterministic per test, stable
            // across runs, decorrelated between tests.
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRunner {
                config,
                name,
                base_seed: seed,
                rejects: 0,
                seed_override,
            }
        }

        /// The test name this runner reports failures under.
        #[must_use]
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Number of successful cases required (one under a seed
        /// override).
        #[must_use]
        pub fn cases(&self) -> u32 {
            if self.seed_override.is_some() {
                1
            } else {
                self.config.cases
            }
        }

        /// The RNG seed driving the given case index — the value a
        /// failure report prints and [`SEED_ENV`] accepts back.
        #[must_use]
        pub fn seed_for_case(&self, case: u32) -> u64 {
            self.seed_override
                .unwrap_or_else(|| self.base_seed ^ (u64::from(case) << 32) ^ 0x5851_f42d_4c95_7f2d)
        }

        /// RNG for the given case index.
        #[must_use]
        pub fn rng_for_case(&self, case: u32) -> TestRng {
            TestRng::from_seed(self.seed_for_case(case))
        }

        /// Applies one case outcome; returns `true` if the case counts
        /// toward the required total.
        ///
        /// # Panics
        ///
        /// Panics (failing the enclosing `#[test]`) on
        /// [`TestCaseError::Fail`] or when the rejection budget is
        /// exhausted. The failure message includes the case's RNG seed,
        /// re-runnable in isolation via [`SEED_ENV`].
        pub fn process(&mut self, case: u32, outcome: Result<(), TestCaseError>) -> bool {
            match outcome {
                Ok(()) => true,
                Err(TestCaseError::Reject(_)) => {
                    self.rejects += 1;
                    assert!(
                        self.rejects <= self.config.max_global_rejects,
                        "proptest `{}`: too many prop_assume! rejections ({})",
                        self.name,
                        self.rejects,
                    );
                    false
                }
                Err(TestCaseError::Fail(reason)) => {
                    let seed = self.seed_for_case(case);
                    panic!(
                        "proptest `{}` failed at case {} with seed {:#018x} \
                         (re-run just this case with {}={:#018x}): {}",
                        self.name, case, seed, SEED_ENV, seed, reason
                    );
                }
            }
        }
    }

    /// Cap on halving-ladder steps: each step halves a numeric distance
    /// or a collection length, so 64 steps exhaust any practical input.
    const MAX_SHRINK_STEPS: u32 = 64;

    /// Drives the cases of one property test over `strategy`, feeding
    /// each generated value to `run` (the macro-wrapped test body) and
    /// minimizing failures through [`minimize_and_report`].
    ///
    /// This is what a [`proptest!`](crate::proptest) test function
    /// expands into — keeping the loop generic over the strategy (rather
    /// than expanded inline) is what pins the closure's input type to
    /// `S::Value` for inference, and it keeps the shrink machinery out
    /// of every macro expansion.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing `#[test]`) when a case fails or the
    /// `prop_assume!` rejection budget is exhausted.
    pub fn run_proptest<S, F>(config: ProptestConfig, name: &'static str, strategy: S, mut run: F)
    where
        S: crate::strategy::Strategy,
        S::Value: Clone + std::fmt::Debug,
        F: FnMut(&S::Value) -> Result<(), TestCaseError>,
    {
        let mut runner = TestRunner::new(config, name);
        let mut accepted: u32 = 0;
        let mut case: u32 = 0;
        while accepted < runner.cases() {
            let mut rng = runner.rng_for_case(case);
            let value = strategy.generate(&mut rng);
            match run(&value) {
                Err(TestCaseError::Fail(reason)) => {
                    minimize_and_report(&runner, case, &strategy, value, reason, &mut run);
                }
                outcome => {
                    if runner.process(case, outcome) {
                        accepted += 1;
                    }
                }
            }
            case += 1;
        }
    }

    /// Minimizes a failing case along the strategy's halving ladder
    /// ([`Strategy::shrink`](crate::strategy::Strategy::shrink)), then
    /// panics with the original case's replay seed *and* the minimized
    /// input.
    ///
    /// Each shrink candidate re-runs the test body; a candidate that
    /// still fails becomes the new current value (and its failure reason
    /// the reported one), a candidate that passes, is rejected by
    /// `prop_assume!`, or *panics* (shrunk inputs can take code paths the
    /// generator never produced — those panics are contained, not
    /// propagated, so the original failure's report is never lost) ends
    /// the ladder. Called by the [`proptest!`](crate::proptest!) macro expansion; not part
    /// of the upstream-compatible surface.
    ///
    /// # Panics
    ///
    /// Always — this *is* the failure report.
    pub fn minimize_and_report<S: crate::strategy::Strategy>(
        runner: &TestRunner,
        case: u32,
        strategy: &S,
        value: S::Value,
        reason: String,
        run: &mut dyn FnMut(&S::Value) -> Result<(), TestCaseError>,
    ) -> !
    where
        S::Value: std::fmt::Debug,
    {
        let mut value = value;
        let mut reason = reason;
        let mut steps = 0u32;
        while steps < MAX_SHRINK_STEPS {
            let Some(candidate) = strategy.shrink(&value) else {
                break;
            };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&candidate)));
            match outcome {
                Ok(Err(TestCaseError::Fail(smaller_reason))) => {
                    value = candidate;
                    reason = smaller_reason;
                    steps += 1;
                }
                // Passed, rejected, or panicked on the shrunk input:
                // keep the last value known to fail *this* property.
                _ => break,
            }
        }
        let seed = runner.seed_for_case(case);
        panic!(
            "proptest `{}` failed at case {} with seed {:#018x} \
             (re-run just this case with {}={:#018x}): {}\n\
             minimized input after {} shrink step(s): {:?}",
            runner.name(),
            case,
            seed,
            SEED_ENV,
            seed,
            reason,
            steps,
            value
        );
    }
}

pub mod prelude {
    //! One-stop import for property tests, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests.
///
/// Supports an optional leading `#![proptest_config(EXPR)]`, then any number
/// of `#[test] fn name(args) { body }` items where each argument is either
/// `pat in strategy` or `name: Type`.
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

/// Internal: expands the test functions of a [`proptest!`] block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$attr:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            $crate::__proptest_case! { ($cfg); $name; [] []; { $($params)* } $body }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

/// Internal: munches the parameter list of one `proptest!` test into a
/// parenthesized-pattern list and a strategy list (the `name: Type` form
/// desugars to `name in any::<Type>()`), then emits the runner loop over
/// the combined tuple strategy — which is what lets the minimizer re-run
/// the body on shrunk inputs.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // `pat in strategy` parameter, more to come.
    (($cfg:expr); $name:ident; [$($pats:tt)*] [$($strats:tt)*];
     { $pat:pat_param in $strat:expr, $($rest:tt)* } $body:block) => {
        $crate::__proptest_case! {
            ($cfg); $name; [$($pats)* ($pat)] [$($strats)* ($strat)]; { $($rest)* } $body
        }
    };
    // `pat in strategy`, final parameter (no trailing comma).
    (($cfg:expr); $name:ident; [$($pats:tt)*] [$($strats:tt)*];
     { $pat:pat_param in $strat:expr } $body:block) => {
        $crate::__proptest_case! {
            ($cfg); $name; [$($pats)* ($pat)] [$($strats)* ($strat)]; {} $body
        }
    };
    // `name: Type` parameter, more to come.
    (($cfg:expr); $name:ident; [$($pats:tt)*] [$($strats:tt)*];
     { $param:ident : $ty:ty, $($rest:tt)* } $body:block) => {
        $crate::__proptest_case! {
            ($cfg); $name;
            [$($pats)* ($param)] [$($strats)* ($crate::arbitrary::any::<$ty>())];
            { $($rest)* } $body
        }
    };
    // `name: Type`, final parameter.
    (($cfg:expr); $name:ident; [$($pats:tt)*] [$($strats:tt)*];
     { $param:ident : $ty:ty } $body:block) => {
        $crate::__proptest_case! {
            ($cfg); $name;
            [$($pats)* ($param)] [$($strats)* ($crate::arbitrary::any::<$ty>())];
            {} $body
        }
    };
    // Every parameter munched: run the generic case driver over the
    // combined tuple strategy.
    (($cfg:expr); $name:ident; [$(($pat:pat_param))+] [$(($strat:expr))+]; {} $body:block) => {
        $crate::test_runner::run_proptest(
            $cfg,
            stringify!($name),
            ($($strat,)+),
            |__proptest_input| {
                let ($($pat,)+) = ::std::clone::Clone::clone(__proptest_input);
                $body
                ::std::result::Result::Ok(())
            },
        )
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?} != {:?}`",
                left, right
            )));
        }
    }};
}

/// Rejects the current case (drawing a fresh one) unless the condition
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)+),
            ));
        }
    };
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 1u64..10, (a, b) in (0i32..5, 0.0f64..1.0)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0..5).contains(&a));
            prop_assert!((0.0..1.0).contains(&b), "b = {}", b);
        }

        #[test]
        fn typed_params_and_assume(seed: u64, flag: bool) {
            prop_assume!(seed.is_multiple_of(2) || !flag);
            prop_assert_eq!(seed.is_multiple_of(2) || !flag, true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mapped_and_collections(
            v in crate::collection::vec(0u8..10, 1..5),
            s in crate::collection::btree_set(0usize..100, 0..10),
            doubled in (1u32..50).prop_map(|x| x * 2),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(s.len() < 10);
            prop_assert_eq!(doubled % 2, 0);
            prop_assert_ne!(doubled, 1);
        }
    }

    proptest! {
        fn always_fails_inner(x in 0u64..10) {
            prop_assert!(x > 100);
        }
    }

    #[test]
    #[should_panic(expected = "with seed 0x")]
    fn failures_panic_with_the_rng_seed() {
        always_fails_inner();
    }

    proptest! {
        fn shrink_numeric_inner(x in 0u64..1000) {
            prop_assert!(x < 1);
        }

        fn shrink_vec_inner(v in crate::collection::vec(0u8..10, 0..20)) {
            prop_assert!(v.is_empty());
        }
    }

    fn panic_text(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("property must fail");
        payload
            .downcast_ref::<String>()
            .expect("panic carries a String")
            .clone()
    }

    #[test]
    fn numeric_failures_minimize_to_the_boundary() {
        // `x < 1` fails for every x ≥ 1; the halving ladder bottoms out
        // at exactly 1 (its shrink, 0, passes), whatever the original
        // failing value was.
        let text = panic_text(shrink_numeric_inner);
        assert!(text.contains("minimized input after"), "{text}");
        assert!(text.contains("(1,)"), "{text}");
        // The replay seed is still reported alongside.
        assert!(text.contains("HETRTA_PROPTEST_SEED"), "{text}");
    }

    proptest! {
        fn shrink_panicking_candidate_inner(x in 0u64..1000) {
            // Plain `assert!` (a hard panic, not a TestCaseError) on a
            // value the halving ladder reaches while minimizing the
            // `prop_assert!` failure below.
            assert!(x != 1, "boom");
            prop_assert!(x == 0);
        }
    }

    #[test]
    fn panicking_shrink_candidates_do_not_lose_the_report() {
        // The ladder bottoms out against the panicking candidate (x = 1):
        // the panic is contained, the last value known to fail the
        // property is reported, and the replay seed survives.
        let text = panic_text(shrink_panicking_candidate_inner);
        assert!(text.contains("with seed 0x"), "{text}");
        assert!(text.contains("minimized input"), "{text}");
        assert!(
            !text.contains("boom"),
            "shrink-candidate panic must be contained: {text}"
        );
    }

    #[test]
    fn collection_failures_truncate_to_one_element() {
        // `v.is_empty()` fails for every non-empty vector; truncation
        // bottoms out at a single element.
        let text = panic_text(shrink_vec_inner);
        assert!(text.contains("minimized input after"), "{text}");
        let minimized = text.split("minimized input").nth(1).expect("report tail");
        assert_eq!(
            minimized.matches(',').count(),
            1,
            "single-element vec in a 1-tuple: {text}"
        );
    }

    #[test]
    fn determinism_across_runners() {
        let r1 = crate::test_runner::TestRunner::new(ProptestConfig::default(), "same");
        let r2 = crate::test_runner::TestRunner::new(ProptestConfig::default(), "same");
        for case in 0..8 {
            assert_eq!(
                r1.rng_for_case(case).next_u64(),
                r2.rng_for_case(case).next_u64()
            );
        }
    }

    #[test]
    fn reported_seed_reruns_the_exact_failing_case() {
        use crate::test_runner::TestRunner;
        // A "failure" at case 5 of some run: the reported seed, fed back
        // as an override, regenerates the identical inputs in one case.
        let original = TestRunner::new(ProptestConfig::default(), "repro");
        let reported = original.seed_for_case(5);
        let replay =
            TestRunner::with_seed_override(ProptestConfig::default(), "repro", Some(reported));
        assert_eq!(replay.cases(), 1, "override runs exactly one case");
        assert_eq!(replay.seed_for_case(0), reported);
        assert_eq!(
            replay.rng_for_case(0).next_u64(),
            original.rng_for_case(5).next_u64(),
            "the replayed case draws the same values"
        );
        // And the failure message of the replay names the same seed.
        let mut replay =
            TestRunner::with_seed_override(ProptestConfig::default(), "repro", Some(reported));
        let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay.process(0, Err(crate::test_runner::TestCaseError::fail("boom")));
        }))
        .unwrap_err();
        let text = message
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(text.contains(&format!("{reported:#018x}")), "{text}");
        assert!(text.contains("HETRTA_PROPTEST_SEED"), "{text}");
    }
}
