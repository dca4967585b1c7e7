//! Offline, API-compatible subset of the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 line), vendored so the workspace builds without network access.
//!
//! Only the surface the workspace actually uses is provided:
//!
//! * [`Rng`] — `gen`, `gen_range` (half-open and inclusive integer and float
//!   ranges), `gen_bool`;
//! * [`SeedableRng::seed_from_u64`];
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator;
//! * [`distributions`] — the [`Distribution`](distributions::Distribution)
//!   trait and two samplers that set up once what a repeated draw needs:
//!   [`Uniform`](distributions::Uniform) over an integer range and
//!   [`Bernoulli`](distributions::Bernoulli).
//!
//! The generator is *not* the upstream ChaCha12 `StdRng`, so absolute random
//! streams differ from crates.io `rand`; everything in this workspace only
//! relies on determinism and statistical quality, both of which hold.
//! Integer `gen_range` uses a modulo reduction whose bias is at most
//! `span / 2^64` — negligible for the experiment-scale spans used here.
//!
//! `Uniform` and `Bernoulli` return exactly what `gen_range` and `gen_bool`
//! return for the same range or probability, draw for draw. That is on
//! purpose: upstream's `Uniform` is a widening-multiply rejection sampler,
//! which would change every value this workspace has ever generated (and
//! every cache key derived from one). What they save is time: `Uniform`
//! replaces the modulo's division with the precomputed-multiplier remainder
//! of Lemire, Kaser and Kurz ("Faster Remainder by Direct Computation:
//! Applications to Compilers and Software Libraries", Software: Practice
//! and Experience 49(6), 2019), and `Bernoulli` compares the draw's 53
//! mantissa bits against an integer threshold instead of going through
//! `f64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

use distributions::SampleUniform;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (unit interval for floats, full range for integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// An integer range maps one 64-bit word `x` to `lo + x mod span`. For
    /// many draws from one range, [`Uniform`](distributions::Uniform)
    /// returns the same values without a division per draw.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`: exactly when the [`f64`] that
    /// [`gen`](Rng::gen) would draw is below `p`. For many draws at one
    /// `p`, [`Bernoulli`](distributions::Bernoulli) returns the same
    /// values with an integer comparison.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a standard distribution for [`Rng::gen`].
pub trait Standard: Sized {
    /// Samples one value from the standard distribution of `Self`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for i128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample_standard(rng) as i128
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples uniformly from `self`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        let span = T::distance(self.start, self.end);
        self.start.offset(rng.next_u64() % span)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        // `hi - lo + 1` wraps to 0 only for a full 64-bit range, which
        // every word already lies in.
        match T::distance(lo, hi).wrapping_add(1) {
            0 => lo.offset(rng.next_u64()),
            span => lo.offset(rng.next_u64() % span),
        }
    }
}

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// seeded through SplitMix64.
    ///
    /// Not the crates.io `StdRng` (ChaCha12); see the crate docs.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Samplers, mirroring `rand::distributions`.
///
/// A sampler does once the work a repeated draw would otherwise redo, and
/// each of its samples consumes one 64-bit word, as the matching [`Rng`]
/// method does. The two return the same value for the same word (see the
/// crate docs for why that mapping is kept rather than upstream's).
///
/// ```
/// use rand::distributions::{Bernoulli, Distribution, Uniform};
/// use rand::{rngs::StdRng, Rng, SeedableRng};
///
/// let wcet = Uniform::new_inclusive(1u64, 100);
/// let coin = Bernoulli::new(0.5).expect("p lies in [0, 1]");
/// let mut a = StdRng::seed_from_u64(7);
/// let mut b = a.clone();
/// for _ in 0..100 {
///     assert_eq!(wcet.sample(&mut a), b.gen_range(1u64..=100));
///     assert_eq!(coin.sample(&mut a), b.gen_bool(0.5));
/// }
/// ```
pub mod distributions {
    use std::fmt;

    use super::Rng;

    /// Types that sample values of `T`, mirroring
    /// `rand::distributions::Distribution`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Integer types [`Uniform`] and `gen_range` sample.
    pub trait SampleUniform: Copy + PartialOrd {
        /// `high − low` modulo 2^64, for `low ≤ high`.
        #[doc(hidden)]
        fn distance(low: Self, high: Self) -> u64;

        /// `self + by`, wrapping in `Self`.
        #[doc(hidden)]
        #[must_use]
        fn offset(self, by: u64) -> Self;
    }

    macro_rules! impl_sample_uniform {
        ($($t:ty => $unsigned:ty),*) => {$(
            impl SampleUniform for $t {
                fn distance(low: Self, high: Self) -> u64 {
                    (high as $unsigned).wrapping_sub(low as $unsigned) as u64
                }

                #[allow(clippy::cast_possible_truncation)]
                fn offset(self, by: u64) -> Self {
                    self.wrapping_add(by as $t)
                }
            }
        )*};
    }
    impl_sample_uniform!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
    );

    /// Uniform integers from a fixed range: `gen_range` over that range,
    /// with the divisor's work done once.
    ///
    /// Both map a word `x` to `low + x mod span`. `Uniform` computes the
    /// remainder with a multiplier `M = ⌊(2^128 − 1) / span⌋ + 1` set up
    /// in the constructor: the remainder is the top 64 bits of
    /// `(M·x mod 2^128)·span` (Lemire, Kaser and Kurz 2019), a few
    /// multiplications instead of a division. Setting `M` up costs a
    /// 128-bit division, so a single draw is cheaper through `gen_range`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Uniform<X> {
        low: X,
        /// `high − low + 1`; 0 stands for a full 64-bit range (2^64).
        span: u64,
        /// Lemire's `M` for `span` (unused when `span` is 0).
        multiplier: u128,
    }

    impl<X: SampleUniform> Uniform<X> {
        /// Samples from `low..high`.
        ///
        /// # Panics
        ///
        /// Panics if `low >= high`.
        #[must_use]
        pub fn new(low: X, high: X) -> Self {
            assert!(low < high, "Uniform::new called with `low >= high`");
            Uniform::with_span(low, X::distance(low, high))
        }

        /// Samples from `low..=high`.
        ///
        /// # Panics
        ///
        /// Panics if `low > high`.
        #[must_use]
        pub fn new_inclusive(low: X, high: X) -> Self {
            assert!(
                low <= high,
                "Uniform::new_inclusive called with `low > high`"
            );
            Uniform::with_span(low, X::distance(low, high).wrapping_add(1))
        }

        fn with_span(low: X, span: u64) -> Self {
            // At span 1, M = 2^128 wraps to 0, and every remainder is 0.
            let multiplier = match span {
                0 => 0,
                _ => (u128::MAX / u128::from(span)).wrapping_add(1),
            };
            Uniform {
                low,
                span,
                multiplier,
            }
        }
    }

    impl<X: SampleUniform> Distribution<X> for Uniform<X> {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> X {
            let word = rng.next_u64();
            match self.span {
                0 => self.low.offset(word),
                span => self.low.offset(fast_remainder(word, self.multiplier, span)),
            }
        }
    }

    /// `word % span`, given `multiplier = ⌊(2^128 − 1) / span⌋ + 1`
    /// (wrapped to 0 at span 1): the top 64 bits of the 192-bit product
    /// `(multiplier·word mod 2^128)·span`. Exact for every 64-bit `word`
    /// and every `span ≥ 1` (Lemire, Kaser and Kurz 2019, with 128-bit
    /// multipliers for 64-bit operands).
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn fast_remainder(word: u64, multiplier: u128, span: u64) -> u64 {
        let fraction = multiplier.wrapping_mul(u128::from(word));
        let span = u128::from(span);
        let high = (fraction >> 64) * span;
        let low = (fraction & u128::from(u64::MAX)) * span;
        ((high + (low >> 64)) >> 64) as u64
    }

    /// `true` with a fixed probability `p`: `gen_bool(p)`, with the
    /// comparison set up once.
    ///
    /// `gen_bool` draws `u = x >> 11`, the 53 mantissa bits of a unit
    /// float `u·2^-53`, and tests `u·2^-53 < p`. Scaling by a power of two
    /// is exact, so that is `u < p·2^53`, and for an integer `u` it is
    /// `u < ⌈p·2^53⌉`: one integer comparison against a threshold the
    /// constructor computes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Bernoulli {
        /// `⌈p·2^53⌉`, in `[0, 2^53]`.
        threshold: u64,
    }

    impl Bernoulli {
        /// A coin that lands `true` with probability `p`.
        ///
        /// # Errors
        ///
        /// [`BernoulliError::InvalidProbability`] unless `p` lies in
        /// `[0, 1]`.
        #[allow(clippy::cast_possible_truncation)]
        pub fn new(p: f64) -> Result<Bernoulli, BernoulliError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(BernoulliError::InvalidProbability);
            }
            let scale = (1u64 << 53) as f64;
            Ok(Bernoulli {
                threshold: (p * scale).ceil() as u64,
            })
        }
    }

    impl Distribution<bool> for Bernoulli {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u64() >> 11) < self.threshold
        }
    }

    /// Why [`Bernoulli::new`] refused a probability.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BernoulliError {
        /// `p` is NaN or outside `[0, 1]`.
        InvalidProbability,
    }

    impl fmt::Display for BernoulliError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("probability outside [0, 1]")
        }
    }

    impl std::error::Error for BernoulliError {}
}

pub use rngs::StdRng as DefaultRng;

#[cfg(test)]
mod tests {
    use super::distributions::{fast_remainder, Bernoulli, Distribution, Uniform};
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..=5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
            let w = rng.gen_range(-4i64..4);
            assert!((-4..4).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn usable_through_unsized_refs() {
        fn takes_dyn<R: super::Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..10)
        }
        let mut rng = StdRng::seed_from_u64(2);
        assert!(takes_dyn(&mut rng) < 10);
    }
    /// FNV-1a (one 64-bit word per step) over the first 32 draws from
    /// each of the seeds 0 to 4.
    fn stream_digest(mut draw: impl FnMut(&mut StdRng) -> u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                h = (h ^ draw(&mut rng)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `gen_bool(p)` over the first 32 draws from each of the seeds 0 to
    /// 4, one bit per draw (draw `i` in bit `i`).
    fn coin_bits(p: f64) -> [u32; 5] {
        let mut out = [0u32; 5];
        for (seed, bits) in (0u64..).zip(&mut out) {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..32 {
                *bits |= u32::from(rng.gen_bool(p)) << i;
            }
        }
        out
    }

    macro_rules! assert_streams {
        ($($range:expr => $digest:expr,)*) => {$(
            let got = stream_digest(|rng| rng.gen_range($range) as u64);
            assert_eq!(got, $digest, "gen_range({}) changed its stream", stringify!($range));
        )*};
    }

    #[test]
    fn integer_ranges_keep_their_streams() {
        // Captured before `gen_range` reduced in `u64` (it took a 128-bit
        // remainder); NFJ WCETs draw `1..=100` and branch counts `2..=8`.
        assert_streams!(
            5u8..6 => 0xe1ba_6240_8298_9245,
            200u8..=200 => 0x4bca_9370_cdee_53a5,
            0u8..7 => 0x8f56_06ba_3369_2a22,
            10u8..=16 => 0x8a24_0910_2361_1a52,
            0u8..100 => 0x454e_a626_143a_951a,
            1u8..=100 => 0x37b5_5e4c_5bd4_5584,
            0u8..=255 => 0x9a1c_f072_abe3_e796,
            5u32..6 => 0xe1ba_6240_8298_9245,
            9u32..=9 => 0xc090_e68c_4f0d_e845,
            0u32..7 => 0x8f56_06ba_3369_2a22,
            10u32..=16 => 0x8a24_0910_2361_1a52,
            0u32..100 => 0x454e_a626_143a_951a,
            1u32..=100 => 0x37b5_5e4c_5bd4_5584,
            0u32..=u32::MAX => 0xa80b_e62d_12ca_4096,
            5u64..6 => 0xe1ba_6240_8298_9245,
            9u64..=9 => 0xc090_e68c_4f0d_e845,
            0u64..7 => 0x8f56_06ba_3369_2a22,
            10u64..=16 => 0x8a24_0910_2361_1a52,
            0u64..100 => 0x454e_a626_143a_951a,
            1u64..=100 => 0x37b5_5e4c_5bd4_5584,
            0u64..=(1 << 63) => 0xb0ba_7760_104f_d77b,
            (1u64 << 63)..u64::MAX => 0xda19_0b30_033c_c47d,
            0u64..u64::MAX => 0xf262_dc5f_12ca_4096,
            1u64..=u64::MAX => 0x41fd_f038_7f67_2d50,
            0u64..=u64::MAX => 0xf262_dc5f_12ca_4096,
            5usize..6 => 0xe1ba_6240_8298_9245,
            9usize..=9 => 0xc090_e68c_4f0d_e845,
            0usize..7 => 0x8f56_06ba_3369_2a22,
            2usize..=8 => 0xca7d_7985_95d9_26c2,
            0usize..100 => 0x454e_a626_143a_951a,
            1usize..=100 => 0x37b5_5e4c_5bd4_5584,
            0usize..=(1 << 63) => 0xb0ba_7760_104f_d77b,
            1usize..usize::MAX => 0x41fd_f038_7f67_2d50,
            0usize..usize::MAX => 0xf262_dc5f_12ca_4096,
            0usize..=usize::MAX => 0xf262_dc5f_12ca_4096,
            -5i64..-4 => 0xe725_f9db_c0e7_8505,
            9i64..=9 => 0xc090_e68c_4f0d_e845,
            -3i64..4 => 0xb0db_151e_de76_e924,
            10i64..=16 => 0x8a24_0910_2361_1a52,
            -50i64..50 => 0x6096_d141_e6d7_a30a,
            1i64..=100 => 0x37b5_5e4c_5bd4_5584,
            i64::MIN..=0 => 0xb0ba_7760_104f_d77b,
            -1i64..=i64::MAX => 0x23c6_e653_121b_692b,
            i64::MIN..i64::MAX => 0xf262_dc5f_12ca_4096,
            (i64::MIN + 1)..=i64::MAX => 0x41fd_f038_7f67_2d50,
            i64::MIN..=i64::MAX => 0xf262_dc5f_12ca_4096,
        );
        // And a few draws in the clear: the first WCETs of seed 0.
        let mut rng = StdRng::seed_from_u64(0);
        let wcets: Vec<u64> = (0..8).map(|_| rng.gen_range(1..=100)).collect();
        assert_eq!(wcets, [4, 56, 81, 31, 75, 59, 7, 54]);
    }

    #[test]
    fn gen_bool_keeps_its_streams() {
        // Captured while `gen_bool` compared an `f64` draw against `p`.
        let pins: [(f64, [u32; 5]); 7] = [
            (0.0, [0; 5]),
            (1e-300, [0; 5]),
            (
                0.45,
                [
                    0xe7fe_ff2f,
                    0x05d0_fb14,
                    0x1f0e_0048,
                    0xb0f1_5a61,
                    0x0241_4714,
                ],
            ),
            (
                0.5,
                [
                    0xe7fe_ff3f,
                    0x05d2_fb14,
                    0x1f0e_8158,
                    0xb0f1_fa61,
                    0x0271_4714,
                ],
            ),
            (
                0.85,
                [
                    0xefff_ffbf,
                    0xf7fb_fbbf,
                    0x5fff_9dff,
                    0xbbff_fffb,
                    0x72fd_ff7f,
                ],
            ),
            (1.0 - f64::EPSILON / 2.0, [u32::MAX; 5]),
            (1.0, [u32::MAX; 5]),
        ];
        for (p, bits) in pins {
            assert_eq!(coin_bits(p), bits, "gen_bool({p:e}) changed its stream");
        }
    }

    /// Replays one fixed word per call.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn bernoulli_threshold_equals_the_float_comparison_at_its_edges() {
        let unit = |word: u64| (word >> 11) as f64 / (1u64 << 53) as f64;
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = vec![0.0, 1e-300, f64::MIN_POSITIVE, 0.45, 0.5, 0.85, 1.0];
        ps.push(1.0 - f64::EPSILON / 2.0);
        ps.extend((0..2_000).map(|_| rng.gen::<f64>()));
        for p in ps {
            let coin = Bernoulli::new(p).expect("p lies in [0, 1]");
            // The mantissa draws on both sides of p·2^53, plus the ends.
            let edge = (p * (1u64 << 53) as f64) as u64;
            let mantissas = [0, 1, edge.saturating_sub(1), edge, edge + 1, (1 << 53) - 1];
            for mantissa in mantissas.into_iter().filter(|&m| m < 1 << 53) {
                for low_bits in [0, 0x7ff] {
                    let word = (mantissa << 11) | low_bits;
                    assert_eq!(
                        coin.sample(&mut Word(word)),
                        unit(word) < p,
                        "p = {p:e}, word {word:#x}"
                    );
                }
            }
        }
        assert!(Bernoulli::new(f64::NAN).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.0 + f64::EPSILON).is_err());
    }

    #[test]
    fn samplers_equal_the_one_shot_methods_draw_for_draw() {
        for seed in 0..16 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            let wcet = Uniform::new_inclusive(1u64, 100);
            let branches = Uniform::new_inclusive(2usize, 8);
            let signed = Uniform::new(-50i64, 50);
            let byte = Uniform::new_inclusive(0u8, 255);
            let full = Uniform::new_inclusive(i64::MIN, i64::MAX);
            let wide = Uniform::new(0u64, u64::MAX);
            let half = Uniform::new_inclusive(0u64, 1 << 63);
            let one = Uniform::new(7u32, 8);
            let p = a.gen::<f64>();
            b.gen::<f64>();
            let coin = Bernoulli::new(p).expect("p lies in [0, 1]");
            for _ in 0..500 {
                assert_eq!(wcet.sample(&mut a), b.gen_range(1u64..=100));
                assert_eq!(branches.sample(&mut a), b.gen_range(2usize..=8));
                assert_eq!(signed.sample(&mut a), b.gen_range(-50i64..50));
                assert_eq!(byte.sample(&mut a), b.gen_range(0u8..=255));
                assert_eq!(full.sample(&mut a), b.gen_range(i64::MIN..=i64::MAX));
                assert_eq!(wide.sample(&mut a), b.gen_range(0u64..u64::MAX));
                assert_eq!(half.sample(&mut a), b.gen_range(0u64..=1 << 63));
                assert_eq!(one.sample(&mut a), b.gen_range(7u32..8));
                assert_eq!(coin.sample(&mut a), b.gen_bool(p));
            }
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}: streams diverged");
        }
    }

    #[test]
    fn fast_remainder_equals_the_hardware_remainder() {
        let multiplier = |span: u64| (u128::MAX / u128::from(span)).wrapping_add(1);
        let mut rng = StdRng::seed_from_u64(11);
        let mut spans = vec![1, 2, 3, 7, 100, u64::from(u32::MAX), 1 << 32, (1 << 32) + 1];
        spans.extend([
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ]);
        spans.extend((0..64).map(|bit| 1u64 << bit));
        spans.extend((0..64).map(|bit| (1u64 << bit) - 1).filter(|&s| s > 0));
        spans.extend((0..200).map(|_| rng.next_u64()));
        spans.extend(
            (0..200)
                .map(|_| rng.next_u64() >> (rng.next_u64() % 64))
                .filter(|&s| s > 0),
        );
        for span in spans {
            let m = multiplier(span);
            let mut words = vec![
                0,
                1,
                span - 1,
                span,
                span.wrapping_add(1),
                u64::MAX,
                u64::MAX - 1,
            ];
            words.extend([span.wrapping_mul(2), span.wrapping_mul(2).wrapping_sub(1)]);
            words.extend((0..500).map(|_| rng.next_u64()));
            for word in words {
                assert_eq!(
                    fast_remainder(word, m, span),
                    word % span,
                    "{word} mod {span}"
                );
            }
        }
    }

    #[test]
    fn uniform_rejects_empty_ranges() {
        assert!(std::panic::catch_unwind(|| Uniform::new(3u8, 3)).is_err());
        assert!(std::panic::catch_unwind(|| Uniform::new_inclusive(4i64, 3)).is_err());
        let point = Uniform::new_inclusive(3u8, 3);
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..50).all(|_| point.sample(&mut rng) == 3));
    }
}
