//! Minimal, dependency-free stand-in for the crates.io `rand` crate (0.8 API).
//!
//! This build environment has no registry access, so the workspace vendors
//! the exact subset of the `rand` API it uses: [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], [`Rng::gen`] / [`Rng::gen_range`] / [`Rng::gen_bool`],
//! and [`seq::SliceRandom::shuffle`]. The generator is xoshiro256**
//! (Blackman & Vigna) seeded through SplitMix64 — deterministic for a fixed
//! seed, statistically solid for Monte Carlo estimation, and *not*
//! cryptographic (neither is upstream `StdRng` for our purposes).
//!
//! Streams differ from upstream `rand`, so seeds reproduce runs only within
//! this workspace. Swap `rand = { path = ... }` for `rand = "0.8"` in the
//! workspace manifest to return to the real crate.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Create a generator from a `u64` seed, expanded via SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing generator methods (subset of `rand::Rng`).
pub trait Rng {
    /// The raw 64-bit output this stub builds everything else from.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample of `T` (only `f64` in `[0, 1)` is supported).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self.next_u64())
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`. Panics outside `[0, 1]`, like upstream.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        self.gen::<f64>() < p
    }
}

/// Types producible from one raw `u64` (stands in for `Standard: Distribution<T>`).
pub trait Standard: Sized {
    fn sample(bits: u64) -> Self;
}

impl Standard for f64 {
    /// 53 random mantissa bits, uniform in `[0, 1)`.
    fn sample(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a uniform sample can be drawn from (stands in for
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        // gen::<f64>() is in [0, 1); stretch by one ULP-ish step so `hi` is
        // reachable, then clamp. Bias is negligible for our workloads.
        (lo + (hi - lo) * rng.gen::<f64>() * (1.0 + f64::EPSILON)).min(hi)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** — stand-in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as rand_core does for integer seeds.
            let mut sm = state;
            let mut next = move || {
                sm = sm.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice shuffling (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        /// Fisher–Yates.
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_float_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn int_ranges_hit_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0..6usize)] = true;
            let v = rng.gen_range(1..=5i64);
            assert!((1..=5).contains(&v));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inclusive_float_range_stays_inside() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let p = rng.gen_range(0.0..=0.3f64);
            assert!((0.0..=0.3).contains(&p));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.8)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.8).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }
}
