//! Offline stand-in for `rand` 0.8.
//!
//! Provides the subset this workspace uses: [`rngs::StdRng`] (here a
//! xoshiro256++ generator — high quality, deterministic, and entirely
//! self-contained), [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_range`, and `gen_bool`.
//!
//! Determinism matters more than matching the real `rand`'s stream:
//! all simulator/workload seeds in this repository are internal, so the
//! only requirement is that the same seed reproduces the same run.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from their full domain
/// (the stand-in for `rand`'s `Standard` distribution).
pub trait Standard: Sized {
    /// Draw a uniform value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range called with empty range");
                let span = (hi as u128).wrapping_sub(lo as u128);
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform value over `T`'s full domain (`rng.gen::<f64>()` is
    /// uniform in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform integer in `[range.start, range.end)`.
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 seed expansion (the construction the xoshiro
            // authors recommend).
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn seed_42_matches_reference_xoshiro256plusplus() {
        // Known answers from an independent implementation of SplitMix64
        // seeding + xoshiro256++: every simulator seed and every fuzz
        // draw in the workspace rides on this stream, so a change to it
        // must be a decision, not an accident.
        let mut r = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8
            ]
        );
        // `gen_range` reduces the same words modulo the span.
        let mut r = StdRng::seed_from_u64(42);
        let ranged: Vec<u32> = (0..4).map(|_| r.gen_range(10u32..20)).collect();
        assert_eq!(ranged, [11, 13, 10, 14]);
    }

    #[test]
    fn gen_range_respects_degenerate_and_extreme_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(r.gen_range(7u64..8), 7, "a width-1 range has one value");
            assert_eq!(r.gen_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
            assert!((250u8..255).contains(&r.gen_range(250u8..255)));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.gen_range(0u32..10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }
}
