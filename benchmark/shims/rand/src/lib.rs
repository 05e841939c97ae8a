//! API-subset stand-in for `rand` 0.8.
//!
//! The build container has no crate registry, and the repo reaches
//! `rand` only through `crates/net/src/rng.rs`. This shim covers that
//! surface plus what the repo could plausibly grow into: `SmallRng`
//! (xoshiro256++ seeded through splitmix64, as rand 0.8 does on 64-bit
//! targets), `RngCore`, `SeedableRng::seed_from_u64`, `Rng::{gen,
//! gen_range, gen_bool}` and `SliceRandom::{choose, choose_multiple,
//! shuffle}`. The sampling algorithms follow rand's (widening-multiply
//! rejection for integer ranges, Floyd / partial Fisher–Yates for
//! `choose_multiple`) so costs have the same shape, but the benchmark's
//! absolute `net.rng.*` numbers are the shim's; they are constant across
//! commits of the repo.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait StandardSample {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can draw uniformly between two bounds.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// Uniform in `[0, range)` by widening multiply with rejection; a
/// `range` of 0 stands for the full 64-bit span.
fn below_u64<R: RngCore + ?Sized>(range: u64, rng: &mut R) -> u64 {
    if range == 0 {
        return rng.next_u64();
    }
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(range);
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "cannot sample empty range");
                low + below_u64((high - low) as u64, rng) as $ty
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low <= high, "cannot sample empty range");
                // A span of the whole 64-bit type wraps to 0, which
                // `below_u64` reads as "every value".
                low + below_u64(((high - low) as u64).wrapping_add(1), rng) as $ty
            }
        }
    )*};
}

uniform_int!(u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low < high, "cannot sample empty range");
        loop {
            let v = low + (high - low) * f64::sample(rng);
            if v < high {
                return v; // rounding can land on `high`; redraw
            }
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low <= high, "cannot sample empty range");
        low + (high - low) * f64::sample(rng)
    }
}

/// Range expressions `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform + Clone> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(self.start().clone(), self.end().clone(), rng)
    }
}

/// Convenience methods on every generator.
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; p < 1 keeps the product inside u64.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        /// Expands the seed with splitmix64, as xoshiro's authors
        /// recommend and rand 0.8 does.
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // The upper bits of xoshiro256++ are the stronger ones.
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn matches_the_reference_implementation() {
            // First outputs of the reference C code from state {1, 2, 3, 4}.
            let mut rng = SmallRng { s: [1, 2, 3, 4] };
            let expected = [
                41943041u64,
                58720359,
                3588806011781223,
                3591011842654386,
                9228616714210784205,
                9973669472204895162,
            ];
            for want in expected {
                assert_eq!(rng.next_u64(), want);
            }
            // splitmix64 from 0: the well-known first output.
            assert_eq!(SmallRng::seed_from_u64(0).s[0], 0xe220_a839_7b1d_cdaf);
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Iterator over the elements `choose_multiple` picked.
    #[derive(Debug)]
    pub struct SliceChooseIter<'a, T> {
        slice: &'a [T],
        indices: std::vec::IntoIter<usize>,
    }

    impl<'a, T> Iterator for SliceChooseIter<'a, T> {
        type Item = &'a T;

        fn next(&mut self) -> Option<&'a T> {
            self.indices.next().map(|i| &self.slice[i])
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            self.indices.size_hint()
        }
    }

    impl<T> ExactSizeIterator for SliceChooseIter<'_, T> {}

    /// `amount` distinct indices below `length`, uniformly at random.
    /// Floyd's algorithm for small draws, a partial Fisher–Yates over
    /// the index vector otherwise (rand's split is finer; the threshold
    /// keeps its two regimes).
    fn sample_indices<R: RngCore + ?Sized>(
        rng: &mut R,
        length: usize,
        amount: usize,
    ) -> Vec<usize> {
        debug_assert!(amount <= length);
        if amount <= 11 {
            let mut picked = Vec::with_capacity(amount);
            for j in length - amount..length {
                let t = rng.gen_range(0..=j);
                picked.push(if picked.contains(&t) { j } else { t });
            }
            picked
        } else {
            let mut indices: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                indices.swap(i, j);
            }
            indices.truncate(amount);
            indices
        }
    }

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// One uniformly random element, or `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct uniformly random elements (all of them when
        /// the slice is shorter), in random order.
        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> SliceChooseIter<'_, Self::Item>;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> SliceChooseIter<'_, T> {
            let amount = amount.min(self.len());
            SliceChooseIter {
                slice: self,
                indices: sample_indices(rng, self.len(), amount).into_iter(),
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(rng.gen_range(0..7usize) < 7);
            let v = rng.gen_range(3..=5u32);
            assert!((3..=5).contains(&v));
            let w = rng.gen_range(10..20u64);
            assert!((10..20).contains(&w));
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let g: f64 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
        assert_eq!(rng.gen_range(5..=5usize), 5);
        let _ = rng.gen_range(0..=u64::MAX); // full span must not loop or panic
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_500..10_500).contains(&c), "bucket {i} holds {c}");
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "{hits} of 100000 at p = 0.3");
    }

    #[test]
    fn choose_multiple_is_distinct_in_both_regimes() {
        let mut rng = SmallRng::seed_from_u64(4);
        let items: Vec<u32> = (0..100).collect();
        for amount in [0, 1, 5, 11, 12, 35, 100, 250] {
            let mut got: Vec<u32> = items.choose_multiple(&mut rng, amount).copied().collect();
            assert_eq!(got.len(), amount.min(100));
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), amount.min(100), "duplicates at amount {amount}");
        }
    }

    #[test]
    fn choose_multiple_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items: Vec<usize> = (0..20).collect();
        for amount in [5, 15] {
            let mut counts = [0u32; 20];
            for _ in 0..20_000 {
                for &v in items.choose_multiple(&mut rng, amount) {
                    counts[v] += 1;
                }
            }
            let expect = 20_000.0 * amount as f64 / 20.0;
            for (i, &c) in counts.iter().enumerate() {
                let dev = (f64::from(c) - expect).abs() / expect;
                assert!(dev < 0.05, "amount {amount}: item {i} drawn {c} times");
            }
        }
    }

    #[test]
    fn shuffle_permutes_and_choose_handles_empty() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        assert!([9u32].choose(&mut rng) == Some(&9));
    }
}
