//! Deterministic randomness with the sampling helpers the strategies need.
//!
//! Every randomized decision in the paper — which server a client contacts,
//! which `x`-subset a RandomServer-x server keeps, which `t` entries a
//! server returns — is drawn through [`DetRng`], so a fixed seed replays an
//! identical execution. That determinism is what makes the simulation
//! results and the property-based tests reproducible.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::{FailureSet, ServerId};

/// What [`DetRng::subset_refs`] iterates: the whole slice, or the items
/// `choose_multiple` picked (`I`: `rand` and its stand-ins name it apart).
enum Picked<'a, T, I> {
    All(std::slice::Iter<'a, T>),
    Some(I),
}

impl<'a, T, I: Iterator<Item = &'a T>> Iterator for Picked<'a, T, I> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match self {
            Picked::All(items) => items.next(),
            Picked::Some(items) => items.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Picked::All(items) => items.size_hint(),
            Picked::Some(items) => items.size_hint(),
        }
    }
}

impl<'a, T, I: ExactSizeIterator<Item = &'a T>> ExactSizeIterator for Picked<'a, T, I> {}

/// A seeded random number generator with strategy-oriented helpers.
///
/// # Example
///
/// ```
/// use pls_net::DetRng;
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulation run its own stream while remaining reproducible.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed_from(self.inner.gen())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn coin_flip(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// A uniformly random server among all `n`, failed or not.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn random_server(&mut self, n: usize) -> ServerId {
        ServerId::new(self.below(n) as u32)
    }

    /// A uniformly random *operational* server, or `None` if every server
    /// has failed. This models the paper's "if the server has failed, keep
    /// on selecting another random server until an operational server is
    /// found". One draw, whoever has failed.
    pub fn random_operational_server(&mut self, failures: &FailureSet) -> Option<ServerId> {
        let up = failures.operational_count();
        if up == 0 {
            return None;
        }
        let pick = self.below(up);
        if up == failures.len() {
            return Some(ServerId::new(pick as u32)); // nobody to step over
        }
        failures.operational().nth(pick)
    }

    /// A uniformly random subset of `k` items from `items`, without
    /// replacement (order unspecified). Returns all items when `k >= len`.
    pub fn subset<T: Clone>(&mut self, items: &[T], k: usize) -> Vec<T> {
        self.subset_refs(items, k).cloned().collect()
    }

    /// [`subset`](DetRng::subset) before the copies: references to the
    /// `k` items, in the order `subset` returns them. Draws nothing when
    /// `k >= len`. The choice is made before this returns, so the
    /// iterator borrows `items` only.
    pub fn subset_refs<'a, T>(
        &mut self,
        items: &'a [T],
        k: usize,
    ) -> impl ExactSizeIterator<Item = &'a T> {
        if k >= items.len() {
            Picked::All(items.iter())
        } else {
            Picked::Some(items.choose_multiple(&mut self.inner, k))
        }
    }

    /// All server ids `0..n` in a uniformly random order — the probe order
    /// used by RandomServer-x and Hash-y lookups.
    pub fn shuffled_servers(&mut self, n: usize) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = (0..n as u32).map(ServerId::new).collect();
        ids.shuffle(&mut self.inner);
        ids
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Sample from the exponential distribution with the given mean, via
    /// inverse CDF.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        // 1 - U is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.inner.gen::<f64>()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ_from_parent() {
        let mut a = DetRng::seed_from(7);
        let mut child = a.fork();
        // Overwhelmingly likely to differ.
        assert_ne!(a.next_u64(), child.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed_from(1);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn coin_flip_extremes() {
        let mut rng = DetRng::seed_from(2);
        assert!(!rng.coin_flip(0.0));
        assert!(rng.coin_flip(1.0));
        // Out-of-range probabilities are clamped rather than panicking,
        // because strategy code computes x/h ratios that can exceed 1.
        assert!(rng.coin_flip(7.5));
        assert!(!rng.coin_flip(-1.0));
    }

    #[test]
    fn random_operational_server_skips_failed() {
        let mut rng = DetRng::seed_from(3);
        let mut failures = FailureSet::new(5);
        failures.fail(ServerId::new(0));
        failures.fail(ServerId::new(4));
        for _ in 0..200 {
            let s = rng.random_operational_server(&failures).unwrap();
            assert!(!failures.is_failed(s));
        }
        for i in 1..4 {
            failures.fail(ServerId::new(i));
        }
        assert_eq!(rng.random_operational_server(&failures), None);
    }

    #[test]
    fn random_operational_server_is_the_walk_over_the_servers_that_are_up() {
        // Nobody failed, some failed, all but one, all: the same draw and
        // the same server as counting `pick` servers that are up.
        for down in [&[][..], &[0, 3, 6], &[0, 1, 2, 3, 4, 5, 6], &[0, 1, 2, 3, 4, 5, 6, 7]] {
            let mut failures = FailureSet::new(8);
            down.iter().for_each(|s| failures.fail(ServerId::new(*s)));
            let mut rng = DetRng::seed_from(9);
            let mut walk = rng.clone();
            for _ in 0..500 {
                let up = failures.operational_count();
                let walked = (up > 0).then(|| failures.operational().nth(walk.below(up))).flatten();
                assert_eq!(rng.random_operational_server(&failures), walked, "down: {down:?}");
            }
            assert_eq!(rng.next_u64(), walk.next_u64(), "down: {down:?}");
        }
    }

    #[test]
    fn subset_sizes_and_membership() {
        let mut rng = DetRng::seed_from(4);
        let items: Vec<u32> = (0..50).collect();
        let sub = rng.subset(&items, 10);
        assert_eq!(sub.len(), 10);
        for v in &sub {
            assert!(items.contains(v));
        }
        // No duplicates.
        let mut sorted = sub.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        // k >= len returns everything.
        assert_eq!(rng.subset(&items, 100).len(), 50);
    }

    #[test]
    fn shuffled_servers_is_a_permutation() {
        let mut rng = DetRng::seed_from(5);
        let mut order = rng.shuffled_servers(10);
        order.sort();
        let expected: Vec<ServerId> = (0..10).map(ServerId::new).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seed_from(6);
        let n = 200_000;
        let mean = 40.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!((sample_mean - mean).abs() < 0.5, "sample mean {sample_mean}");
    }

    #[test]
    fn subset_is_roughly_uniform() {
        // Each of 10 items should appear in a 3-subset with p = 0.3.
        let mut rng = DetRng::seed_from(8);
        let items: Vec<usize> = (0..10).collect();
        let mut counts = [0usize; 10];
        let trials = 30_000;
        for _ in 0..trials {
            for v in rng.subset(&items, 3) {
                counts[v] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.3).abs() < 0.02, "item {i} frequency {p}");
        }
    }
}
