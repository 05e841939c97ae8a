//! Fixed-bucket log₂ histograms, atomics only.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets. Bucket `i < BUCKETS-1` covers `[2^i, 2^(i+1))`
/// (bucket 0 additionally absorbs the value 0); the last bucket is the
/// overflow bucket for everything at or above `2^(BUCKETS-1)`.
///
/// 32 buckets span 0 to ~2·10⁹ — enough for probe counts (a handful)
/// and for microsecond latencies (up to ~35 minutes) alike.
pub const BUCKETS: usize = 32;

/// A lock-free histogram with exponential (log₂) bucket boundaries.
///
/// `observe` performs two relaxed `fetch_add`s (the sum and one bucket)
/// and never allocates or blocks, so it is safe on the request hot
/// path. The observation count is not stored: a snapshot derives it as
/// the sum of its buckets, so the two always agree. Use [`snapshot`]
/// for a consistent-enough copy (each field is read atomically; `sum`
/// may be skewed against the buckets by at most the concurrent
/// in-flight observes, which is the standard trade for lock-freedom)
/// and [`take`] to snapshot-and-reset in one sweep.
///
/// [`snapshot`]: Histogram::snapshot
/// [`take`]: Histogram::take
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { sum: AtomicU64::new(0), buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// The bucket a value falls into: `floor(log2(v))`, clamped to the
    /// overflow bucket; 0 and 1 both land in bucket 0.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (63 - v.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of a bucket (`+Inf` for the overflow
    /// bucket), i.e. the largest value that maps to it.
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i >= BUCKETS - 1 {
            f64::INFINITY
        } else {
            ((1u64 << (i + 1)) - 1) as f64
        }
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSnapshot::of(sum, std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)))
    }

    /// Snapshots and resets in one sweep (each field is atomically
    /// swapped to zero, so no observation is counted twice or dropped).
    pub fn take(&self) -> HistogramSnapshot {
        let sum = self.sum.swap(0, Ordering::Relaxed);
        HistogramSnapshot::of(
            sum,
            std::array::from_fn(|i| self.buckets[i].swap(0, Ordering::Relaxed)),
        )
    }
}

/// Plain-data copy of a [`Histogram`]: mergeable, serializable,
/// comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    fn of(sum: u64, buckets: [u64; BUCKETS]) -> Self {
        HistogramSnapshot { count: buckets.iter().sum(), sum, buckets }
    }

    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot { count: 0, sum: 0, buckets: [0; BUCKETS] }
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Accumulates another snapshot into this one (e.g. the same metric
    /// from every server of a cluster).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// The observations recorded between an `earlier` snapshot of the
    /// same histogram and this one: per-field saturating subtraction.
    /// (Counts are monotonic while the histogram is not reset, so on a
    /// live histogram this is an exact "what happened since".)
    pub fn minus(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }

    /// Mean observed value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `q · count`. `+Inf` when the quantile falls in the
    /// overflow bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        Histogram::bucket_upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        // 0 and 1 share bucket 0; powers of two open new buckets.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(7), 2);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        // Everything at or above 2^(BUCKETS-1) lands in the overflow
        // bucket.
        assert_eq!(Histogram::bucket_index(1 << (BUCKETS - 1)), BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_match_indices() {
        for v in [0u64, 1, 2, 3, 5, 100, 4095, 1 << 20] {
            let i = Histogram::bucket_index(v);
            assert!(v as f64 <= Histogram::bucket_upper_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v as f64 > Histogram::bucket_upper_bound(i - 1), "v={v} bucket={i}");
            }
        }
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn observe_snapshot_mean() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 10] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 16);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.buckets[0], 1); // 1
        assert_eq!(s.buckets[1], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 10
    }

    #[test]
    fn take_resets() {
        let h = Histogram::new();
        h.observe(5);
        let s = h.take();
        assert_eq!(s.count, 1);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1);
        a.observe(100);
        b.observe(100);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 201);
        assert_eq!(s.buckets[Histogram::bucket_index(100)], 2);
    }

    #[test]
    fn minus_recovers_the_interval() {
        let h = Histogram::new();
        h.observe(3);
        h.observe(100);
        let before = h.snapshot();
        h.observe(5);
        h.observe(5);
        let d = h.snapshot().minus(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 10);
        assert_eq!(d.buckets[Histogram::bucket_index(5)], 2);
        assert_eq!(d.buckets[Histogram::bucket_index(100)], 0);
        // Mismatched order saturates instead of wrapping.
        let weird = before.minus(&h.snapshot());
        assert_eq!(weird.count, 0);
        assert_eq!(weird.sum, 0);
    }

    #[test]
    fn minus_underflow_saturates_every_field_independently() {
        // A later snapshot that is *behind* the earlier one (e.g. the
        // histogram was reset between the two reads): every field must
        // clamp to 0 on its own, never wrap to huge values.
        let h = Histogram::new();
        h.observe(10);
        h.observe(1_000);
        let before_reset = h.snapshot();
        let after_reset = h.take(); // drains
        h.observe(10); // only the small bucket recovers
        let d = h.snapshot().minus(&before_reset);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0);
        assert_eq!(d.buckets[Histogram::bucket_index(10)], 0);
        assert_eq!(d.buckets[Histogram::bucket_index(1_000)], 0);
        assert_eq!(after_reset.count, 2);
    }

    #[test]
    fn minus_with_disjoint_bucket_populations() {
        // "Mismatched buckets": the subtrahend has counts only in
        // buckets the minuend never touched and vice versa. Each bucket
        // subtracts independently — populated-minus-empty survives,
        // empty-minus-populated saturates, and the result still
        // quantiles finitely even though count and buckets disagree.
        let small = Histogram::new();
        small.observe(2);
        small.observe(3);
        let big = Histogram::new();
        big.observe(1 << 20);
        let d = big.snapshot().minus(&small.snapshot());
        assert_eq!(d.count, 0); // 1 - 2 saturates
        assert_eq!(d.buckets[Histogram::bucket_index(1 << 20)], 1);
        assert_eq!(d.buckets[Histogram::bucket_index(2)], 0);
        assert!(d.is_empty(), "count clamped to zero reads as empty");
        assert_eq!(d.quantile(0.99), 0.0);
        assert_eq!(d.mean(), 0.0);

        let d = small.snapshot().minus(&big.snapshot());
        assert_eq!(d.count, 1); // 2 - 1
        assert_eq!(d.buckets[Histogram::bucket_index(2)], 2);
        assert_eq!(d.buckets[Histogram::bucket_index(1 << 20)], 0);
        let q = d.quantile(0.99);
        assert!(q.is_finite() && q >= 2.0, "{q}");
    }

    #[test]
    fn minus_overflow_bucket_subtracts_like_any_other() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        let before = h.snapshot();
        h.observe(u64::MAX);
        let d = h.snapshot().minus(&before);
        assert_eq!(d.count, 1);
        assert_eq!(d.buckets[BUCKETS - 1], 1);
        assert_eq!(d.quantile(0.5), f64::INFINITY);
    }

    #[test]
    fn quantile_upper_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        // The median of 1..=100 is 50–51, bucket [32,64): upper bound 63.
        assert_eq!(s.quantile(0.5), 63.0);
        // Everything fits below 128.
        assert_eq!(s.quantile(1.0), 127.0);
        assert_eq!(HistogramSnapshot::empty().quantile(0.9), 0.0);
    }
}
