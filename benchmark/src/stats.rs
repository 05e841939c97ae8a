//! Order statistics and the latency histogram the harness owns.
//!
//! The repo's `pls_telemetry::Histogram` has log₂ buckets: one bucket
//! spans a factor of two, so it cannot resolve a 10 % change. Latencies
//! here go into a log-linear histogram with 32 sub-buckets per octave
//! (bucket width ≤ 3.2 % of its lower edge, so a quantile interpolated
//! inside its bucket is off by less than 2 %).

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread this harness prints is the one the driver computes.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) keep their own bucket.
const OCTAVES: usize = 40 - SUB_BITS as usize;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// Log-linear histogram of nanosecond latencies; fixed size, no
/// allocation after `new`.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram { counts: Box::new([0; BUCKETS]), total: 0 }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
        let octave = (exp - SUB_BITS) as usize;
        let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        (SUB + octave * SUB + sub).min(BUCKETS - 1)
    }

    /// `[low, high)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let octave = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        let width = (1u64 << octave) as f64;
        let low = ((SUB + sub) as u64 * (1u64 << octave)) as f64;
        (low, low + width)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, interpolated inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (low, high) = Self::bounds(i);
                let inside = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return low + (high - low) * inside;
            }
            before += c;
        }
        Self::bounds(BUCKETS - 1).1
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (low, high) = Self::bounds(i);
                (low + high) / 2.0 * c as f64
            })
            .sum();
        sum / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([2, 4, 4, 5, 9, 11, 12], n=4) == [4.0, 5.0, 11.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 9.0, 11.0, 12.0]), (4.0, 11.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn every_value_lands_inside_its_bucket() {
        for ns in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX >> 30, 1 << 39]) {
            let (low, high) = LatencyHistogram::bounds(LatencyHistogram::index(ns));
            assert!(low <= ns as f64 && (ns as f64) < high, "{ns} outside [{low}, {high})");
            if ns >= 32 {
                assert!((high - low) / low <= 1.0 / 32.0 + 1e-12, "bucket of {ns} too wide");
            }
        }
        // Beyond the last octave values clamp into the last bucket.
        assert_eq!(LatencyHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_two_percent() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.02, "q{q}: {got} vs {exact}");
        }
        assert!((h.mean() - 500_005.0).abs() / 500_005.0 < 0.02);
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(10_000);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(0.9) > 9_000.0);
    }
}
