//! A fixed-capacity ring of periodic metrics snapshots — the time
//! dimension of the observatory.
//!
//! A [`Timeline`] holds the last N [`Window`]s, each a cumulative
//! [`MetricsSnapshot`] stamped with a sequence number, wall-clock time,
//! and process uptime. Subtracting two windows yields a [`Delta`]: a
//! snapshot of what changed between the two scrapes — everything
//! needed for windowed rates ("requests per second over the last
//! minute") and for the SLO burn-rate math in [`crate::slo`].
//!
//! The ring is plain data behind whatever lock the caller prefers; the
//! recording path allocates only when cloning the snapshot in.

use std::collections::VecDeque;

use crate::histogram::HistogramSnapshot;
use crate::snapshot::{positions, MetricsSnapshot};

/// One periodic scrape: the cumulative metrics totals at a point in
/// time.
#[derive(Debug, Clone)]
pub struct Window {
    /// Monotonic sequence number, assigned by the timeline. Never
    /// reused, so a reader can detect eviction between two reads.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch when the scrape
    /// was taken (informational; deltas use `uptime_us`).
    pub at_unix_ms: u64,
    /// Microseconds since process start — the monotonic clock deltas
    /// are computed on.
    pub uptime_us: u64,
    /// Cumulative metric totals at scrape time (counters and
    /// histograms monotone, gauges point-in-time).
    pub totals: MetricsSnapshot,
}

/// What happened between two [`Window`]s.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Sequence number of the earlier window.
    pub from_seq: u64,
    /// Sequence number of the later window.
    pub to_seq: u64,
    /// Monotonic span between the windows, microseconds (at least 1,
    /// so rates stay finite).
    pub span_us: u64,
    /// What changed, as a snapshot read like any other: per-counter
    /// increments (`later − earlier`, saturating — a counter that went
    /// backwards, e.g. across a reset, reads 0), the observations each
    /// histogram recorded in the span ([`HistogramSnapshot::minus`]), and
    /// the later window's gauge readings verbatim (gauges are levels; a
    /// delta of levels has no meaning).
    pub changed: MetricsSnapshot,
}

impl Delta {
    /// The span in seconds, never 0 (rates divide by this).
    pub fn span_seconds(&self) -> f64 {
        self.span_us.max(1) as f64 / 1e6
    }

    /// Events per second for one counter series over the span.
    pub fn rate(&self, name: &str) -> f64 {
        self.changed.counter(name).unwrap_or(0) as f64 / self.span_seconds()
    }

    /// Events per second summed across a counter family's label
    /// variants.
    pub fn rate_sum(&self, family: &str) -> f64 {
        self.changed.counter_sum(family) as f64 / self.span_seconds()
    }
}

/// The observations recorded between an `earlier` and a `later`
/// window — the one snapshot subtraction. Series absent from the earlier
/// window are taken as starting from zero, so a family that first
/// appears mid-timeline (a new label value, say) still deltas correctly.
/// Each earlier series is found through one name index built per call.
pub fn delta(earlier: &Window, later: &Window) -> Delta {
    let (before, zero) = (&earlier.totals, HistogramSnapshot::default());
    let (counters, histograms) = (positions(&before.counters), positions(&before.histograms));
    let changed = MetricsSnapshot {
        counters: later
            .totals
            .counters
            .iter()
            .map(|(name, v)| {
                let was = counters.get(name.as_str()).map_or(0, |&i| before.counters[i].1);
                (name.clone(), v.saturating_sub(was))
            })
            .collect(),
        gauges: later.totals.gauges.clone(),
        histograms: later
            .totals
            .histograms
            .iter()
            .map(|(name, h)| {
                let was = histograms.get(name.as_str()).map_or(&zero, |&i| &before.histograms[i].1);
                (name.clone(), h.minus(was))
            })
            .collect(),
        helps: Vec::new(),
    };
    Delta {
        from_seq: earlier.seq,
        to_seq: later.seq,
        span_us: later.uptime_us.saturating_sub(earlier.uptime_us).max(1),
        changed,
    }
}

/// A bounded ring of [`Window`]s: recording past capacity evicts the
/// oldest window and bumps the eviction counter.
#[derive(Debug)]
pub struct Timeline {
    capacity: usize,
    next_seq: u64,
    evicted: u64,
    windows: VecDeque<Window>,
}

impl Timeline {
    /// A timeline retaining at most `capacity` windows (floored at 2 —
    /// a single window has no deltas).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Timeline { capacity, next_seq: 0, evicted: 0, windows: VecDeque::with_capacity(capacity) }
    }

    /// The retention limit in windows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows currently retained.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted over the timeline's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Records a scrape and returns its sequence number, evicting the
    /// oldest window when full.
    pub fn record(&mut self, at_unix_ms: u64, uptime_us: u64, totals: MetricsSnapshot) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.push_back(Window { seq, at_unix_ms, uptime_us, totals });
        seq
    }

    /// The most recent window.
    pub fn latest(&self) -> Option<&Window> {
        self.windows.back()
    }

    /// The oldest retained window.
    pub fn oldest(&self) -> Option<&Window> {
        self.windows.front()
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter()
    }

    /// The delta between the two most recent windows (the "last scrape
    /// interval"), or `None` with fewer than two windows.
    pub fn last_delta(&self) -> Option<Delta> {
        let n = self.windows.len();
        if n < 2 {
            return None;
        }
        Some(delta(&self.windows[n - 2], &self.windows[n - 1]))
    }

    /// The delta between the latest window and the newest window at
    /// least `span_us` older than it — i.e. rates over (roughly) the
    /// last `span_us`. Falls back to the oldest retained window when
    /// the ring does not reach back that far; `None` with fewer than
    /// two windows.
    pub fn delta_over(&self, span_us: u64) -> Option<Delta> {
        let latest = self.windows.back()?;
        let earlier = self
            .windows
            .iter()
            .rev()
            .skip(1)
            .find(|w| latest.uptime_us.saturating_sub(w.uptime_us) >= span_us)
            .or_else(|| {
                let oldest = self.windows.front()?;
                (oldest.seq != latest.seq).then_some(oldest)
            })?;
        Some(delta(earlier, latest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn snap(counter: u64, hist_obs: &[u64]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_requests_total{op=\"probe\"}", counter);
        s.push_gauge("pls_queue_depth{queue=\"inflight\"}", counter as f64);
        let h = Histogram::new();
        for v in hist_obs {
            h.observe(*v);
        }
        s.push_histogram("pls_request_latency_us", h.snapshot());
        s
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut tl = Timeline::new(8);
        tl.record(1_000, 0, snap(10, &[100]));
        tl.record(2_000, 1_000_000, snap(25, &[100, 200, 300]));
        let d = tl.last_delta().expect("two windows");
        assert_eq!(d.changed.counter("pls_requests_total{op=\"probe\"}"), Some(15));
        assert_eq!(d.changed.counter_sum("pls_requests_total"), 15);
        assert_eq!(d.changed.gauge("pls_queue_depth{queue=\"inflight\"}"), Some(25.0));
        let h = d.changed.histogram("pls_request_latency_us").expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 500);
        assert!((d.rate_sum("pls_requests_total") - 15.0).abs() < 1e-9);
    }

    #[test]
    fn delta_equals_a_lookup_per_series_on_two_thousand_series() {
        let window = |seq: u64, step: u64| {
            let mut totals = MetricsSnapshot::new();
            // Half the names appear in both windows, the rest in one.
            for i in 0..1_500u64 {
                let id = if i % 2 == 0 { i } else { i * 100 + seq };
                totals.counters.push((format!("hits_total{{entry=\"{id}\"}}"), i * step));
            }
            totals.counters.push(("hits_total{entry=\"0\"}".to_string(), 9)); // a duplicate name
            for i in 0..500u64 {
                let h = Histogram::new();
                (0..step).for_each(|v| h.observe(v * i));
                let id = if i % 2 == 0 { i } else { i * 100 + seq };
                totals.histograms.push((format!("lat_us{{site=\"{id}\"}}"), h.snapshot()));
            }
            totals.gauges.push(("level".to_string(), step as f64));
            Window { seq, at_unix_ms: 0, uptime_us: seq * 1_000_000, totals }
        };
        let (earlier, later) = (window(1, 2), window(2, 5));
        let d = delta(&earlier, &later);
        let zero = HistogramSnapshot::default();
        for ((name, v), (dn, dv)) in later.totals.counters.iter().zip(&d.changed.counters) {
            assert_eq!(dn, name);
            assert_eq!(*dv, v.saturating_sub(earlier.totals.counter(name).unwrap_or(0)), "{name}");
        }
        for ((name, h), (dn, dh)) in later.totals.histograms.iter().zip(&d.changed.histograms) {
            assert_eq!(dn, name);
            assert_eq!(*dh, h.minus(earlier.totals.histogram(name).unwrap_or(&zero)), "{name}");
        }
        assert_eq!(d.changed.counters.len(), later.totals.counters.len());
        assert_eq!(d.changed.histograms.len(), later.totals.histograms.len());
        assert_eq!(d.changed.gauges, later.totals.gauges);
    }

    #[test]
    fn series_absent_from_the_earlier_window_delta_from_zero() {
        let mut tl = Timeline::new(4);
        tl.record(0, 0, MetricsSnapshot::new());
        tl.record(0, 1_000_000, snap(7, &[50]));
        let d = tl.last_delta().unwrap();
        assert_eq!(d.changed.counter_sum("pls_requests_total"), 7);
        assert_eq!(d.changed.histogram("pls_request_latency_us").unwrap().count, 1);
    }

    #[test]
    fn counters_that_go_backwards_saturate_to_zero() {
        // A drained (reset) source between scrapes must not produce a
        // huge bogus increment.
        let mut tl = Timeline::new(4);
        tl.record(0, 0, snap(100, &[1, 2, 3]));
        tl.record(0, 1_000_000, snap(40, &[1]));
        let d = tl.last_delta().unwrap();
        assert_eq!(d.changed.counter_sum("pls_requests_total"), 0);
        assert_eq!(d.changed.histogram("pls_request_latency_us").unwrap().count, 0);
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_rates_stay_finite() {
        let mut tl = Timeline::new(3);
        for i in 0..10u64 {
            tl.record(i, i * 500_000, snap(i * 10, &[]));
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.evicted(), 7);
        assert_eq!(tl.oldest().unwrap().seq, 7);
        assert_eq!(tl.latest().unwrap().seq, 9);
        // A span far beyond retention falls back to the oldest window.
        let d = tl.delta_over(60_000_000).expect("fallback to oldest");
        assert_eq!(d.from_seq, 7);
        assert_eq!(d.to_seq, 9);
        assert_eq!(d.changed.counter_sum("pls_requests_total"), 20);
        let rate = d.rate_sum("pls_requests_total");
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
    }

    #[test]
    fn rates_stay_finite_even_with_a_zero_span() {
        let mut tl = Timeline::new(2);
        tl.record(0, 42, snap(0, &[]));
        tl.record(0, 42, snap(5, &[]));
        let d = tl.last_delta().unwrap();
        assert_eq!(d.span_us, 1);
        assert!(d.rate_sum("pls_requests_total").is_finite());
        assert!(d.span_seconds() > 0.0);
    }

    #[test]
    fn delta_over_picks_the_newest_window_spanning_the_request() {
        let mut tl = Timeline::new(16);
        for i in 0..10u64 {
            tl.record(0, i * 1_000_000, snap(i, &[]));
        }
        // 3 seconds back from uptime 9s: window at 6s qualifies and is
        // the newest that does.
        let d = tl.delta_over(3_000_000).unwrap();
        assert_eq!(d.from_seq, 6);
        assert_eq!(d.to_seq, 9);
        assert_eq!(d.changed.counter_sum("pls_requests_total"), 3);
    }

    #[test]
    fn single_window_has_no_delta() {
        let mut tl = Timeline::new(4);
        assert!(tl.last_delta().is_none());
        tl.record(0, 0, MetricsSnapshot::new());
        assert!(tl.last_delta().is_none());
        assert!(tl.delta_over(1).is_none());
    }
}
