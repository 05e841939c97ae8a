//! Declarative service-level objectives tracked as error budgets with
//! fast/slow-window burn rates.
//!
//! An [`SloSpec`] names an objective and where its good/bad events come
//! from ([`SloSource`]):
//!
//! * `Ratio` — availability-style: bad = failed events, total = all
//!   events, both summed from counter families of a [`Delta`].
//! * `LatencyAbove` — latency-style "p-quantile ≤ target" recast per
//!   request: every observation in a bucket strictly above the target's
//!   bucket is a bad event. (With a 0.1% budget this is exactly
//!   "p99.9 ≤ target", up to log₂ bucket granularity.)
//! * `GaugeFloor` — staleness-style: each scrape is one time-slice
//!   event, bad when the gauge reads below the floor. Labeled families
//!   (e.g. `pls_live_staleness{strategy,t}`) are judged by their
//!   *worst* (minimum) series.
//!
//! An [`SloTracker`] ingests one [`Delta`] per scrape and answers, per
//! objective: the cumulative error-budget remaining (1 = untouched,
//! 0 = spent, negative = overspent) and the burn rate over a fast and a
//! slow window (1 = burning exactly at the rate that exhausts the
//! budget in one compliance period; SRE-style multi-window alerting
//! pages on fast ≫ 1 sustained into slow).

use std::collections::VecDeque;
use std::time::Duration;

use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;
use crate::timeline::Delta;

/// Hard cap on retained burn-window rows per objective, a backstop for
/// callers that scrape much faster than they prune.
const MAX_ROWS: usize = 4096;

/// Where an objective's good/bad events come from.
#[derive(Debug, Clone)]
pub enum SloSource {
    /// Bad fraction of a counter ratio: `total` and `bad` are counter
    /// families summed over the delta (label variants included).
    Ratio {
        /// Families counting all events (e.g. requests served).
        total: Vec<String>,
        /// Families counting failed events.
        bad: Vec<String>,
    },
    /// Requests slower than a target: bad = observations of `histogram`
    /// in buckets strictly above the bucket `target_us` falls in.
    LatencyAbove {
        /// Histogram name in the snapshot (e.g. `pls_request_latency_us`).
        histogram: String,
        /// Inclusive latency target in microseconds.
        target_us: u64,
    },
    /// A level that must stay at or above a floor: each ingest is one
    /// time-slice event, bad when the minimum reading across the
    /// family's label variants is below `floor`.
    GaugeFloor {
        /// Gauge family (the bare name and its labeled variants).
        gauge: String,
        /// The reading the gauge must not drop below.
        floor: f64,
    },
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name, used as the `{slo=...}` label value.
    pub name: String,
    /// Allowed bad fraction (the error budget), e.g. `0.001` for
    /// "99.9% of events good". Clamped to `(0, 1]`.
    pub budget: f64,
    /// Where good/bad events come from.
    pub source: SloSource,
}

impl SloSpec {
    /// A named objective with a bad-event budget and a source.
    pub fn new(name: impl Into<String>, budget: f64, source: SloSource) -> Self {
        let budget = if budget.is_finite() { budget.clamp(1e-9, 1.0) } else { 1.0 };
        SloSpec { name: name.into(), budget, source }
    }
}

/// One objective's current accounting.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// The declared budget (allowed bad fraction).
    pub budget: f64,
    /// Cumulative events observed.
    pub total: u64,
    /// Cumulative bad events observed.
    pub bad: u64,
    /// Error budget remaining: 1 with no events or no badness, 0 when
    /// exactly spent, negative when overspent.
    pub budget_remaining: f64,
    /// Burn rate over the fast window (1 = burning at budget).
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
}

/// One ingested sample for the burn windows.
#[derive(Debug, Clone, Copy)]
struct Row {
    end_us: u64,
    total: u64,
    bad: u64,
}

#[derive(Debug)]
struct SloState {
    total: u64,
    bad: u64,
    rows: VecDeque<Row>,
}

/// Tracks a set of objectives across periodic scrapes.
#[derive(Debug)]
pub struct SloTracker {
    specs: Vec<SloSpec>,
    states: Vec<SloState>,
    fast_us: u64,
    slow_us: u64,
    now_us: u64,
}

impl SloTracker {
    /// A tracker for `specs` with the given fast/slow burn windows
    /// (fast is floored at 1 µs, slow at the fast window).
    pub fn new(specs: Vec<SloSpec>, fast: Duration, slow: Duration) -> Self {
        let fast_us = (fast.as_micros() as u64).max(1);
        let slow_us = (slow.as_micros() as u64).max(fast_us);
        let states =
            specs.iter().map(|_| SloState { total: 0, bad: 0, rows: VecDeque::new() }).collect();
        SloTracker { specs, states, fast_us, slow_us, now_us: 0 }
    }

    /// Accounts one scrape interval: `delta` is the increment since the
    /// previous scrape, `latest` the cumulative snapshot it ended on
    /// (gauge floors read levels from here), `now_us` a monotonic
    /// timestamp for the window arithmetic (e.g. process uptime).
    pub fn ingest(&mut self, now_us: u64, delta: &Delta, latest: &MetricsSnapshot) {
        self.now_us = self.now_us.max(now_us);
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let (total, bad) = sample(&spec.source, delta, latest);
            state.total = state.total.saturating_add(total);
            state.bad = state.bad.saturating_add(bad);
            state.rows.push_back(Row { end_us: now_us, total, bad });
            while state.rows.len() > MAX_ROWS
                || state
                    .rows
                    .front()
                    .is_some_and(|r| self.now_us.saturating_sub(r.end_us) > self.slow_us)
            {
                state.rows.pop_front();
            }
        }
    }

    /// Current accounting for every objective, in declaration order.
    pub fn status(&self) -> Vec<SloStatus> {
        self.specs
            .iter()
            .zip(self.states.iter())
            .map(|(spec, state)| {
                let budget_remaining = if state.total == 0 {
                    1.0
                } else {
                    1.0 - (state.bad as f64 / state.total as f64) / spec.budget
                };
                SloStatus {
                    name: spec.name.clone(),
                    budget: spec.budget,
                    total: state.total,
                    bad: state.bad,
                    budget_remaining,
                    burn_fast: burn(state, spec.budget, self.now_us, self.fast_us),
                    burn_slow: burn(state, spec.budget, self.now_us, self.slow_us),
                }
            })
            .collect()
    }
}

/// Burn rate over the trailing `window_us`: the bad fraction observed
/// in the window divided by the budget. 0 with no events in the window.
fn burn(state: &SloState, budget: f64, now_us: u64, window_us: u64) -> f64 {
    let mut total = 0u64;
    let mut bad = 0u64;
    for row in state.rows.iter().rev() {
        if now_us.saturating_sub(row.end_us) > window_us {
            break;
        }
        total += row.total;
        bad += row.bad;
    }
    if total == 0 {
        0.0
    } else {
        (bad as f64 / total as f64) / budget
    }
}

/// One scrape interval's (total, bad) event counts for a source.
fn sample(source: &SloSource, delta: &Delta, latest: &MetricsSnapshot) -> (u64, u64) {
    match source {
        SloSource::Ratio { total, bad } => {
            let bad: u64 = bad.iter().map(|f| delta.changed.counter_sum(f)).sum();
            let total: u64 = total.iter().map(|f| delta.changed.counter_sum(f)).sum();
            // Failure counters can outpace the "total" families (e.g. a
            // retry loop counting several failures per request); clamp
            // so the bad fraction stays ≤ 1.
            (total.max(bad), bad)
        }
        SloSource::LatencyAbove { histogram, target_us } => {
            match delta.changed.histogram(histogram) {
                Some(h) => {
                    let ok_through = Histogram::bucket_index(*target_us);
                    let bad: u64 = h.buckets.iter().skip(ok_through + 1).sum();
                    (h.count, bad)
                }
                None => (0, 0),
            }
        }
        SloSource::GaugeFloor { gauge, floor } => {
            match latest.gauges_of(gauge).map(|(_, v)| v).reduce(f64::min) {
                Some(v) if v < *floor => (1, 1),
                Some(_) => (1, 0),
                None => (0, 0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{delta as window_delta, Window};

    /// A window whose snapshot carries one request counter, one error
    /// counter, one latency histogram, and the staleness gauges.
    fn window(
        seq: u64,
        uptime_us: u64,
        requests: u64,
        errors: u64,
        latencies: &[u64],
        staleness: f64,
    ) -> Window {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_requests_total{op=\"probe\"}", requests);
        s.push_counter("pls_request_errors_total", errors);
        let h = Histogram::new();
        for v in latencies {
            h.observe(*v);
        }
        s.push_histogram("pls_request_latency_us", h.snapshot());
        s.push_gauge("pls_live_staleness{strategy=\"full\",t=\"2\"}", staleness);
        s.push_gauge("pls_live_staleness{strategy=\"round\",t=\"2\"}", 1.0);
        // A distinctly-named family that must NOT match the
        // `pls_live_staleness` prefix lookup.
        s.push_gauge("pls_live_staleness_extra", -1.0);
        Window { seq, at_unix_ms: 0, uptime_us, totals: s }
    }

    fn tracker() -> SloTracker {
        SloTracker::new(
            vec![
                SloSpec::new(
                    "availability",
                    0.01,
                    SloSource::Ratio {
                        total: vec!["pls_requests_total".into()],
                        bad: vec!["pls_request_errors_total".into()],
                    },
                ),
                SloSpec::new(
                    "latency",
                    0.01,
                    SloSource::LatencyAbove {
                        histogram: "pls_request_latency_us".into(),
                        target_us: 1_000,
                    },
                ),
                SloSpec::new(
                    "staleness",
                    0.05,
                    SloSource::GaugeFloor { gauge: "pls_live_staleness".into(), floor: 0.99 },
                ),
            ],
            Duration::from_secs(10),
            Duration::from_secs(60),
        )
    }

    fn ingest(t: &mut SloTracker, earlier: &Window, later: &Window) {
        let d = window_delta(earlier, later);
        t.ingest(later.uptime_us, &d, &later.totals);
    }

    #[test]
    fn healthy_traffic_keeps_budgets_full_and_burn_zero() {
        let mut t = tracker();
        let w0 = window(0, 0, 0, 0, &[], 1.0);
        let w1 = window(1, 1_000_000, 100, 0, &[100, 200, 900], 1.0);
        ingest(&mut t, &w0, &w1);
        for st in t.status() {
            assert!((st.budget_remaining - 1.0).abs() < 1e-9, "{st:?}");
            assert_eq!(st.burn_fast, 0.0, "{st:?}");
            assert_eq!(st.burn_slow, 0.0, "{st:?}");
        }
    }

    #[test]
    fn errors_burn_the_availability_budget() {
        let mut t = tracker();
        let w0 = window(0, 0, 0, 0, &[], 1.0);
        // 100 requests, 2 errors → bad fraction 2% against a 1% budget:
        // burn rate 2, half the budget gone.
        let w1 = window(1, 1_000_000, 100, 2, &[], 1.0);
        ingest(&mut t, &w0, &w1);
        let st = &t.status()[0];
        assert_eq!(st.total, 100);
        assert_eq!(st.bad, 2);
        assert!((st.burn_fast - 2.0).abs() < 1e-9, "{st:?}");
        assert!((st.budget_remaining + 1.0).abs() < 1e-9, "{st:?}"); // 1 - 2 = -1: overspent
    }

    #[test]
    fn slow_requests_burn_the_latency_budget() {
        let mut t = tracker();
        let w0 = window(0, 0, 0, 0, &[], 1.0);
        // Target 1000us lands in bucket [512,1024); 1500 and 5000 sit
        // in strictly higher buckets, 800 does not.
        let w1 = window(1, 1_000_000, 0, 0, &[800, 1500, 5000], 1.0);
        ingest(&mut t, &w0, &w1);
        let st = &t.status()[1];
        assert_eq!(st.total, 3);
        assert_eq!(st.bad, 2);
        assert!(st.burn_fast > 1.0, "{st:?}");
    }

    #[test]
    fn gauge_floor_judges_the_worst_series_and_ignores_lookalikes() {
        let mut t = tracker();
        let w0 = window(0, 0, 0, 0, &[], 1.0);
        let w1 = window(1, 1_000_000, 0, 0, &[], 0.5); // full-strategy series dips
        ingest(&mut t, &w0, &w1);
        let st = &t.status()[2];
        assert_eq!((st.total, st.bad), (1, 1));
        assert!((st.burn_fast - 20.0).abs() < 1e-9, "{st:?}"); // 100% bad / 5% budget

        // Recovered: the -1.0 `pls_live_staleness_extra` gauge must not
        // drag the minimum down.
        let w2 = window(2, 2_000_000, 0, 0, &[], 1.0);
        ingest(&mut t, &w1, &w2);
        let st = &t.status()[2];
        assert_eq!((st.total, st.bad), (2, 1));
    }

    #[test]
    fn burn_windows_age_out_but_cumulative_budget_does_not() {
        let mut t = tracker();
        let mut prev = window(0, 0, 0, 0, &[], 1.0);
        // Second 1: a bad minute-fraction (10 errors in 100 requests).
        let w = window(1, 1_000_000, 100, 10, &[], 1.0);
        ingest(&mut t, &prev, &w);
        prev = w;
        assert!(t.status()[0].burn_fast > 0.0);
        // 2 minutes of clean traffic later the fast *and* slow windows
        // have aged the fault out, but the spent budget stays spent.
        for i in 2..=130u64 {
            let w = window(i, i * 1_000_000, 100 + (i - 1) * 10, 10, &[], 1.0);
            ingest(&mut t, &prev, &w);
            prev = w;
        }
        let st = &t.status()[0];
        assert_eq!(st.burn_fast, 0.0, "{st:?}");
        assert_eq!(st.burn_slow, 0.0, "{st:?}");
        assert_eq!(st.bad, 10);
        assert!(st.budget_remaining < 1.0, "{st:?}");
    }

    #[test]
    fn ratio_clamps_total_when_failure_counters_outpace_it() {
        let mut t = SloTracker::new(
            vec![SloSpec::new(
                "avail",
                0.5,
                SloSource::Ratio {
                    total: vec!["pls_requests_total".into()],
                    bad: vec!["pls_request_errors_total".into()],
                },
            )],
            Duration::from_secs(10),
            Duration::from_secs(60),
        );
        let w0 = window(0, 0, 0, 0, &[], 1.0);
        let w1 = window(1, 1_000_000, 3, 7, &[], 1.0); // more errors than requests
        ingest(&mut t, &w0, &w1);
        let st = &t.status()[0];
        assert_eq!((st.total, st.bad), (7, 7));
        assert!((st.burn_fast - 2.0).abs() < 1e-9, "{st:?}");
    }

    #[test]
    fn no_traffic_means_no_verdict_changes() {
        let mut t = tracker();
        let w0 = window(0, 0, 50, 0, &[], 1.0);
        let w1 = window(1, 1_000_000, 50, 0, &[], 1.0);
        ingest(&mut t, &w0, &w1);
        let st = &t.status()[0];
        assert_eq!(st.total, 0);
        assert_eq!(st.burn_fast, 0.0);
        assert!((st.budget_remaining - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spec_budget_is_clamped_sane() {
        assert_eq!(
            SloSpec::new("x", 0.0, SloSource::GaugeFloor { gauge: "g".into(), floor: 0.0 }).budget,
            1e-9
        );
        assert_eq!(
            SloSpec::new("x", 7.0, SloSource::GaugeFloor { gauge: "g".into(), floor: 0.0 }).budget,
            1.0
        );
        assert_eq!(
            SloSpec::new("x", f64::NAN, SloSource::GaugeFloor { gauge: "g".into(), floor: 0.0 })
                .budget,
            1.0
        );
    }
}
