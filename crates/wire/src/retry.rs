//! Time bounds, retry policy, and per-peer health tracking.
//!
//! The paper's fault-tolerance analysis (§4.4) assumes a failed server
//! is simply *skipped* — which only works when failure is detected in
//! bounded time. This module supplies the three pieces that make every
//! network interaction time-bounded:
//!
//! * [`Timeouts`] — a per-RPC deadline and a total per-operation budget
//!   ([`Deadline`]) that caps how long one client operation (a lookup, an
//!   update, a read of every member, a resync pull) may run across all its
//!   probes and retries.
//! * [`delay`] — the full-jitter exponential backoff between a call's
//!   attempts (the caller picks only how many), so a flaky peer is
//!   retried without synchronized thundering herds.
//! * [`Breaker`] — a consecutive-failure circuit breaker per peer. A
//!   peer that keeps failing is *demoted*: callers fast-fail against it
//!   (and sort it to the tail of their probe order) until a cooldown
//!   elapses, after which a single half-open trial call decides whether
//!   the circuit closes again.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pls_telemetry::Counter;

/// Feeds backoff jitter here; request-id generators (rpc, client,
/// server) start from it and step by the golden-ratio increment, giving
/// each a full-period sequence of distinct ids.
pub use pls_net::splitmix64;

/// Time bounds for RPCs and whole operations. A dial is capped by the
/// attempt's deadline and by one second (`pls-cluster`'s connect bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// Deadline for one RPC attempt (dial + request + response).
    pub rpc: Duration,
    /// Total budget for one client/server *operation* — a lookup across
    /// all its probes, an update across all its candidate servers.
    pub op_budget: Duration,
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts { rpc: Duration::from_secs(2), op_budget: Duration::from_secs(10) }
    }
}

/// The ceiling of the backoff before a call's second attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// The ceiling of the backoff doubles per attempt up to this.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// The jittered delay before retry number `attempt` (1-based: the delay
/// after the first failed attempt is `delay(1, ..)`). Full jitter:
/// uniform in `[0, min(BACKOFF_CAP, BACKOFF_BASE << (attempt - 1))]`,
/// drawn deterministically from `seed` so identical call sites spread
/// out rather than retrying in lockstep.
pub fn delay(attempt: u32, seed: u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let ceiling = BACKOFF_BASE.saturating_mul(1u32 << shift).min(BACKOFF_CAP).as_micros() as u64;
    let roll = splitmix64(seed ^ u64::from(attempt));
    Duration::from_micros(roll % (ceiling + 1))
}

/// An absolute time bound on one operation. Cheap to copy; every probe
/// or retry along the way caps its own wait by [`Deadline::cap`].
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline { at: Instant::now() + budget }
    }

    /// Time left; zero once the deadline has passed.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    /// `d` capped to the time left.
    pub fn cap(&self, d: Duration) -> Duration {
        d.min(self.remaining())
    }

    /// Polls `cond` every 20 ms until it holds or the deadline passes,
    /// and returns whether it held — for a caller (a test, the soak
    /// harness) waiting on what another thread or process brings about.
    pub fn wait_until(&self, mut cond: impl FnMut() -> bool) -> bool {
        loop {
            if cond() {
                return true;
            }
            if self.expired() {
                return false;
            }
            std::thread::sleep(self.cap(Duration::from_millis(20)));
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the circuit.
    pub failure_threshold: u32,
    /// How long the circuit stays open before a half-open trial.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_secs(2) }
    }
}

#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    /// `Some` while the circuit is open; calls fast-fail until this
    /// instant, then one half-open trial is admitted.
    open_until: Option<Instant>,
    /// A half-open trial call is in flight; further calls keep
    /// fast-failing until it resolves.
    trial_in_flight: bool,
}

/// Per-peer consecutive-failure circuit breaker.
///
/// Closed (healthy) until [`BreakerConfig::failure_threshold`]
/// consecutive failures are recorded; then open — [`Breaker::admit`]
/// refuses calls — for [`BreakerConfig::cooldown`]. After the cooldown
/// one trial call is admitted (half-open); its outcome closes or
/// re-opens the circuit. Any success fully closes the circuit.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    /// Times the circuit transitioned closed → open (including a failed
    /// half-open trial re-opening it).
    pub opens: Counter,
    /// Calls refused while the circuit was open.
    pub fast_fails: Counter,
}

impl Breaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker {
            cfg,
            inner: Mutex::new(BreakerInner::default()),
            opens: Counter::default(),
            fast_fails: Counter::default(),
        }
    }

    /// Whether a call may proceed. `false` means the circuit is open
    /// (fast-fail, counted); after the cooldown exactly one caller gets
    /// `true` as the half-open trial.
    pub fn admit(&self) -> bool {
        let mut g = self.inner.lock().expect("breaker lock");
        match g.open_until {
            None => true,
            Some(until) => {
                if Instant::now() < until || g.trial_in_flight {
                    self.fast_fails.inc();
                    false
                } else {
                    g.trial_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a successful call: the circuit closes and the failure
    /// streak resets.
    pub fn record_success(&self) {
        let mut g = self.inner.lock().expect("breaker lock");
        g.consecutive_failures = 0;
        g.open_until = None;
        g.trial_in_flight = false;
    }

    /// Records a failed call; opens (or re-opens, after a failed
    /// half-open trial) the circuit once the streak reaches the
    /// threshold.
    pub fn record_failure(&self) {
        let mut g = self.inner.lock().expect("breaker lock");
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        let reopen_after_trial = g.trial_in_flight;
        g.trial_in_flight = false;
        if reopen_after_trial || g.consecutive_failures >= self.cfg.failure_threshold {
            g.open_until = Some(Instant::now() + self.cfg.cooldown);
            self.opens.inc();
        }
    }

    /// Whether this peer currently looks healthy: circuit closed and no
    /// failure streak in progress. Probe-order shuffles sort unhealthy
    /// peers to the tail.
    pub fn healthy(&self) -> bool {
        let g = self.inner.lock().expect("breaker lock");
        g.consecutive_failures == 0 && g.open_until.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_is_capped() {
        for attempt in 1u32..=8 {
            let ceiling = BACKOFF_BASE.saturating_mul(1u32 << (attempt - 1)).min(BACKOFF_CAP);
            for seed in 0u64..50 {
                assert!(delay(attempt, seed) <= ceiling, "attempt {attempt} seed {seed}");
            }
        }
        // Jitter actually varies with the seed.
        let spread: std::collections::HashSet<Duration> =
            (0u64..20).map(|seed| delay(3, seed)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn deadline_caps_and_expires() {
        let d = Deadline::within(Duration::from_millis(50));
        assert!(!d.expired());
        assert!(d.cap(Duration::from_secs(5)) <= Duration::from_millis(50));
        assert_eq!(d.cap(Duration::ZERO), Duration::ZERO);
        let past = Deadline::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens() {
        let b = Breaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(20),
        });
        assert!(b.admit());
        b.record_failure();
        assert!(!b.healthy()); // streak in progress demotes...
        assert!(b.admit()); // ...but the circuit is still closed
        b.record_failure();
        // Open: calls fast-fail and are counted.
        assert!(!b.admit());
        assert!(!b.admit());
        assert_eq!(b.opens.get(), 1);
        assert_eq!(b.fast_fails.get(), 2);
        // After the cooldown exactly one trial is admitted.
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        assert!(!b.admit()); // trial in flight
                             // Failed trial re-opens for another full cooldown.
        b.record_failure();
        assert!(!b.admit());
        assert_eq!(b.opens.get(), 2);
        // A successful trial closes the circuit for good.
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        b.record_success();
        assert!(b.admit());
        assert!(b.healthy());
    }

    #[test]
    fn success_resets_failure_streak() {
        let b =
            Breaker::new(BreakerConfig { failure_threshold: 2, cooldown: Duration::from_secs(5) });
        b.record_failure();
        b.record_success();
        b.record_failure();
        // Two non-consecutive failures never open the circuit.
        assert!(b.admit());
        assert_eq!(b.opens.get(), 0);
    }
}
