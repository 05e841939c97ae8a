//! Runtime metrics of the networked deployment.
//!
//! Two metric sets, lock-free or briefly locked on every request path:
//!
//! * [`ServerMetrics`] — per-server counters, gauges and latency
//!   histograms, and a Space-Saving hot-key sketch of the probed keys.
//!   Every family has a fixed number of series except the sketch's, which
//!   exports at most [`HOT_KEYS_EXPORTED`]; nothing is kept per stored
//!   entry. Exposed over the wire via [`Request::Metrics`], scraped with
//!   `pls-client stats`, and served over HTTP by `pls_cluster::http::serve_router`.
//! * [`ClientMetrics`] — client-library counters, most importantly the
//!   probes-per-lookup histogram: the paper's *client lookup cost*
//!   (§4.2) measured on the live deployment instead of in simulation.
//!
//! The paper's unfairness (§4.5) and coverage (§4.3) describe what a
//! lookup *returns*, after the client trims the union of its probes to
//! `t`, so no server can measure them: `loadgen` tallies them from the
//! answers it receives (`results.quality`).
//!
//! Every exported family is one row of [`CATALOGUE`] — name, kind,
//! labels, HELP text and who reads it — which is also what stamps HELP
//! onto an exposition ([`stamp`]) and what README §Observability's table
//! is generated from. The debug endpoints and dashboards are pure
//! [`views`] of a snapshot.
//!
//! [`Request::Metrics`]: crate::proto::Request::Metrics

use pls_core::StrategySpec;
use pls_telemetry::snapshot::labeled;
use pls_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, SiteSnapshot, SiteStats, TopK,
};

mod catalogue;
pub mod views;

pub use catalogue::{catalogue_markdown, stamp, Family, Kind, Side, CATALOGUE};

/// Strategy labels, indexed by [`strategy_index`].
pub const STRATEGY_LABELS: [&str; 5] = ["full", "fixed", "random", "round", "hash"];

/// Maps a strategy to its label index in [`STRATEGY_LABELS`].
pub fn strategy_index(spec: StrategySpec) -> usize {
    match spec {
        StrategySpec::FullReplication => 0,
        StrategySpec::Fixed { .. } => 1,
        StrategySpec::RandomServer { .. } => 2,
        StrategySpec::RoundRobin { .. } => 3,
        StrategySpec::Hash { .. } => 4,
    }
}

/// Request-variant labels for per-operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ReqOp {
    /// `Request::Place`.
    Place = 0,
    /// `Request::Add`.
    Add,
    /// `Request::Delete`.
    Delete,
    /// `Request::Probe`.
    Probe,
    /// `Request::Internal`.
    Internal,
    /// `Request::Status`.
    Status,
    /// `Request::Keys`.
    Keys,
    /// `Request::Snapshot`.
    Snapshot,
    /// `Request::SpecOf`.
    SpecOf,
    /// `Request::Metrics`.
    Metrics,
    /// `Request::Trace`.
    Trace,
    /// `Request::Digest`.
    Digest,
    /// `Request::Membership`.
    Membership,
    /// `Request::JoinLeave`.
    JoinLeave,
}

/// The `op` label values, indexed by [`ReqOp`].
pub const OP_LABELS: [&str; 14] = [
    "place",
    "add",
    "delete",
    "probe",
    "internal",
    "status",
    "keys",
    "snapshot",
    "spec_of",
    "metrics",
    "trace",
    "digest",
    "membership",
    "join_leave",
];

impl ReqOp {
    /// The `op` label value.
    pub fn as_str(self) -> &'static str {
        OP_LABELS[self as usize]
    }
}

/// Reads an instrument for a scrape: drained with `reset` (the
/// delta-scraping contract), left alone without.
pub fn read<T, R>(x: &T, reset: bool, take: impl Fn(&T) -> R, get: impl Fn(&T) -> R) -> R {
    if reset {
        take(x)
    } else {
        get(x)
    }
}

fn val(c: &Counter, reset: bool) -> u64 {
    read(c, reset, Counter::take, Counter::get)
}

fn hist(h: &Histogram, reset: bool) -> HistogramSnapshot {
    read(h, reset, Histogram::take, Histogram::snapshot)
}

/// Slots in each server's Space-Saving hot-key sketch: any key drawing
/// more than 1/64th of the probe traffic is guaranteed to be tracked.
pub const HOT_KEYS_TRACKED: usize = 64;

/// Hottest keys exported per metrics collection.
pub const HOT_KEYS_EXPORTED: usize = 10;

/// One server's runtime counters and histograms.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Per-variant request counts, indexed by [`ReqOp`].
    pub requests: [Counter; 14],
    /// Requests whose handler returned an error.
    pub request_errors: Counter,
    /// Frames that failed to decode into a request.
    pub decode_errors: Counter,
    /// `accept(2)` failures.
    pub accept_errors: Counter,
    /// Connections torn down by a protocol violation.
    pub connection_errors: Counter,
    /// Frame bytes read (payload + length prefix).
    pub bytes_read: Counter,
    /// Frame bytes written (payload + length prefix).
    pub bytes_written: Counter,
    /// Probe requests served, by the probed key's strategy
    /// (indexed by [`strategy_index`]).
    pub probes: [Counter; 5],
    /// Key engines materialized.
    pub engines_created: Counter,
    /// Server-to-server `Internal` messages sent.
    pub internal_sent: Counter,
    /// `Internal` sends dropped (peer unreachable) or rejected.
    pub internal_send_failures: Counter,
    /// Background anti-entropy rounds started.
    pub antientropy_rounds: Counter,
    /// Keys repaired by anti-entropy (divergent, under-replicated, or
    /// missing locally, rebuilt through the snapshot-pull path).
    pub antientropy_repairs: Counter,
    /// Delete tombstones dropped by TTL garbage collection.
    pub tombstones_gc: Counter,
    /// The epoch of this server's current membership view. A live value
    /// like `inflight`: `Metrics{reset}` never zeroes it.
    pub membership_epoch: Gauge,
    /// Entries received and applied through migration pulls.
    pub migration_entries: Counter,
    /// Migration lag: keys this server should host under the current
    /// epoch whose local state still predates it. Converges to zero as
    /// the migration sweep and anti-entropy drain the backlog. Live
    /// value, exempt from `reset`.
    pub migration_pending: Gauge,
    /// Per-holder version lag observed by anti-entropy digests: how many
    /// versions behind the key's freshest known version each holder's
    /// copy was (0 = fully fresh).
    pub staleness_versions_behind: Histogram,
    /// End-to-end request handling latency, microseconds.
    pub request_latency_us: Histogram,
    /// Probe handling latency (engine sampling only), microseconds.
    pub probe_latency_us: Histogram,
    /// Approximate hottest probed keys ([`HOT_KEYS_TRACKED`] slots).
    pub hot_keys: TopK,
    /// Requests currently being handled (incremented when a decoded
    /// frame enters the handler, decremented when its response is
    /// ready). A live depth, so `Metrics{reset}` never zeroes it.
    pub inflight: Gauge,
    /// Wall-clock duration of the last completed anti-entropy round
    /// (µs).
    pub antientropy_round_us: Gauge,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServerMetrics {
            requests: Default::default(),
            request_errors: Counter::new(),
            decode_errors: Counter::new(),
            accept_errors: Counter::new(),
            connection_errors: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            probes: Default::default(),
            engines_created: Counter::new(),
            internal_sent: Counter::new(),
            internal_send_failures: Counter::new(),
            antientropy_rounds: Counter::new(),
            antientropy_repairs: Counter::new(),
            tombstones_gc: Counter::new(),
            membership_epoch: Gauge::new(),
            migration_entries: Counter::new(),
            migration_pending: Gauge::new(),
            staleness_versions_behind: Histogram::new(),
            request_latency_us: Histogram::new(),
            probe_latency_us: Histogram::new(),
            hot_keys: TopK::new(HOT_KEYS_TRACKED),
            inflight: Gauge::new(),
            antientropy_round_us: Gauge::new(),
        }
    }

    /// Builds a named snapshot of this server's counters, gauges and
    /// histograms and of its hottest keys. `keys` and `entries` are the
    /// store's current counts (they live in the engine map, not here).
    /// With `reset`, every counter, histogram and the sketch are
    /// atomically drained as they are read — the snapshot/reset semantics
    /// used by delta-scraping.
    pub fn collect(&self, keys: u64, entries: u64, reset: bool) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        for (op, count) in OP_LABELS.iter().zip(&self.requests) {
            s.push_counter(labeled("pls_requests_total", &[("op", op)]), val(count, reset));
        }
        s.push_counter("pls_request_errors_total", val(&self.request_errors, reset));
        s.push_counter("pls_decode_errors_total", val(&self.decode_errors, reset));
        s.push_counter("pls_accept_errors_total", val(&self.accept_errors, reset));
        s.push_counter("pls_connection_errors_total", val(&self.connection_errors, reset));
        s.push_counter("pls_bytes_read_total", val(&self.bytes_read, reset));
        s.push_counter("pls_bytes_written_total", val(&self.bytes_written, reset));
        for (strategy, count) in STRATEGY_LABELS.iter().zip(&self.probes) {
            s.push_counter(
                labeled("pls_probes_total", &[("strategy", strategy)]),
                val(count, reset),
            );
        }
        s.push_counter("pls_engines_created_total", val(&self.engines_created, reset));
        s.push_counter("pls_internal_sent_total", val(&self.internal_sent, reset));
        s.push_counter(
            "pls_internal_send_failures_total",
            val(&self.internal_send_failures, reset),
        );
        s.push_counter("pls_antientropy_rounds_total", val(&self.antientropy_rounds, reset));
        s.push_counter("pls_antientropy_repairs_total", val(&self.antientropy_repairs, reset));
        s.push_counter("pls_tombstones_gc_total", val(&self.tombstones_gc, reset));
        s.push_counter("pls_migration_entries_total", val(&self.migration_entries, reset));
        // Live membership state: the epoch and the migration backlog are
        // point-in-time readings, exempt from `reset` like `inflight`.
        s.push_gauge("pls_membership_epoch", self.membership_epoch.get());
        s.push_gauge("pls_migration_pending", self.migration_pending.get());
        s.push_histogram(
            "pls_staleness_versions_behind",
            hist(&self.staleness_versions_behind, reset),
        );
        s.push_counter("pls_keys", keys);
        s.push_counter("pls_entries", entries);
        s.push_histogram("pls_request_latency_us", hist(&self.request_latency_us, reset));
        s.push_histogram("pls_probe_latency_us", hist(&self.probe_latency_us, reset));
        // Queue-depth gauges. In-flight is a live depth: resetting it
        // would make the pending decrements drive it negative, so it is
        // exempt from `reset`. The round-duration gauge is a
        // last-observation sample and does drain.
        s.push_gauge(labeled("pls_queue_depth", &[("queue", "inflight")]), self.inflight.get());
        s.push_gauge(
            labeled("pls_queue_depth", &[("queue", "antientropy_round_us")]),
            read(&self.antientropy_round_us, reset, Gauge::take, Gauge::get),
        );

        let hot = read(&self.hot_keys, reset, TopK::take, TopK::snapshot);
        s.push_counters(hot.top(HOT_KEYS_EXPORTED).iter().map(|e| {
            let key_label = String::from_utf8_lossy(&e.key);
            (labeled("pls_hot_key_probes", &[("key", &key_label)]), e.count)
        }));
        s
    }
}

/// Merges the [`SiteStats`] of several same-named lock sites (e.g. the
/// per-shard `engines` mutexes) into one [`SiteSnapshot`], so the
/// exposition keeps a single stable `site="engines"` family no matter
/// how many shards back it — `pls-bench compare` paths and dashboards
/// never see the shard count.
///
/// With `reset` each site's counters and histograms are *drained*
/// (`take`), so summing across shards preserves the conservation
/// invariant delta-scrapers rely on: every acquisition and every
/// wait/hold observation lands in exactly one scrape, and the merged
/// totals stay equal to each other.
pub fn merged_site_snapshot<'a>(
    sites: impl IntoIterator<Item = &'a SiteStats>,
    reset: bool,
) -> SiteSnapshot {
    let mut merged = SiteSnapshot::default();
    for stats in sites {
        merged.wait_us.merge(&hist(&stats.wait_us, reset));
        merged.hold_us.merge(&hist(&stats.hold_us, reset));
        merged.acquisitions += val(&stats.acquisitions, reset);
        merged.contended += val(&stats.contended, reset);
    }
    merged
}

/// Client-library runtime counters and histograms.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Probe RPCs that reached a server and answered.
    pub probes: Counter,
    /// Probe attempts skipped because the server was unreachable.
    pub probe_failures: Counter,
    /// Updates that failed on every server.
    pub update_failures: Counter,
    /// Servers contacted per completed lookup — the live-measured §4.2
    /// client lookup cost; its count is the lookups completed.
    pub probes_per_lookup: Histogram,
    /// Wall-clock latency per answered probe, microseconds. Its p99
    /// derives the hedge delay.
    pub probe_latency_us: Histogram,
    /// Server-reported handling time per answered probe, microseconds —
    /// the service-time half of each probe's latency, echoed in the
    /// reply frame header.
    pub probe_service_us: Histogram,
    /// Network share of each answered probe's latency, microseconds:
    /// wall-clock RTT minus the echoed service time.
    pub probe_net_us: Histogram,
    /// Hedged probes launched (a probe stayed silent past the hedge
    /// delay, so the next server was tried without cancelling it).
    pub hedges: Counter,
    /// Hedged probes that answered while an earlier probe was still
    /// silent — the hedge paid off.
    pub hedge_wins: Counter,
    /// Latency of winning hedged probes, microseconds.
    pub hedge_win_latency_us: Histogram,
    /// Operations whose per-operation budget expired before they
    /// finished (they returned partial results or a timeout).
    pub op_budget_exhausted: Counter,
}

impl ClientMetrics {
    /// Builds a named snapshot of the client-side metrics.
    pub fn collect(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_client_probes_total", self.probes.get());
        s.push_counter("pls_client_probe_failures_total", self.probe_failures.get());
        s.push_counter("pls_client_update_failures_total", self.update_failures.get());
        s.push_histogram("pls_client_probes_per_lookup", self.probes_per_lookup.snapshot());
        s.push_histogram("pls_client_probe_latency_us", self.probe_latency_us.snapshot());
        s.push_histogram("pls_client_probe_service_us", self.probe_service_us.snapshot());
        s.push_histogram("pls_client_probe_net_us", self.probe_net_us.snapshot());
        s.push_counter("pls_client_hedges_total", self.hedges.get());
        s.push_counter("pls_client_hedge_wins_total", self.hedge_wins.get());
        s.push_histogram("pls_client_hedge_win_latency_us", self.hedge_win_latency_us.snapshot());
        s.push_counter("pls_client_op_budget_exhausted_total", self.op_budget_exhausted.get());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_site_snapshot_sums_shards_and_drains_on_reset() {
        let a = SiteStats::new();
        let b = SiteStats::new();
        a.acquisitions.add(3);
        a.contended.add(1);
        a.wait_us.observe(5);
        b.acquisitions.add(2);
        b.wait_us.observe(7);
        let merged = merged_site_snapshot([&a, &b], false);
        assert_eq!(merged.acquisitions, 5);
        assert_eq!(merged.contended, 1);
        assert_eq!(merged.wait_us.count, 2);
        assert_eq!(merged.wait_us.sum, 12);
        // A plain read leaves the sites untouched; a resetting merge
        // drains them, so the next delta scrape starts from zero.
        assert_eq!(a.acquisitions.get(), 3);
        let drained = merged_site_snapshot([&a, &b], true);
        assert_eq!(drained.acquisitions, 5);
        assert_eq!(drained.wait_us.count, 2);
        assert_eq!(a.acquisitions.get() + b.acquisitions.get(), 0);
        assert_eq!(merged_site_snapshot([&a, &b], false).acquisitions, 0);
    }

    #[test]
    fn strategy_indices_cover_all_specs() {
        assert_eq!(strategy_index(StrategySpec::full_replication()), 0);
        assert_eq!(strategy_index(StrategySpec::fixed(3)), 1);
        assert_eq!(strategy_index(StrategySpec::random_server(3)), 2);
        assert_eq!(strategy_index(StrategySpec::round_robin(2)), 3);
        assert_eq!(strategy_index(StrategySpec::hash(2)), 4);
    }

    #[test]
    fn server_collect_names_and_values() {
        let m = ServerMetrics::new();
        m.requests[ReqOp::Probe as usize].inc();
        m.requests[ReqOp::Probe as usize].inc();
        m.probes[strategy_index(StrategySpec::random_server(4))].add(2);
        m.bytes_read.add(100);
        m.request_latency_us.observe(250);
        for _ in 0..3 {
            m.hot_keys.offer(b"a");
        }
        let s = m.collect(2, 27, false);
        assert_eq!((s.counter("pls_keys"), s.counter("pls_entries")), (Some(2), Some(27)));
        let s = m.collect(3, 40, false);
        assert_eq!(s.counter("pls_requests_total{op=\"probe\"}"), Some(2));
        assert_eq!(s.counter("pls_requests_total{op=\"place\"}"), Some(0));
        assert_eq!((ReqOp::Place.as_str(), ReqOp::JoinLeave.as_str()), ("place", "join_leave"));
        assert_eq!(s.counter("pls_probes_total{strategy=\"random\"}"), Some(2));
        assert_eq!(s.counter("pls_bytes_read_total"), Some(100));
        assert_eq!(s.counter("pls_keys"), Some(3));
        assert_eq!(s.counter("pls_entries"), Some(40));
        assert_eq!(s.counter("pls_hot_key_probes{key=\"a\"}"), Some(3));
        assert_eq!(s.histogram("pls_request_latency_us").unwrap().count, 1);
    }

    #[test]
    fn server_collect_with_reset_drains() {
        let m = ServerMetrics::new();
        m.requests[ReqOp::Add as usize].add(5);
        m.probe_latency_us.observe(9);
        m.hot_keys.offer(b"k");
        let first = m.collect(0, 0, true);
        assert_eq!(first.counter("pls_requests_total{op=\"add\"}"), Some(5));
        assert_eq!(first.histogram("pls_probe_latency_us").unwrap().count, 1);
        assert_eq!(first.counter("pls_hot_key_probes{key=\"k\"}"), Some(1));
        let second = m.collect(0, 0, false);
        assert_eq!(second.counter("pls_requests_total{op=\"add\"}"), Some(0));
        assert!(second.histogram("pls_probe_latency_us").unwrap().is_empty());
        assert_eq!(second.counter("pls_hot_key_probes{key=\"k\"}"), None);
    }

    #[test]
    fn membership_families_export_and_epoch_survives_reset() {
        let m = ServerMetrics::new();
        m.membership_epoch.set(3.0);
        m.migration_entries.add(40);
        m.migration_pending.set(7.0);
        let first = m.collect(0, 0, true);
        assert_eq!(first.counter("pls_migration_entries_total"), Some(40));
        assert_eq!(first.gauge("pls_membership_epoch"), Some(3.0));
        assert_eq!(first.gauge("pls_migration_pending"), Some(7.0));
        // Counters drain on reset; the live epoch and backlog readings
        // do not — a delta scrape must never report epoch 0.
        let second = m.collect(0, 0, false);
        assert_eq!(second.counter("pls_migration_entries_total"), Some(0));
        assert_eq!(second.gauge("pls_membership_epoch"), Some(3.0));
        assert_eq!(second.gauge("pls_migration_pending"), Some(7.0));
        assert_eq!(second.counter("pls_requests_total{op=\"membership\"}"), Some(0));
        assert_eq!(second.counter("pls_requests_total{op=\"join_leave\"}"), Some(0));
    }

    #[test]
    fn queue_gauges_export_and_inflight_survives_reset() {
        let m = ServerMetrics::new();
        m.inflight.add(3.0);
        m.antientropy_round_us.set(1500.0);
        let first = m.collect(0, 0, true);
        assert_eq!(first.gauge("pls_queue_depth{queue=\"inflight\"}"), Some(3.0));
        assert_eq!(first.gauge("pls_queue_depth{queue=\"antientropy_round_us\"}"), Some(1500.0));
        // Reset drained the round durations but left the live depth, so
        // the pending decrements still land at zero, not below it.
        let second = m.collect(0, 0, false);
        assert_eq!(second.gauge("pls_queue_depth{queue=\"inflight\"}"), Some(3.0));
        assert_eq!(second.gauge("pls_queue_depth{queue=\"antientropy_round_us\"}"), Some(0.0));
        m.inflight.add(-3.0);
        assert_eq!(m.inflight.get(), 0.0);
    }

    #[test]
    fn client_collect_includes_lookup_cost_histogram() {
        let m = ClientMetrics::default();
        m.probes.add(3);
        m.probes_per_lookup.observe(3);
        let s = m.collect();
        assert_eq!(s.counter("pls_client_probes_total"), Some(3));
        let h = s.histogram("pls_client_probes_per_lookup").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3);
    }
}
