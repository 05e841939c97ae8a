//! Runtime metrics of the networked deployment.
//!
//! Two metric sets, lock-free or shard-locked on every request path:
//!
//! * [`ServerMetrics`] — per-server counters and latency histograms,
//!   plus the *live quality* machinery: a Space-Saving hot-key sketch,
//!   per-`(key, entry)` retrieval counters, and the online unfairness
//!   (§4.5) / coverage (§4.3) gauges computed from them at collection
//!   time. Exposed over the wire via [`Request::Metrics`], scraped with
//!   `pls-client stats`, and served over HTTP by `pls_cluster::http::serve_router`.
//! * [`ClientMetrics`] — client-library counters, most importantly the
//!   probes-per-lookup histogram: the paper's *client lookup cost*
//!   (§4.2) measured on the live deployment instead of in simulation.
//!
//! Metric names follow Prometheus conventions; see the "Observability"
//! section of the repository README for the full catalogue. Per-entry
//! retrieval counts export as `pls_entry_hits_total{key=..,entry=..}`
//! series, which sum under [`MetricsSnapshot::merge`] — so a client can
//! recompute *cluster-level* unfairness and coverage from a merged
//! snapshot with [`live_quality_from_merged`] instead of trusting any
//! single server's gauge.
//!
//! [`Request::Metrics`]: crate::proto::Request::Metrics

use pls_core::StrategySpec;
use pls_metrics::unfairness::cov_from_counts;
use pls_telemetry::snapshot::{labeled, parse_labels};
use pls_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, KeyedCounterMap, MetricsSnapshot, SiteSnapshot,
    SiteStats, TopK,
};

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

impl ReqOp {
    /// Every variant, in counter-index order.
    pub const ALL: [ReqOp; 14] = [
        ReqOp::Place,
        ReqOp::Add,
        ReqOp::Delete,
        ReqOp::Probe,
        ReqOp::Internal,
        ReqOp::Status,
        ReqOp::Keys,
        ReqOp::Snapshot,
        ReqOp::SpecOf,
        ReqOp::Metrics,
        ReqOp::Trace,
        ReqOp::Digest,
        ReqOp::Membership,
        ReqOp::JoinLeave,
    ];

    /// The `op` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            ReqOp::Place => "place",
            ReqOp::Add => "add",
            ReqOp::Delete => "delete",
            ReqOp::Probe => "probe",
            ReqOp::Internal => "internal",
            ReqOp::Status => "status",
            ReqOp::Keys => "keys",
            ReqOp::Snapshot => "snapshot",
            ReqOp::SpecOf => "spec_of",
            ReqOp::Metrics => "metrics",
            ReqOp::Trace => "trace",
            ReqOp::Digest => "digest",
            ReqOp::Membership => "membership",
            ReqOp::JoinLeave => "join_leave",
        }
    }
}

fn val(c: &Counter, reset: bool) -> u64 {
    if reset {
        c.take()
    } else {
        c.get()
    }
}

/// Slots in each server's Space-Saving hot-key sketch: any key drawing
/// more than 1/64th of the probe traffic is guaranteed to be tracked.
pub const HOT_KEYS_TRACKED: usize = 64;

/// Hottest keys exported per metrics collection.
pub const HOT_KEYS_EXPORTED: usize = 10;

/// Encodes a `(key, entry)` pair as one composite byte string — a
/// big-endian `u32` key length, the key, then the entry — the keying
/// scheme of [`ServerMetrics::entry_hits`].
pub fn key_entry(key: &[u8], entry: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len() + entry.len());
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(entry);
    out
}

/// One server's runtime counters and histograms.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Per-variant request counts, indexed by [`ReqOp`].
    pub requests: [Counter; 14],
    /// Requests whose handler returned an error.
    pub request_errors: Counter,
    /// Frames that failed to decode into a request.
    pub decode_errors: Counter,
    /// Connections accepted.
    pub connections_accepted: Counter,
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
    /// Entries returned across all probe answers.
    pub probe_entries_returned: Counter,
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
    /// Background staleness-probe rounds started.
    pub staleness_rounds: Counter,
    /// Delete tombstones dropped by TTL garbage collection.
    pub tombstones_gc: Counter,
    /// Membership views installed (each strictly newer epoch accepted,
    /// whether from gossip, a join/leave command, or boot).
    pub membership_installs: Counter,
    /// The epoch of this server's current membership view. A live value
    /// like `inflight`: `Metrics{reset}` never zeroes it.
    pub membership_epoch: Gauge,
    /// Keys whose local placement was rebuilt by migration — pulled or
    /// re-homed because an epoch change moved their placement group.
    pub migration_keys: Counter,
    /// Entries received and applied through migration pulls.
    pub migration_entries: Counter,
    /// Migration lag: keys this server should host under the current
    /// epoch whose local state still predates it. Converges to zero as
    /// the migration sweep and anti-entropy drain the backlog. Live
    /// value, exempt from `reset`.
    pub migration_pending: Gauge,
    /// Per-holder version lag observed by staleness probes: how many
    /// versions behind the key's freshest known version each holder's
    /// copy was (0 = fully fresh).
    pub staleness_versions_behind: Histogram,
    /// End-to-end request handling latency, microseconds.
    pub request_latency_us: Histogram,
    /// Probe handling latency (engine sampling only), microseconds.
    pub probe_latency_us: Histogram,
    /// Approximate hottest probed keys ([`HOT_KEYS_TRACKED`] slots).
    pub hot_keys: TopK,
    /// Retrievals per `(key, entry)` pair served by probe answers,
    /// keyed by [`key_entry`] composites — the raw counts behind the
    /// live unfairness and coverage gauges.
    pub entry_hits: KeyedCounterMap,
    /// Live §4.5 unfairness (mean per-key CoV of entry hit counts),
    /// refreshed by [`ServerMetrics::collect_live`].
    pub live_unfairness: Gauge,
    /// Live §4.3 coverage (distinct entries retrieved at least once /
    /// entries stored), refreshed by [`ServerMetrics::collect_live`].
    pub live_coverage: Gauge,
    /// Requests currently being handled (incremented when a decoded
    /// frame enters the handler, decremented when its response is
    /// ready). A live depth, so `Metrics{reset}` never zeroes it.
    pub inflight: Gauge,
    /// Wall-clock duration of the last completed anti-entropy round
    /// (µs).
    pub antientropy_round_us: Gauge,
    /// Wall-clock duration of the last completed staleness-probe round
    /// (µs).
    pub staleness_round_us: Gauge,
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
            connections_accepted: Counter::new(),
            accept_errors: Counter::new(),
            connection_errors: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            probes: Default::default(),
            probe_entries_returned: Counter::new(),
            engines_created: Counter::new(),
            internal_sent: Counter::new(),
            internal_send_failures: Counter::new(),
            antientropy_rounds: Counter::new(),
            antientropy_repairs: Counter::new(),
            staleness_rounds: Counter::new(),
            tombstones_gc: Counter::new(),
            membership_installs: Counter::new(),
            membership_epoch: Gauge::new(),
            migration_keys: Counter::new(),
            migration_entries: Counter::new(),
            migration_pending: Gauge::new(),
            staleness_versions_behind: Histogram::new(),
            request_latency_us: Histogram::new(),
            probe_latency_us: Histogram::new(),
            hot_keys: TopK::new(HOT_KEYS_TRACKED),
            entry_hits: KeyedCounterMap::new(),
            live_unfairness: Gauge::new(),
            live_coverage: Gauge::new(),
            inflight: Gauge::new(),
            antientropy_round_us: Gauge::new(),
            staleness_round_us: Gauge::new(),
        }
    }

    /// Accounts one served probe answer: bumps the hot-key sketch for
    /// the probed key and the per-`(key, entry)` retrieval counter for
    /// every entry returned.
    pub fn record_probe_answer(&self, key: &[u8], entries: &[Vec<u8>]) {
        self.hot_keys.offer(key);
        // One buffer per probe: the `key_entry` prefix is written once
        // and each entry is appended after truncating back to it.
        let mut composite = key_entry(key, &[]);
        let prefix = composite.len();
        for v in entries {
            composite.truncate(prefix);
            composite.extend_from_slice(v);
            self.entry_hits.inc(&composite);
        }
    }

    /// Builds a named snapshot. `keys`/`entries` are point-in-time
    /// gauges supplied by the caller (they live in the engine map, not
    /// here). With `reset`, every counter and histogram is atomically
    /// drained as it is read — the snapshot/reset semantics used by
    /// delta-scraping.
    pub fn collect(&self, keys: u64, entries: u64, reset: bool) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        for op in ReqOp::ALL {
            s.push_counter(
                format!("pls_requests_total{{op=\"{}\"}}", op.as_str()),
                val(&self.requests[op as usize], reset),
            );
        }
        s.push_counter("pls_request_errors_total", val(&self.request_errors, reset));
        s.push_counter("pls_decode_errors_total", val(&self.decode_errors, reset));
        s.push_counter("pls_connections_accepted_total", val(&self.connections_accepted, reset));
        s.push_counter("pls_accept_errors_total", val(&self.accept_errors, reset));
        s.push_counter("pls_connection_errors_total", val(&self.connection_errors, reset));
        s.push_counter("pls_bytes_read_total", val(&self.bytes_read, reset));
        s.push_counter("pls_bytes_written_total", val(&self.bytes_written, reset));
        for (i, label) in STRATEGY_LABELS.iter().enumerate() {
            s.push_counter(
                format!("pls_probes_total{{strategy=\"{label}\"}}"),
                val(&self.probes[i], reset),
            );
        }
        s.push_counter(
            "pls_probe_entries_returned_total",
            val(&self.probe_entries_returned, reset),
        );
        s.push_counter("pls_engines_created_total", val(&self.engines_created, reset));
        s.push_counter("pls_internal_sent_total", val(&self.internal_sent, reset));
        s.push_counter(
            "pls_internal_send_failures_total",
            val(&self.internal_send_failures, reset),
        );
        s.push_counter("pls_antientropy_rounds_total", val(&self.antientropy_rounds, reset));
        s.push_counter("pls_antientropy_repairs_total", val(&self.antientropy_repairs, reset));
        s.push_counter("pls_staleness_rounds_total", val(&self.staleness_rounds, reset));
        s.push_counter("pls_tombstones_gc_total", val(&self.tombstones_gc, reset));
        s.push_counter("pls_membership_installs_total", val(&self.membership_installs, reset));
        s.push_counter("pls_migration_keys_total", val(&self.migration_keys, reset));
        s.push_counter("pls_migration_entries_total", val(&self.migration_entries, reset));
        // Live membership state: the epoch and the migration backlog are
        // point-in-time readings, exempt from `reset` like `inflight`.
        s.push_gauge("pls_membership_epoch", self.membership_epoch.get());
        s.push_gauge("pls_migration_pending", self.migration_pending.get());
        s.push_histogram(
            "pls_staleness_versions_behind",
            if reset {
                self.staleness_versions_behind.take()
            } else {
                self.staleness_versions_behind.snapshot()
            },
        );
        s.push_counter("pls_keys", keys);
        s.push_counter("pls_entries", entries);
        s.push_histogram(
            "pls_request_latency_us",
            if reset { self.request_latency_us.take() } else { self.request_latency_us.snapshot() },
        );
        s.push_histogram(
            "pls_probe_latency_us",
            if reset { self.probe_latency_us.take() } else { self.probe_latency_us.snapshot() },
        );
        // Queue-depth gauges. In-flight is a live depth: resetting it
        // would make the pending decrements drive it negative, so it is
        // exempt from `reset`. The round-duration gauges are
        // last-observation samples and do drain.
        s.push_gauge(labeled("pls_queue_depth", &[("queue", "inflight")]), self.inflight.get());
        s.push_gauge(
            labeled("pls_queue_depth", &[("queue", "antientropy_round_us")]),
            if reset { self.antientropy_round_us.take() } else { self.antientropy_round_us.get() },
        );
        s.push_gauge(
            labeled("pls_queue_depth", &[("queue", "staleness_round_us")]),
            if reset { self.staleness_round_us.take() } else { self.staleness_round_us.get() },
        );
        s.set_help("pls_requests_total", "Requests handled, by operation.");
        s.set_help("pls_request_errors_total", "Requests whose handler returned an error.");
        s.set_help("pls_decode_errors_total", "Frames that failed to decode into a request.");
        s.set_help("pls_connections_accepted_total", "Client connections accepted.");
        s.set_help("pls_accept_errors_total", "accept(2) failures.");
        s.set_help("pls_connection_errors_total", "Connections torn down by protocol violations.");
        s.set_help("pls_bytes_read_total", "Frame bytes read, including headers.");
        s.set_help("pls_bytes_written_total", "Frame bytes written, including headers.");
        s.set_help("pls_probes_total", "Probe requests served, by the key's strategy.");
        s.set_help("pls_probe_entries_returned_total", "Entries returned across probe answers.");
        s.set_help("pls_engines_created_total", "Per-key strategy engines materialized.");
        s.set_help("pls_internal_sent_total", "Server-to-server messages sent.");
        s.set_help("pls_internal_send_failures_total", "Server-to-server sends that failed.");
        s.set_help("pls_antientropy_rounds_total", "Background anti-entropy rounds started.");
        s.set_help("pls_antientropy_repairs_total", "Keys repaired by anti-entropy.");
        s.set_help("pls_staleness_rounds_total", "Background staleness-probe rounds started.");
        s.set_help("pls_tombstones_gc_total", "Delete tombstones dropped by TTL GC.");
        s.set_help("pls_membership_installs_total", "Membership views installed (newer epochs).");
        s.set_help("pls_migration_keys_total", "Keys rebuilt by group migration.");
        s.set_help("pls_migration_entries_total", "Entries applied through migration pulls.");
        s.set_help("pls_membership_epoch", "Epoch of the current membership view.");
        s.set_help(
            "pls_migration_pending",
            "Keys owed to this server under the current epoch but not yet migrated.",
        );
        s.set_help(
            "pls_staleness_versions_behind",
            "Per-holder version lag behind the freshest known version (staleness probes).",
        );
        s.set_help("pls_keys", "Keys this server manages.");
        s.set_help("pls_entries", "Entries stored across keys.");
        s.set_help("pls_request_latency_us", "End-to-end request handling latency (us).");
        s.set_help("pls_probe_latency_us", "Probe handling latency, engine sampling only (us).");
        s.set_help(
            "pls_queue_depth",
            "Queue depths and backlog proxies: in-flight requests, WAL group-commit batch \
             size, last background round durations (us).",
        );
        s
    }

    /// [`ServerMetrics::collect`] plus the live quality series. `stored`
    /// is the server's current `(key, stored entries)` population (it
    /// lives in the engine map, not here); entries a probe never
    /// returned export as explicit zeros, which is exactly what the
    /// unfairness computation needs.
    ///
    /// Beyond the base counters, the snapshot carries:
    ///
    /// * `pls_entry_hits_total{key=..,entry=..}` — retrievals per stored
    ///   `(key, entry)` pair (hits for since-deleted entries are
    ///   dropped). Summing these across servers recovers cluster totals.
    /// * `pls_live_unfairness` — mean, over keys with any traffic, of
    ///   the CoV of that key's per-entry hit counts (the §4.5 eq. (1)
    ///   unfairness measured on live traffic).
    /// * `pls_live_coverage` — distinct stored entries retrieved at
    ///   least once / entries stored (0 when nothing is stored).
    /// * `pls_hot_key_probes{key=..}` — the sketch's
    ///   [`HOT_KEYS_EXPORTED`] heaviest keys (counts are Space-Saving
    ///   overestimates; exposed as a gauge family, since evictions and
    ///   resets make them non-monotonic).
    ///
    /// Key and entry bytes become label values via lossy UTF-8.
    /// With `reset`, the sketch and the per-entry counters are drained
    /// along with everything else.
    pub fn collect_live(&self, stored: &[(Vec<u8>, Vec<Vec<u8>>)], reset: bool) -> MetricsSnapshot {
        let keys = stored.len() as u64;
        let entries: u64 = stored.iter().map(|(_, es)| es.len() as u64).sum();
        let mut s = self.collect(keys, entries, reset);

        let hits = if reset { self.entry_hits.take() } else { self.entry_hits.snapshot() };
        let hot = if reset { self.hot_keys.take() } else { self.hot_keys.snapshot() };

        let mut observed = 0u64;
        let mut cov_sum = 0.0;
        let mut keys_with_traffic = 0usize;
        for (key, stored_entries) in stored {
            let counts: Vec<u64> =
                stored_entries.iter().map(|v| hits.get(&key_entry(key, v)).unwrap_or(0)).collect();
            for (v, &c) in stored_entries.iter().zip(&counts) {
                let key_label = String::from_utf8_lossy(key);
                let entry_label = String::from_utf8_lossy(v);
                s.push_counter(
                    labeled(
                        "pls_entry_hits_total",
                        &[("key", &key_label), ("entry", &entry_label)],
                    ),
                    c,
                );
            }
            observed += counts.iter().filter(|&&c| c > 0).count() as u64;
            if counts.iter().any(|&c| c > 0) {
                cov_sum += cov_from_counts(&counts);
                keys_with_traffic += 1;
            }
        }
        let unfairness =
            if keys_with_traffic == 0 { 0.0 } else { cov_sum / keys_with_traffic as f64 };
        let coverage = if entries == 0 { 0.0 } else { observed as f64 / entries as f64 };
        self.live_unfairness.set(unfairness);
        self.live_coverage.set(coverage);
        s.push_gauge("pls_live_unfairness", unfairness);
        s.push_gauge("pls_live_coverage", coverage);
        for e in hot.top(HOT_KEYS_EXPORTED) {
            let key_label = String::from_utf8_lossy(&e.key);
            s.push_counter(labeled("pls_hot_key_probes", &[("key", &key_label)]), e.count);
        }
        s.set_help("pls_entry_hits_total", "Retrievals per stored (key, entry) pair.");
        s.set_help("pls_live_unfairness", "Mean per-key CoV of entry hit counts (paper 4.5).");
        s.set_help("pls_live_coverage", "Fraction of stored entries retrieved at least once.");
        s.set_help("pls_hot_key_probes", "Space-Saving estimate of the hottest probed keys.");
        s
    }
}

/// Recomputes **cluster-level** live quality from a merged snapshot's
/// `pls_entry_hits_total` series. Same-named series sum under
/// [`MetricsSnapshot::merge`], so each pair's count is the cluster-wide
/// retrieval total and the union of series covers every entry stored
/// anywhere — per-server gauges cannot be combined (each server only
/// sees its own share), but the counters can.
///
/// Returns `(unfairness, coverage)` — the mean per-key CoV of entry hit
/// counts and the fraction of known entries retrieved at least once —
/// or `None` when the snapshot carries no per-entry series.
pub fn live_quality_from_merged(snap: &MetricsSnapshot) -> Option<(f64, f64)> {
    let mut per_key: std::collections::BTreeMap<String, Vec<u64>> =
        std::collections::BTreeMap::new();
    for (name, value) in &snap.counters {
        let Some((family, labels)) = parse_labels(name) else {
            continue;
        };
        if family != "pls_entry_hits_total" {
            continue;
        }
        let Some((_, key)) = labels.iter().find(|(k, _)| k == "key") else {
            continue;
        };
        per_key.entry(key.clone()).or_default().push(*value);
    }
    if per_key.is_empty() {
        return None;
    }
    let mut observed = 0u64;
    let mut total = 0u64;
    let mut cov_sum = 0.0;
    let mut keys_with_traffic = 0usize;
    for counts in per_key.values() {
        total += counts.len() as u64;
        observed += counts.iter().filter(|&&c| c > 0).count() as u64;
        if counts.iter().any(|&c| c > 0) {
            cov_sum += cov_from_counts(counts);
            keys_with_traffic += 1;
        }
    }
    let unfairness = if keys_with_traffic == 0 { 0.0 } else { cov_sum / keys_with_traffic as f64 };
    let coverage = if total == 0 { 0.0 } else { observed as f64 / total as f64 };
    Some((unfairness, coverage))
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
    let mut merged = SiteSnapshot {
        acquisitions: 0,
        contended: 0,
        wait_us: HistogramSnapshot::empty(),
        hold_us: HistogramSnapshot::empty(),
    };
    for stats in sites {
        if reset {
            merged.wait_us.merge(&stats.wait_us.take());
            merged.hold_us.merge(&stats.hold_us.take());
            merged.acquisitions += stats.acquisitions.take();
            merged.contended += stats.contended.take();
        } else {
            let snap = stats.snapshot();
            merged.wait_us.merge(&snap.wait_us);
            merged.hold_us.merge(&snap.hold_us);
            merged.acquisitions += snap.acquisitions;
            merged.contended += snap.contended;
        }
    }
    merged
}

/// Client-library runtime counters and histograms.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Partial lookups started (sequential and parallel).
    pub lookups: Counter,
    /// Probe RPCs that reached a server and answered.
    pub probes: Counter,
    /// Probe attempts skipped because the server was unreachable.
    pub probe_failures: Counter,
    /// Update operations (place/add/delete) issued.
    pub updates: Counter,
    /// Update attempts retried on another server after an I/O failure.
    pub update_retries: Counter,
    /// Updates that failed on every server.
    pub update_failures: Counter,
    /// Servers contacted per completed lookup — the live-measured §4.2
    /// client lookup cost.
    pub probes_per_lookup: Histogram,
    /// Wall-clock latency per completed lookup, microseconds.
    pub lookup_latency_us: Histogram,
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
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a named snapshot of the client-side metrics.
    pub fn collect(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_client_lookups_total", self.lookups.get());
        s.push_counter("pls_client_probes_total", self.probes.get());
        s.push_counter("pls_client_probe_failures_total", self.probe_failures.get());
        s.push_counter("pls_client_updates_total", self.updates.get());
        s.push_counter("pls_client_update_retries_total", self.update_retries.get());
        s.push_counter("pls_client_update_failures_total", self.update_failures.get());
        s.push_histogram("pls_client_probes_per_lookup", self.probes_per_lookup.snapshot());
        s.push_histogram("pls_client_lookup_latency_us", self.lookup_latency_us.snapshot());
        s.push_histogram("pls_client_probe_latency_us", self.probe_latency_us.snapshot());
        s.push_histogram("pls_client_probe_service_us", self.probe_service_us.snapshot());
        s.push_histogram("pls_client_probe_net_us", self.probe_net_us.snapshot());
        s.push_counter("pls_client_hedges_total", self.hedges.get());
        s.push_counter("pls_client_hedge_wins_total", self.hedge_wins.get());
        s.push_histogram("pls_client_hedge_win_latency_us", self.hedge_win_latency_us.snapshot());
        s.push_counter("pls_client_op_budget_exhausted_total", self.op_budget_exhausted.get());
        s.set_help("pls_client_probes_per_lookup", "Servers contacted per lookup (paper 4.2).");
        s.set_help("pls_client_lookup_latency_us", "Wall-clock latency per lookup (us).");
        s.set_help("pls_client_probe_latency_us", "Wall-clock latency per answered probe (us).");
        s.set_help("pls_client_probe_service_us", "Server-echoed handling time per probe (us).");
        s.set_help("pls_client_probe_net_us", "Network share of probe latency: RTT - service.");
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
        let s = m.collect(3, 40, false);
        assert_eq!(s.counter("pls_requests_total{op=\"probe\"}"), Some(2));
        assert_eq!(s.counter("pls_requests_total{op=\"place\"}"), Some(0));
        assert_eq!(s.counter("pls_probes_total{strategy=\"random\"}"), Some(2));
        assert_eq!(s.counter("pls_bytes_read_total"), Some(100));
        assert_eq!(s.counter("pls_keys"), Some(3));
        assert_eq!(s.counter("pls_entries"), Some(40));
        assert_eq!(s.histogram("pls_request_latency_us").unwrap().count, 1);
    }

    #[test]
    fn server_collect_with_reset_drains() {
        let m = ServerMetrics::new();
        m.requests[ReqOp::Add as usize].add(5);
        m.probe_latency_us.observe(9);
        let first = m.collect(0, 0, true);
        assert_eq!(first.counter("pls_requests_total{op=\"add\"}"), Some(5));
        assert_eq!(first.histogram("pls_probe_latency_us").unwrap().count, 1);
        let second = m.collect(0, 0, false);
        assert_eq!(second.counter("pls_requests_total{op=\"add\"}"), Some(0));
        assert!(second.histogram("pls_probe_latency_us").unwrap().is_empty());
    }

    #[test]
    fn membership_families_export_and_epoch_survives_reset() {
        let m = ServerMetrics::new();
        m.membership_epoch.set(3.0);
        m.membership_installs.add(2);
        m.migration_keys.add(5);
        m.migration_entries.add(40);
        m.migration_pending.set(7.0);
        let first = m.collect(0, 0, true);
        assert_eq!(first.counter("pls_membership_installs_total"), Some(2));
        assert_eq!(first.counter("pls_migration_keys_total"), Some(5));
        assert_eq!(first.counter("pls_migration_entries_total"), Some(40));
        assert_eq!(first.gauge("pls_membership_epoch"), Some(3.0));
        assert_eq!(first.gauge("pls_migration_pending"), Some(7.0));
        // Counters drain on reset; the live epoch and backlog readings
        // do not — a delta scrape must never report epoch 0.
        let second = m.collect(0, 0, false);
        assert_eq!(second.counter("pls_membership_installs_total"), Some(0));
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
        m.staleness_round_us.set(800.0);
        let first = m.collect(0, 0, true);
        assert_eq!(first.gauge("pls_queue_depth{queue=\"inflight\"}"), Some(3.0));
        assert_eq!(first.gauge("pls_queue_depth{queue=\"antientropy_round_us\"}"), Some(1500.0));
        assert_eq!(first.gauge("pls_queue_depth{queue=\"staleness_round_us\"}"), Some(800.0));
        // Reset drained the round durations but left the live depth, so
        // the pending decrements still land at zero, not below it.
        let second = m.collect(0, 0, false);
        assert_eq!(second.gauge("pls_queue_depth{queue=\"inflight\"}"), Some(3.0));
        assert_eq!(second.gauge("pls_queue_depth{queue=\"antientropy_round_us\"}"), Some(0.0));
        m.inflight.add(-3.0);
        assert_eq!(m.inflight.get(), 0.0);
    }

    #[test]
    fn key_entry_is_length_prefixed_and_unambiguous() {
        assert_eq!(key_entry(b"song", b"server7"), b"\0\0\0\x04songserver7");
        assert_eq!(key_entry(b"", b""), [0, 0, 0, 0]);
        // Ambiguity check: (key, entry) boundaries survive shifty bytes.
        assert_ne!(key_entry(b"ab", b"c"), key_entry(b"a", b"bc"));
    }

    #[test]
    fn collect_live_computes_unfairness_coverage_and_hot_keys() {
        let m = ServerMetrics::new();
        // Key "a" stores e1, e2; probes returned e1 three times, e2 once.
        m.record_probe_answer(b"a", &[b"e1".to_vec()]);
        m.record_probe_answer(b"a", &[b"e1".to_vec(), b"e2".to_vec()]);
        m.record_probe_answer(b"a", &[b"e1".to_vec()]);
        // Key "b" stores e3 but never saw a probe.
        let stored = vec![
            (b"a".to_vec(), vec![b"e1".to_vec(), b"e2".to_vec()]),
            (b"b".to_vec(), vec![b"e3".to_vec()]),
        ];
        let s = m.collect_live(&stored, false);

        assert_eq!(s.counter("pls_entry_hits_total{key=\"a\",entry=\"e1\"}"), Some(3));
        assert_eq!(s.counter("pls_entry_hits_total{key=\"a\",entry=\"e2\"}"), Some(1));
        assert_eq!(s.counter("pls_entry_hits_total{key=\"b\",entry=\"e3\"}"), Some(0));
        assert_eq!(s.counter("pls_hot_key_probes{key=\"a\"}"), Some(3));
        assert_eq!(s.counter("pls_keys"), Some(2));
        assert_eq!(s.counter("pls_entries"), Some(3));

        // Only key "a" has traffic: counts [3, 1] => mean 2, std 1.
        let u = s.gauge("pls_live_unfairness").unwrap();
        assert!((u - 0.5).abs() < 1e-12, "{u}");
        assert_eq!(m.live_unfairness.get(), u);
        // 2 of 3 stored entries were ever retrieved.
        let c = s.gauge("pls_live_coverage").unwrap();
        assert!((c - 2.0 / 3.0).abs() < 1e-12, "{c}");
        assert_eq!(m.live_coverage.get(), c);
    }

    #[test]
    fn collect_live_with_reset_drains_sketch_and_hits() {
        let m = ServerMetrics::new();
        m.record_probe_answer(b"k", &[b"v".to_vec()]);
        let stored = vec![(b"k".to_vec(), vec![b"v".to_vec()])];
        let first = m.collect_live(&stored, true);
        assert_eq!(first.counter("pls_entry_hits_total{key=\"k\",entry=\"v\"}"), Some(1));
        assert_eq!(first.gauge("pls_live_coverage"), Some(1.0));
        let second = m.collect_live(&stored, false);
        assert_eq!(second.counter("pls_entry_hits_total{key=\"k\",entry=\"v\"}"), Some(0));
        assert_eq!(second.gauge("pls_live_coverage"), Some(0.0));
        assert_eq!(second.counter("pls_hot_key_probes{key=\"k\"}"), None);
    }

    #[test]
    fn collect_live_on_empty_server_is_all_zeros() {
        let m = ServerMetrics::new();
        let s = m.collect_live(&[], false);
        assert_eq!(s.gauge("pls_live_unfairness"), Some(0.0));
        assert_eq!(s.gauge("pls_live_coverage"), Some(0.0));
    }

    #[test]
    fn live_quality_from_merged_recomputes_cluster_level_values() {
        // Two servers each holding half of one key's 4 entries; merged,
        // the per-entry totals are [4, 4, 0, 0]: CoV = std/mean = 1,
        // coverage = 1/2. Neither server's own gauge equals either.
        let a = ServerMetrics::new();
        for _ in 0..4 {
            a.record_probe_answer(b"k", &[b"e1".to_vec()]);
        }
        let b = ServerMetrics::new();
        for _ in 0..4 {
            b.record_probe_answer(b"k", &[b"e2".to_vec()]);
        }
        let stored_a = vec![(b"k".to_vec(), vec![b"e1".to_vec(), b"e3".to_vec()])];
        let stored_b = vec![(b"k".to_vec(), vec![b"e2".to_vec(), b"e4".to_vec()])];
        let mut merged = a.collect_live(&stored_a, false);
        merged.merge(&b.collect_live(&stored_b, false));

        let (u, c) = live_quality_from_merged(&merged).unwrap();
        assert!((u - 1.0).abs() < 1e-12, "{u}");
        assert!((c - 0.5).abs() < 1e-12, "{c}");
        assert_eq!(live_quality_from_merged(&MetricsSnapshot::new()), None);
    }

    #[test]
    fn client_collect_includes_lookup_cost_histogram() {
        let m = ClientMetrics::new();
        m.lookups.inc();
        m.probes.add(3);
        m.probes_per_lookup.observe(3);
        let s = m.collect();
        assert_eq!(s.counter("pls_client_lookups_total"), Some(1));
        let h = s.histogram("pls_client_probes_per_lookup").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3);
    }
}
