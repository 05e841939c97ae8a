//! The one place a `pls_*` family is described: its name, kind, label
//! keys, HELP text and who reads it. `/metrics`, `pls-client stats --raw`
//! and `Client::metrics_snapshot` get their HELP lines from [`stamp`];
//! README §Observability's table is [`catalogue_markdown`];
//! `metrics_lint` checks a live scrape against the rows, both ways. A
//! family with nobody in its `read_by` column does not belong here.

use pls_telemetry::MetricsSnapshot;

use Kind::{Counter, Gauge, Histogram};
use Side::{Both, Client, Server};

/// What a family's samples are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total; the name ends in `_total` (and only then).
    Counter,
    /// A level. Integer levels that must *sum* under a cluster merge
    /// (`pls_keys`, `pls_entries`, `pls_hot_key_probes`) travel in the
    /// snapshot's counter list and are typed `gauge` by the exposition's
    /// suffix rule.
    Gauge,
    /// Log₂-bucket distribution (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl Kind {
    /// The `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Which snapshot carries the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A server's Metrics RPC / `GET /metrics`.
    Server,
    /// `Client::metrics_snapshot`.
    Client,
    /// Both: servers are RPC clients of each other.
    Both,
}

/// One catalogue row.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The family name (series are `name` or `name{labels}`).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
    /// Which snapshot carries it.
    pub side: Side,
    /// The label keys every series of the family carries, in order.
    pub labels: &'static [&'static str],
    /// The `# HELP` text.
    pub help: &'static str,
    /// Who reads it: `stats`, `top`, an SLO, a soak audit, the loadgen
    /// artifact, a CI grep, a test file, a runbook step.
    pub read_by: &'static str,
}

const fn row(
    side: Side,
    kind: Kind,
    name: &'static str,
    labels: &'static [&'static str],
    help: &'static str,
    read_by: &'static str,
) -> Family {
    Family { name, kind, side, labels, help, read_by }
}

/// Every exported family, server side first.
#[rustfmt::skip]
pub const CATALOGUE: &[Family] = &[
    // Requests and bytes.
    row(Server, Counter, "pls_requests_total", &["op"], "Requests handled, by operation.", "stats, top, SLO availability, /debug/timeline, soak timeline audit"),
    row(Server, Counter, "pls_request_errors_total", &[], "Requests whose handler returned an error.", "stats, top, SLO availability, /debug/timeline"),
    row(Server, Counter, "pls_decode_errors_total", &[], "Frames that failed to decode into a request.", "tests/membership.rs"),
    row(Server, Counter, "pls_accept_errors_total", &[], "accept(2) failures.", "stats (robustness), soak monotone audit"),
    row(Server, Counter, "pls_connection_errors_total", &[], "Connections torn down by protocol violations.", "stats (robustness), soak monotone audit"),
    row(Server, Counter, "pls_bytes_read_total", &[], "Frame bytes read, including headers.", "tests/live_cluster.rs"),
    row(Server, Counter, "pls_bytes_written_total", &[], "Frame bytes written, including headers.", "tests/live_cluster.rs"),
    row(Server, Counter, "pls_probes_total", &["strategy"], "Probe requests served, by the key's strategy.", "stats, top, loadgen artifact, /debug/timeline, soak timeline audit"),
    row(Server, Counter, "pls_engines_created_total", &[], "Per-key strategy engines materialized.", "tests/live_cluster.rs"),
    row(Server, Counter, "pls_internal_sent_total", &[], "Server-to-server messages sent.", "top, SLO availability, /debug/timeline, soak timeline audit"),
    row(Server, Counter, "pls_internal_send_failures_total", &[], "Server-to-server sends that failed.", "top, SLO availability, /debug/timeline"),
    // `pls_keys`, `pls_entries` and `pls_hot_key_probes` are levels that must sum on merge: pushed
    // as counters, typed `gauge` by the exposition's `_total` suffix rule.
    row(Server, Gauge, "pls_keys", &[], "Keys this server manages.", "stats, tests/live_cluster.rs"),
    row(Server, Gauge, "pls_entries", &[], "Entries stored across keys.", "stats, tests/live_cluster.rs"),
    row(Server, Histogram, "pls_request_latency_us", &[], "End-to-end request handling latency (us).", "stats, top, SLO latency"),
    row(Server, Histogram, "pls_probe_latency_us", &[], "Probe handling latency, engine sampling only (us).", "stats, top"),
    // Live quality: the paper's §4 metrics on production traffic.
    row(Server, Counter, "pls_entry_hits_total", &["key", "entry"], "Retrievals per stored (key, entry) pair.", "Client::cluster_metrics (cluster-level unfairness and coverage)"),
    row(Server, Gauge, "pls_live_unfairness", &[], "Mean per-key CoV of entry hit counts (paper 4.5).", "stats, tests/live_cluster.rs"),
    row(Server, Gauge, "pls_live_coverage", &[], "Fraction of stored entries retrieved at least once.", "stats, tests/live_cluster.rs"),
    row(Server, Gauge, "pls_hot_key_probes", &["key"], "Space-Saving estimate of the hottest probed keys.", "stats, top"),
    row(Server, Gauge, "pls_live_fault_tolerance", &["t"], "Greedy-adversary fault tolerance of the live placement (min across anti-entropy-checked keys, per coverage threshold t).", "stats, tests/consistency.rs"),
    row(Server, Gauge, "pls_live_staleness", &["strategy", "t"], "Estimated probability that a partial lookup probing t holders returns the freshest version (PBS-style, averaged over the keys a repair round compared, per strategy). Upper bound for the targeted strategies (hash, round): the estimator assumes probes sample holders uniformly, but those clients probe deterministically chosen holders.", "stats, SLO staleness, /debug/timeline, soak staleness audit, loadgen artifact"),
    row(Server, Histogram, "pls_staleness_versions_behind", &[], "Per-holder version lag behind the freshest known version: one observation per holder of each key a repair round compared.", "stats, loadgen artifact"),
    row(Server, Gauge, "pls_tombstones_live", &[], "Delete tombstones currently held across this server's keys (awaiting TTL garbage collection).", "stats, loadgen artifact"),
    row(Server, Counter, "pls_tombstones_gc_total", &[], "Delete tombstones dropped by TTL GC.", "stats, loadgen artifact"),
    // Durability, repair, membership.
    row(Server, Counter, "pls_wal_appends_total", &[], "Engine messages appended to the write-ahead log.", "stats, /debug/timeline, soak timeline audit, CI crash grep"),
    row(Server, Counter, "pls_wal_fsyncs_total", &[], "WAL fsyncs issued (group commit coalesces appends).", "stats"),
    row(Server, Counter, "pls_wal_replayed_total", &[], "WAL records replayed into engines at startup.", "stats, CI crash grep, tests/durability.rs"),
    row(Server, Counter, "pls_wal_checkpoints_total", &[], "Checkpoint snapshots written.", "stats, tests/durability.rs"),
    row(Server, Counter, "pls_antientropy_rounds_total", &[], "Background anti-entropy rounds started.", "stats, loadgen artifact (CI bench-smoke), CI crash grep, tests/consistency.rs"),
    row(Server, Counter, "pls_antientropy_repairs_total", &[], "Keys repaired by anti-entropy.", "stats, tests/consistency.rs, tests/durability.rs"),
    row(Server, Gauge, "pls_membership_epoch", &[], "Epoch of the current membership view.", "soak epoch audit, tests/membership.rs"),
    row(Server, Counter, "pls_migration_entries_total", &[], "Entries applied through migration pulls.", "soak migration audit, CI churn grep, tests/membership.rs"),
    row(Server, Gauge, "pls_migration_pending", &[], "Keys owed to this server under the current epoch but not yet migrated.", "soak migration audit"),
    // SLOs.
    row(Server, Gauge, "pls_slo_error_budget_remaining", &["slo"], "Fraction of each objective's error budget left (1 = untouched, 0 = spent, negative = overspent).", "top"),
    row(Server, Gauge, "pls_slo_burn_rate", &["slo", "window"], "Error-budget burn rate per objective over the fast/slow window (1 = burning exactly at budget; 0 = not burning).", "top, soak burn audits"),
    // Performance observatory.
    row(Server, Histogram, "pls_lock_wait_us", &["site"], "Time lock() blocked before acquiring, per lock site (us; 0 = uncontended fast path).", "stats, top, /debug/contention, loadgen artifact (pls-bench compare)"),
    row(Server, Histogram, "pls_lock_hold_us", &["site"], "Time the lock was held, per lock site (us).", "stats, /debug/contention, loadgen artifact"),
    row(Server, Counter, "pls_lock_acquisitions_total", &["site"], "Successful lock acquisitions, per lock site.", "stats, /debug/contention, loadgen artifact (CI bench-smoke)"),
    row(Server, Counter, "pls_lock_contended_total", &["site"], "Acquisitions that found the lock held and had to wait, per lock site.", "stats, /debug/contention, loadgen artifact"),
    row(Server, Gauge, "pls_shard_keys", &["server", "shard"], "Keys owned by each shared-nothing shard of each server.", "stats, /debug/contention"),
    row(Server, Gauge, "pls_shard_lock_acquisitions", &["server", "shard", "site"], "Lock acquisitions per shard and site since the last resetting scrape (non-draining snapshot of the per-shard mutex).", "stats, /debug/contention"),
    row(Server, Gauge, "pls_shard_lock_wait_p99_us", &["server", "shard", "site"], "p99 lock wait per shard and site since the last resetting scrape (us).", "stats, /debug/contention"),
    row(Server, Counter, "pls_alloc_allocs_total", &[], "Heap allocations since the last reset (0 unless the binary installs the counting allocator).", "stats, /debug/contention, loadgen artifact (pls-bench compare)"),
    row(Server, Counter, "pls_alloc_frees_total", &[], "Heap frees since the last reset.", "stats, /debug/contention, loadgen artifact"),
    row(Server, Counter, "pls_alloc_bytes_total", &[], "Bytes allocated since the last reset.", "stats, /debug/contention, loadgen artifact"),
    row(Server, Counter, "pls_alloc_freed_bytes_total", &[], "Bytes freed since the last reset.", "/debug/contention, loadgen artifact"),
    row(Server, Gauge, "pls_alloc_current_bytes", &[], "Bytes currently live on the process heap.", "/debug/contention, perf runbook step 2 (leak check)"),
    row(Server, Gauge, "pls_alloc_peak_bytes", &[], "High-water mark of live heap bytes (process-wide).", "stats, /debug/contention"),
    row(Server, Gauge, "pls_queue_depth", &["queue"], "Queue depths and backlog proxies: in-flight requests, WAL group-commit batch size, last anti-entropy round duration (us).", "stats, top, /debug/contention, /debug/timeline, soak inflight audit, loadgen artifact"),
    // RPC robustness: servers (as each other's clients) and the client library.
    row(Both, Counter, "pls_rpc_timeouts_total", &[], "RPC attempts that hit their deadline.", "stats, loadgen artifact, CI chaos grep, tests/chaos.rs"),
    row(Both, Counter, "pls_rpc_retries_total", &[], "RPC attempts retried after a transient failure.", "stats, loadgen artifact"),
    row(Both, Counter, "pls_breaker_opens_total", &[], "Circuit breakers tripped open.", "stats, tests/chaos.rs"),
    row(Both, Counter, "pls_breaker_fast_fails_total", &[], "Calls refused by an open circuit breaker.", "stats, tests/chaos.rs"),
    // Client library.
    row(Client, Counter, "pls_client_probes_total", &[], "Probe RPCs that reached a server and answered.", "loadgen artifact, tests/live_cluster.rs"),
    row(Client, Counter, "pls_client_probe_failures_total", &[], "Probe attempts skipped because the server was unreachable.", "loadgen artifact"),
    row(Client, Counter, "pls_client_update_failures_total", &[], "Update operations (place/add/delete) that returned an error.", "stats (robustness)"),
    row(Client, Counter, "pls_client_pool_dial_failures_total", &[], "TCP dials that failed, over every per-server pool.", "stats (robustness)"),
    row(Client, Histogram, "pls_client_probes_per_lookup", &[], "Servers contacted per lookup (paper 4.2); its count is the lookups completed.", "loadgen artifact, tests/live_cluster.rs"),
    row(Client, Histogram, "pls_client_probe_latency_us", &[], "Wall-clock latency per answered probe (us).", "loadgen artifact"),
    row(Client, Histogram, "pls_client_probe_service_us", &[], "Server-echoed handling time per probe (us).", "loadgen artifact"),
    row(Client, Histogram, "pls_client_probe_net_us", &[], "Network share of probe latency: RTT - service.", "loadgen artifact"),
    row(Client, Counter, "pls_client_hedges_total", &[], "Hedged probes launched.", "stats, loadgen artifact, tests/chaos.rs"),
    row(Client, Counter, "pls_client_hedge_wins_total", &[], "Hedged probes that answered before the probe they hedged.", "stats, loadgen artifact, tests/chaos.rs"),
    row(Client, Histogram, "pls_client_hedge_win_latency_us", &[], "Latency of winning hedged probes (us).", "tests/chaos.rs"),
    row(Client, Counter, "pls_client_op_budget_exhausted_total", &[], "Operations whose per-operation budget expired before they finished.", "stats, loadgen artifact, tests/chaos.rs"),
];

/// Stamps every catalogue HELP text onto `s` — the one caller of
/// `set_help` outside `pls-telemetry`. HELP does not travel in
/// `Response::Metrics`, so whoever renders a snapshot as text stamps it
/// first.
pub fn stamp(s: &mut MetricsSnapshot) {
    for f in CATALOGUE {
        s.set_help(f.name, f.help);
    }
}

/// README §Observability's generated block, between (and including) its
/// two marker lines.
pub fn catalogue_markdown() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "<!-- catalogue:begin — generated from pls_wire::metrics::CATALOGUE; \
         `cargo test -p pls-wire catalogue` prints this block when it drifts -->\n\
         | family | type | from | labels | HELP | read by |\n|---|---|---|---|---|---|\n",
    );
    for f in CATALOGUE {
        let side = match f.side {
            Server => "server",
            Client => "client",
            Both => "both",
        };
        let labels = f.labels.iter().map(|l| format!("`{l}`")).collect::<Vec<_>>().join(" ");
        let _ = writeln!(
            out,
            "| `{}` | {} | {side} | {labels} | {} | {} |",
            f.name,
            f.kind.as_str(),
            f.help,
            f.read_by
        );
    }
    out.push_str("<!-- catalogue:end -->\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_unique_and_total_means_counter() {
        for (i, f) in CATALOGUE.iter().enumerate() {
            assert!(f.name.starts_with("pls_"), "{}", f.name);
            assert!(CATALOGUE[..i].iter().all(|g| g.name != f.name), "{} twice", f.name);
            assert_eq!(
                f.name.ends_with("_total"),
                f.kind == Kind::Counter,
                "{}: `_total` <=> counter",
                f.name
            );
            assert!(!f.help.is_empty() && !f.read_by.is_empty(), "{} has no reader", f.name);
            assert!(
                !f.help.contains('|') && !f.read_by.contains('|'),
                "{} breaks the table",
                f.name
            );
        }
        let staleness = CATALOGUE.iter().find(|f| f.name == "pls_live_staleness").unwrap();
        assert!(staleness.help.contains("Upper bound for the targeted strategies"));
    }

    #[test]
    fn stamp_puts_the_catalogue_help_on_an_exposition() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_requests_total{op=\"probe\"}", 1);
        stamp(&mut s);
        let text = s.to_prometheus();
        assert!(text.contains("# HELP pls_requests_total Requests handled, by operation.\n"));
        assert_eq!(text.matches("# HELP").count(), 1, "HELP only for families with samples");
    }

    #[test]
    fn readme_catalogue_block_is_generated() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md");
        let expected = catalogue_markdown();
        let end_marker = "<!-- catalogue:end -->\n";
        let block = readme.find("<!-- catalogue:begin").and_then(|begin| {
            let end = begin + readme[begin..].find(end_marker)? + end_marker.len();
            Some(&readme[begin..end])
        });
        assert!(
            block == Some(expected.as_str()),
            "README.md's catalogue block is missing or differs from the table; it must read:\n\n{expected}"
        );
    }
}
