//! What the debug endpoints and dashboards show, as pure functions of a
//! [`MetricsSnapshot`] (or a [`Timeline`] of them): no socket, no server
//! state. `collect_metrics` in `pls-cluster` is the only reader of server
//! state; `GET /debug/contention`, `GET /debug/timeline`, `pls-client
//! stats`/`top` and `loadgen`'s `runtime` block all read its snapshot
//! through the extractors here, so a row means the same thing everywhere.

use std::collections::BTreeMap;
use std::time::Duration;

use pls_telemetry::json::{array, number, Object};
use pls_telemetry::snapshot::labeled;
use pls_telemetry::{Delta, HistogramSnapshot, MetricsSnapshot, SloStatus, Timeline};

/// A histogram as JSON: count, sum, mean and the quantiles any consumer
/// reads (`/debug/contention`, every `BENCH_*.json` latency block).
pub fn hist_json(h: &HistogramSnapshot) -> String {
    Object::new()
        .u64("count", h.count)
        .u64("sum", h.sum)
        .f64("mean", h.mean())
        .f64("p50", h.quantile(0.50))
        .f64("p90", h.quantile(0.90))
        .f64("p99", h.quantile(0.99))
        .f64("p999", h.quantile(0.999))
        .build()
}

/// One instrumented lock site's row.
#[derive(Debug, Clone, PartialEq)]
pub struct LockSite {
    /// The `site` label: `engines`, `wal`, `membership`, ...
    pub site: String,
    /// `pls_lock_acquisitions_total{site}`.
    pub acquisitions: u64,
    /// `pls_lock_contended_total{site}`.
    pub contended: u64,
    /// `pls_lock_wait_us{site}`.
    pub wait_us: HistogramSnapshot,
    /// `pls_lock_hold_us{site}`.
    pub hold_us: HistogramSnapshot,
}

/// The lock sites a snapshot carries (one per `pls_lock_wait_us{site}`
/// series), sorted by site. Over a [`Delta`]'s `changed` the rows are the
/// growth in the span.
pub fn lock_sites(snap: &MetricsSnapshot) -> Vec<LockSite> {
    let mut sites: Vec<LockSite> = snap
        .histograms_of("pls_lock_wait_us")
        .filter_map(|(labels, wait)| {
            let site = labels.get("site")?;
            let of = |family: &str| labeled(family, &[("site", site)]);
            Some(LockSite {
                site: site.to_string(),
                acquisitions: snap.counter(&of("pls_lock_acquisitions_total")).unwrap_or(0),
                contended: snap.counter(&of("pls_lock_contended_total")).unwrap_or(0),
                wait_us: wait.clone(),
                hold_us: snap.histogram(&of("pls_lock_hold_us")).cloned().unwrap_or_default(),
            })
        })
        .collect();
    sites.sort_by(|a, b| a.site.cmp(&b.site));
    sites
}

/// `{"<site>": {acquisitions, contended, wait_us, hold_us}, ...}`.
pub fn lock_sites_json(snap: &MetricsSnapshot) -> String {
    let row = |s: &LockSite| {
        Object::new()
            .u64("acquisitions", s.acquisitions)
            .u64("contended", s.contended)
            .field("wait_us", &hist_json(&s.wait_us))
            .field("hold_us", &hist_json(&s.hold_us))
            .build()
    };
    lock_sites(snap).iter().fold(Object::new(), |o, s| o.field(&s.site, &row(s))).build()
}

/// The columns of a shard's drill-down row: the order `stats` prints
/// them in and the keys `/debug/contention` gives them.
pub const SHARD_COLUMNS: [&str; 5] =
    ["keys", "engines_acquisitions", "engines_wait_p99_us", "wal_acquisitions", "wal_wait_p99_us"];

/// `(server, shard)` → its [`SHARD_COLUMNS`], from the
/// `pls_shard_*{server,shard,site}` gauges the Metrics RPC carries; `None`
/// where a server does not export the column (`wal` when memory-only).
pub fn shard_rows(snap: &MetricsSnapshot) -> BTreeMap<(u64, u64), [Option<f64>; 5]> {
    let mut rows = BTreeMap::<_, [Option<f64>; 5]>::new();
    let families = ["pls_shard_keys", "pls_shard_lock_acquisitions", "pls_shard_lock_wait_p99_us"];
    for (base, family) in families.into_iter().enumerate() {
        for (labels, value) in snap.gauges_of(family) {
            let id = |key: &str| labels.get(key).and_then(|v| v.parse::<u64>().ok());
            let column = match labels.get("site") {
                None => 0,
                Some("engines") => base,
                Some("wal") => base + 2,
                Some(_) => continue,
            };
            if let (Some(server), Some(shard)) = (id("server"), id("shard")) {
                rows.entry((server, shard)).or_default()[column] = Some(value);
            }
        }
    }
    rows
}

/// The series of a gauge family keyed by one label, sorted by that
/// label's value: queue depths by `queue`, fault tolerance by `t`.
pub fn gauges_by(snap: &MetricsSnapshot, family: &str, label: &str) -> Vec<(String, f64)> {
    let mut rows: Vec<(String, f64)> = snap
        .gauges_of(family)
        .filter_map(|(labels, v)| Some((labels.get(label)?.to_string(), v)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// The hottest keys of a (possibly cluster-merged) snapshot, hottest
/// first, ties by key.
pub fn hot_keys(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut hot: Vec<(String, u64)> = snap
        .counters_of("pls_hot_key_probes")
        .filter_map(|(labels, v)| Some((labels.get("key")?.to_string(), v)))
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hot
}

/// `GET /debug/contention`: where the server's own time and memory go —
/// `sites` (per lock site), `shards` (which shard a hot site is),
/// `alloc` (the counting allocator) and `queues` (backlog gauges).
pub fn contention_json(snap: &MetricsSnapshot) -> String {
    let shards = array(shard_rows(snap).iter().map(|((server, shard), columns)| {
        let row = Object::new().u64("server", *server).u64("shard", *shard);
        SHARD_COLUMNS
            .iter()
            .zip(columns)
            .fold(row, |o, (key, v)| match v {
                Some(v) => o.f64(key, *v),
                None => o,
            })
            .build()
    }));
    Object::new()
        .field("sites", &lock_sites_json(snap))
        .field("shards", &shards)
        .field("alloc", &alloc_json(snap).build())
        .field("queues", &queues_json(snap))
        .build()
}

/// The counting allocator's `pls_alloc_*` readings, open for one more key.
pub fn alloc_json(snap: &MetricsSnapshot) -> Object {
    Object::new()
        .u64("allocs", snap.counter_sum("pls_alloc_allocs_total"))
        .u64("frees", snap.counter_sum("pls_alloc_frees_total"))
        .u64("allocated_bytes", snap.counter_sum("pls_alloc_bytes_total"))
        .u64("freed_bytes", snap.counter_sum("pls_alloc_freed_bytes_total"))
        .u64("current_bytes", snap.gauge("pls_alloc_current_bytes").unwrap_or(0.0) as u64)
        .u64("peak_bytes", snap.gauge("pls_alloc_peak_bytes").unwrap_or(0.0) as u64)
}

/// `{"<queue>": depth, ...}` from `pls_queue_depth{queue}`.
pub fn queues_json(snap: &MetricsSnapshot) -> String {
    gauges_by(snap, "pls_queue_depth", "queue")
        .iter()
        .fold(Object::new(), |o, (queue, depth)| o.f64(queue, *depth))
        .build()
}

/// Windowed rates over one [`Delta`]: what `/debug/timeline`'s `rates`
/// object and `pls-client top` both print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// All requests, every `op`.
    pub requests_per_s: f64,
    /// `place` + `add` + `delete`.
    pub mutations_per_s: f64,
    /// Probes served, every strategy.
    pub probes_per_s: f64,
    /// Server-to-server sends.
    pub internal_sends_per_s: f64,
    /// Failed requests plus failed internal sends.
    pub errors_per_s: f64,
    /// p99 of the requests handled in the span (µs), if any family.
    pub request_p99_us: Option<f64>,
    /// p99 of the probes sampled in the span (µs).
    pub probe_p99_us: Option<f64>,
    /// p99 wait on the engines locks in the span (µs).
    pub engines_lock_wait_p99_us: Option<f64>,
}

impl Rates {
    /// The rates of one delta.
    pub fn of(d: &Delta) -> Rates {
        let op = |op: &str| d.rate(&labeled("pls_requests_total", &[("op", op)]));
        let p99 = |name: &str| d.changed.histogram(name).map(|h| h.quantile(0.99));
        Rates {
            requests_per_s: d.rate_sum("pls_requests_total"),
            mutations_per_s: op("place") + op("add") + op("delete"),
            probes_per_s: d.rate_sum("pls_probes_total"),
            internal_sends_per_s: d.rate_sum("pls_internal_sent_total"),
            errors_per_s: d.rate_sum("pls_request_errors_total")
                + d.rate_sum("pls_internal_send_failures_total"),
            request_p99_us: p99("pls_request_latency_us"),
            probe_p99_us: p99("pls_probe_latency_us"),
            engines_lock_wait_p99_us: p99(&labeled("pls_lock_wait_us", &[("site", "engines")])),
        }
    }

    fn json(&self, d: &Delta) -> String {
        let p99 = |v: Option<f64>| number(v.unwrap_or(f64::NAN));
        Object::new()
            .u64("from_seq", d.from_seq)
            .u64("to_seq", d.to_seq)
            .u64("span_us", d.span_us)
            .f64("requests_per_s", self.requests_per_s)
            .f64("mutations_per_s", self.mutations_per_s)
            .f64("probes_per_s", self.probes_per_s)
            .f64("internal_sends_per_s", self.internal_sends_per_s)
            .f64("errors_per_s", self.errors_per_s)
            .field("request_p99_us", &p99(self.request_p99_us))
            .field("probe_p99_us", &p99(self.probe_p99_us))
            .field("engines_lock_wait_p99_us", &p99(self.engines_lock_wait_p99_us))
            .build()
    }
}

/// The cumulative counters of `/debug/timeline`'s `series` points, as
/// `(json key, family)`. The soak auditor brackets each one between two
/// Metrics-RPC reads of the same family.
pub const TIMELINE_SERIES: [(&str, &str); 6] = [
    ("requests", "pls_requests_total"),
    ("request_errors", "pls_request_errors_total"),
    ("probes", "pls_probes_total"),
    ("internal_sent", "pls_internal_sent_total"),
    ("internal_send_failures", "pls_internal_send_failures_total"),
    ("wal_appends", "pls_wal_appends_total"),
];

/// `GET /debug/timeline`: ring metadata (`windows`), windowed `rates`
/// over the last scrape interval and the fast and slow SLO windows, the
/// per-objective budgets (`slo`), and one cumulative `series` point per
/// retained window ([`TIMELINE_SERIES`] plus the `inflight` and
/// `staleness_min` levels).
pub fn timeline_json(
    server: u64,
    tl: &Timeline,
    slo: &[SloStatus],
    fast: Duration,
    slow: Duration,
) -> String {
    let seq = |w: Option<&pls_telemetry::Window>| w.map_or("null".into(), |w| w.seq.to_string());
    let meta = Object::new()
        .u64("len", tl.len() as u64)
        .u64("capacity", tl.capacity() as u64)
        .u64("evicted", tl.evicted())
        .field("from_seq", &seq(tl.oldest()))
        .field("to_seq", &seq(tl.latest()))
        .build();
    let rates = [
        ("last", tl.last_delta()),
        ("fast", tl.delta_over(fast.as_micros() as u64)),
        ("slow", tl.delta_over(slow.as_micros() as u64)),
    ]
    .into_iter()
    .fold(Object::new(), |o, (name, delta)| match delta {
        Some(d) => o.field(name, &Rates::of(&d).json(&d)),
        None => o,
    });
    let slo = array(slo.iter().map(|st| {
        Object::new()
            .string("slo", &st.name)
            .f64("budget", st.budget)
            .u64("total", st.total)
            .u64("bad", st.bad)
            .f64("budget_remaining", st.budget_remaining)
            .f64("burn_fast", st.burn_fast)
            .f64("burn_slow", st.burn_slow)
            .build()
    }));
    let series = array(tl.windows().map(|w| {
        let point = Object::new()
            .u64("seq", w.seq)
            .u64("at_unix_ms", w.at_unix_ms)
            .u64("uptime_us", w.uptime_us);
        let inflight = w.totals.gauge(&labeled("pls_queue_depth", &[("queue", "inflight")]));
        let staleness_min =
            w.totals.gauges_of("pls_live_staleness").map(|(_, v)| v).reduce(f64::min);
        TIMELINE_SERIES
            .iter()
            .fold(point, |o, (key, family)| o.u64(key, w.totals.counter_sum(family)))
            .field("inflight", &number(inflight.unwrap_or(f64::NAN)))
            .field("staleness_min", &number(staleness_min.unwrap_or(f64::NAN)))
            .build()
    }));
    Object::new()
        .u64("server", server)
        .field("windows", &meta)
        .field("rates", &rates.build())
        .field("slo", &slo)
        .field("series", &series)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_telemetry::json::{parse, Value};
    use pls_telemetry::{Histogram, SloSource, SloSpec, SloTracker};

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        values.iter().for_each(|v| h.observe(*v));
        h.snapshot()
    }

    fn push_site(s: &mut MetricsSnapshot, site: &str, acquisitions: u64, waits: &[u64]) {
        let l = [("site", site)];
        s.push_histogram(labeled("pls_lock_wait_us", &l), hist(waits));
        s.push_histogram(labeled("pls_lock_hold_us", &l), hist(&[40]));
        s.push_counter(labeled("pls_lock_acquisitions_total", &l), acquisitions);
        s.push_counter(labeled("pls_lock_contended_total", &l), 1);
    }

    /// A server's snapshot after `requests` probes; durable servers
    /// carry the `wal` site and shard columns.
    fn server_snapshot(requests: u64, durable: bool) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_requests_total{op=\"probe\"}", requests);
        s.push_counter("pls_requests_total{op=\"add\"}", requests / 2);
        s.push_counter("pls_probes_total{strategy=\"round\"}", requests * 2);
        s.push_counter("pls_request_errors_total", 1);
        s.push_counter("pls_internal_sent_total", requests / 4);
        s.push_counter("pls_internal_send_failures_total", 2);
        s.push_histogram("pls_request_latency_us", hist(&vec![100; requests as usize]));
        s.push_gauge("pls_queue_depth{queue=\"inflight\"}", 3.0);
        s.push_gauge("pls_shard_keys{server=\"2\",shard=\"0\"}", 4.0);
        let engines = "{server=\"2\",shard=\"0\",site=\"engines\"}";
        s.push_gauge(format!("pls_shard_lock_acquisitions{engines}"), 100.0);
        s.push_gauge(format!("pls_shard_lock_wait_p99_us{engines}"), 31.0);
        push_site(&mut s, "engines", 200, &[0, 120]);
        s.push_counter("pls_alloc_allocs_total", 1000);
        s.push_gauge("pls_alloc_peak_bytes", 4096.0);
        if durable {
            push_site(&mut s, "wal", 40, &[7]);
            s.push_counter("pls_wal_appends_total", requests / 2);
            let wal = "{server=\"2\",shard=\"0\",site=\"wal\"}";
            s.push_gauge(format!("pls_shard_lock_acquisitions{wal}"), 40.0);
            s.push_gauge(format!("pls_shard_lock_wait_p99_us{wal}"), 7.0);
            s.push_gauge("pls_queue_depth{queue=\"wal_fsync_batch\"}", 2.0);
        }
        s
    }

    fn at<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
        path.iter().fold(doc, |v, key| v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v:?}")))
    }

    #[test]
    fn the_family_accessor_matches_a_family_exactly() {
        let mut s = MetricsSnapshot::new();
        s.push_gauge("pls_live_staleness{strategy=\"full\",t=\"2\"}", 0.5);
        s.push_gauge("pls_live_staleness_extra", -1.0);
        s.push_counter("pls_keys", 3);
        s.push_counter("pls_keys_total", 100);
        s.push_counter(labeled("pls_hot_key_probes", &[("key", "so\"ng\\1\n")]), 9);
        let staleness: Vec<_> = s.gauges_of("pls_live_staleness").collect();
        assert_eq!(staleness.len(), 1, "the lookalike family is not a label variant");
        assert_eq!(staleness[0].0.get("strategy"), Some("full"));
        assert_eq!(staleness[0].0.keys().collect::<Vec<_>>(), ["strategy", "t"]);
        assert_eq!(staleness[0].0.get("site"), None);
        // An unlabeled series is its family's one series, with no labels.
        let keys: Vec<_> = s.counters_of("pls_keys").collect();
        assert_eq!((keys.len(), keys[0].1, keys[0].0.keys().count()), (1, 3, 0));
        assert_eq!(s.counter_sum("pls_keys"), 3, "pls_keys_total is another family");
        // `labeled` escapes and the accessor decodes: the value round-trips.
        assert_eq!(hot_keys(&s), [("so\"ng\\1\n".to_string(), 9)]);
    }

    #[test]
    fn lock_sites_and_shard_rows_with_and_without_a_wal() {
        let durable = server_snapshot(8, true);
        let sites = lock_sites(&durable);
        assert_eq!(sites.iter().map(|s| s.site.as_str()).collect::<Vec<_>>(), ["engines", "wal"]);
        assert_eq!((sites[0].acquisitions, sites[0].contended), (200, 1));
        assert_eq!((sites[1].wait_us.count, sites[1].hold_us.count), (1, 1));
        let columns = [Some(4.0), Some(100.0), Some(31.0), Some(40.0), Some(7.0)];
        assert_eq!(shard_rows(&durable), BTreeMap::from([((2, 0), columns)]));

        let memory_only = server_snapshot(8, false);
        assert_eq!(lock_sites(&memory_only).len(), 1);
        assert_eq!(shard_rows(&memory_only)[&(2, 0)][3..], [None, None]);
        assert_eq!(gauges_by(&memory_only, "pls_queue_depth", "queue"), [("inflight".into(), 3.0)]);
    }

    #[test]
    fn contention_view_of_a_constructed_snapshot() {
        let doc = parse(&contention_json(&server_snapshot(8, true))).expect("JSON");
        assert_eq!(at(&doc, &["sites", "engines", "acquisitions"]).as_u64(), Some(200));
        assert_eq!(at(&doc, &["sites", "wal", "wait_us", "count"]).as_u64(), Some(1));
        assert_eq!(at(&doc, &["sites", "engines", "wait_us", "p99"]).as_f64(), Some(127.0));
        let shard = &at(&doc, &["shards"]).as_array().expect("rows")[0];
        assert_eq!(at(shard, &["engines_acquisitions"]).as_f64(), Some(100.0));
        assert_eq!(at(shard, &["wal_wait_p99_us"]).as_f64(), Some(7.0));
        assert_eq!(at(&doc, &["alloc", "allocs"]).as_u64(), Some(1000));
        assert_eq!(at(&doc, &["alloc", "peak_bytes"]).as_u64(), Some(4096));
        assert_eq!(at(&doc, &["queues", "wal_fsync_batch"]).as_f64(), Some(2.0));

        let doc = parse(&contention_json(&server_snapshot(8, false))).expect("JSON");
        assert!(at(&doc, &["sites"]).get("wal").is_none(), "no wal site on a memory-only server");
        let shard = &at(&doc, &["shards"]).as_array().expect("rows")[0];
        assert!(shard.get("wal_acquisitions").is_none());
        for field in ["sites", "shards", "alloc", "queues"] {
            assert!(doc.get(field).is_some(), "{field}");
        }
    }

    #[test]
    fn rates_of_a_hand_computed_delta() {
        let mut tl = Timeline::new(4);
        tl.record(0, 0, server_snapshot(100, false));
        tl.record(0, 2_000_000, server_snapshot(300, false));
        let r = Rates::of(&tl.last_delta().expect("two windows"));
        // Over 2 s: 200 more probes + 100 more adds, 400 more probes
        // served, 50 more internal sends, no new errors.
        assert_eq!(r.requests_per_s, 150.0);
        assert_eq!(r.mutations_per_s, 50.0);
        assert_eq!(r.probes_per_s, 200.0);
        assert_eq!(r.internal_sends_per_s, 25.0);
        assert_eq!(r.errors_per_s, 0.0);
        assert_eq!(r.request_p99_us, Some(127.0));
        assert_eq!(r.probe_p99_us, None, "no probe-latency family in the delta");
        assert_eq!(r.engines_lock_wait_p99_us, Some(0.0), "nothing new observed: an empty delta");
    }

    #[test]
    fn timeline_view_of_an_empty_and_a_growing_ring() {
        let (fast, slow) = (Duration::from_secs(1), Duration::from_secs(60));
        let mut tl = Timeline::new(4);
        let doc = parse(&timeline_json(7, &tl, &[], fast, slow)).expect("JSON");
        assert_eq!(at(&doc, &["server"]).as_u64(), Some(7));
        assert_eq!(at(&doc, &["windows", "len"]).as_u64(), Some(0));
        assert_eq!(at(&doc, &["windows", "from_seq"]), &Value::Null);
        assert_eq!(at(&doc, &["windows", "to_seq"]), &Value::Null);
        assert_eq!(at(&doc, &["rates"]), &parse("{}").unwrap(), "no delta, no rates");
        assert_eq!(at(&doc, &["series"]).as_array().map(<[Value]>::len), Some(0));

        // The WAL family first appears in the second window; the
        // staleness gauges only in the third.
        tl.record(10, 0, server_snapshot(100, false));
        tl.record(20, 2_000_000, server_snapshot(300, true));
        let mut third = server_snapshot(400, true);
        third.push_gauge("pls_live_staleness{strategy=\"full\",t=\"1\"}", 0.75);
        third.push_gauge("pls_live_staleness{strategy=\"full\",t=\"2\"}", 1.0);
        third.push_gauge("pls_live_staleness_extra", -1.0);
        tl.record(30, 3_000_000, third);
        let mut slo = SloTracker::new(
            vec![SloSpec::new(
                "staleness",
                0.05,
                SloSource::GaugeFloor { gauge: "pls_live_staleness".into(), floor: 0.999 },
            )],
            fast,
            slow,
        );
        let latest = tl.latest().expect("recorded");
        slo.ingest(latest.uptime_us, &tl.last_delta().expect("delta"), &latest.totals);
        let doc = parse(&timeline_json(0, &tl, &slo.status(), fast, slow)).expect("JSON");

        assert_eq!(at(&doc, &["windows", "from_seq"]).as_u64(), Some(0));
        assert_eq!(at(&doc, &["windows", "to_seq"]).as_u64(), Some(2));
        assert_eq!(at(&doc, &["rates", "last", "from_seq"]).as_u64(), Some(1));
        assert_eq!(at(&doc, &["rates", "last", "requests_per_s"]).as_f64(), Some(150.0));
        assert_eq!(at(&doc, &["rates", "fast", "from_seq"]).as_u64(), Some(1));
        assert_eq!(at(&doc, &["rates", "slow", "from_seq"]).as_u64(), Some(0), "oldest window");
        assert_eq!(at(&doc, &["rates", "last", "probe_p99_us"]), &Value::Null);
        assert_eq!(
            at(&doc, &["slo"]).as_array().expect("slo")[0].get("bad").unwrap().as_u64(),
            Some(1)
        );
        let series = at(&doc, &["series"]).as_array().expect("series");
        let column =
            |key: &str| series.iter().map(|p| p.get(key).cloned().unwrap()).collect::<Vec<_>>();
        assert_eq!(
            column("wal_appends").iter().map(|v| v.as_u64()).collect::<Vec<_>>(),
            [Some(0), Some(150), Some(200)]
        );
        assert_eq!(column("requests")[2].as_u64(), Some(600));
        assert_eq!(column("inflight")[0].as_f64(), Some(3.0));
        assert_eq!(column("staleness_min"), [Value::Null, Value::Null, parse("0.75").unwrap()]);
        for (key, _) in TIMELINE_SERIES {
            assert!(series[0].get(key).is_some(), "series point lacks `{key}`");
        }
    }
}
