//! Route-level tests for the JSON debug surface: `GET
//! /debug/contention` and `GET /debug/timeline` must answer 200 with
//! an `application/json` content type and a body the repo's own JSON
//! parser round-trips — these endpoints feed dashboards and the soak
//! auditor, and a route that silently breaks (wrong content type,
//! truncated body, hand-built JSON that stopped being JSON) fails
//! consumers long after the unit tests around the renderers pass.
//!
//! The timeline is populated through [`Server::scrape_now`] — the
//! deterministic form of the self-scrape loop — so the assertions
//! never race a background cadence.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;

use common::{bind_all, http_get};
use pls_cluster::{Client, ClientConfig, Server, ServerConfig};
use pls_core::StrategySpec;
use pls_telemetry::json::{parse, Value};

fn content_type(headers: &str) -> String {
    headers
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-type")))
        .map(|(_, v)| v.trim().to_string())
        .expect("no content-type header")
}

/// Fetches a debug route and returns its parsed JSON body, asserting
/// the HTTP-level contract on the way.
fn get_json(addr: SocketAddr, target: &str) -> Value {
    let (status, headers, body) = http_get(addr, target);
    assert!(status.contains("200"), "{target}: {status}");
    let ct = content_type(&headers);
    assert!(ct.starts_with("application/json"), "{target}: content type {ct}");
    parse(&body).unwrap_or_else(|e| panic!("{target}: body is not JSON: {e}\n{body}"))
}

#[test]
fn debug_routes_serve_parseable_json() {
    let (mut listeners, addrs) = bind_all(2);
    let (addr, http_addr) = (addrs[0], addrs[1]);
    let (listener, http_listener) = (listeners.remove(0), listeners.remove(0));
    let spec = StrategySpec::full_replication();
    // Background self-scrape off: the test drives the observatory
    // through `scrape_now` so window counts are exact.
    let cfg = ServerConfig { self_scrape: None, ..ServerConfig::new(0, vec![addr], spec, 91) };
    let (server, _) = Server::with_listener(cfg, listener).expect("server");

    let _exporter = pls_cluster::http::serve_router(http_listener, Arc::new(server.router()))
        .expect("exporter");

    // Two scrapes: the second yields a delta, so the timeline has
    // windowed rates and the SLO tracker has statuses.
    server.scrape_now();
    server.scrape_now();
    let _server = server.spawn();

    // Real traffic so the contention observatory has nonzero rows.
    let mut client = Client::connect(ClientConfig::new(vec![addr], spec, 92));
    let entries: Vec<Vec<u8>> = (0..4).map(|i| format!("e{i}").into_bytes()).collect();
    client.place(b"routes-key", entries).expect("place");
    for _ in 0..3 {
        let got = client.partial_lookup(b"routes-key", 2).expect("lookup");
        assert_eq!(got.len(), 2);
    }

    let contention = get_json(http_addr, "/debug/contention");
    for field in ["sites", "shards", "alloc", "queues"] {
        assert!(contention.get(field).is_some(), "/debug/contention lacks `{field}`");
    }
    assert!(
        contention.get("sites").and_then(|s| s.get("engines")).is_some(),
        "no engines site in /debug/contention"
    );
    let shards = contention.get("shards").and_then(Value::as_array).expect("shards array");
    assert!(!shards.is_empty(), "no per-shard drill-down rows");
    assert!(shards[0].get("engines_acquisitions").is_some());

    let timeline = get_json(http_addr, "/debug/timeline");
    assert_eq!(timeline.get("server").and_then(Value::as_u64), Some(0));
    let windows = timeline.get("windows").expect("windows meta");
    assert_eq!(windows.get("len").and_then(Value::as_u64), Some(2));
    let series = timeline.get("series").and_then(Value::as_array).expect("series array");
    assert_eq!(series.len(), 2, "one series point per scrape");
    for point in series {
        for field in ["seq", "requests", "probes", "internal_sent", "wal_appends"] {
            assert!(point.get(field).is_some(), "series point lacks `{field}`");
        }
    }
    // Both scrapes happened before the workload, so the cumulative
    // series is all-zero — and monotone by construction.
    assert_eq!(series[0].get("requests").and_then(Value::as_u64), Some(0));
    let rates = timeline.get("rates").expect("rates object");
    assert!(rates.get("last").is_some(), "no last-delta rates despite two windows");
    let slo = timeline.get("slo").and_then(Value::as_array).expect("slo array");
    let names: Vec<&str> =
        slo.iter().filter_map(|s| s.get("slo").and_then(Value::as_str)).collect();
    for expected in ["availability", "latency", "staleness"] {
        assert!(names.contains(&expected), "objective `{expected}` missing from {names:?}");
    }
}
