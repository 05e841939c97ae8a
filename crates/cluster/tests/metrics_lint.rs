//! Exposition-compliance lint for `GET /metrics`: the Prometheus text
//! format is a protocol, and scrapers reject or misparse output that
//! violates it. This test drives real traffic through live servers with
//! every subsystem on, scrapes the debug endpoint, and checks the body
//! line by line — every family declares exactly one `# HELP` and one
//! `# TYPE` (in that order, before its samples), no family is split
//! across blocks, every sample belongs to a declared family, the response
//! carries the standard `text/plain; version=0.0.4` content type — and
//! against `pls_wire::metrics::CATALOGUE`, both ways: what is exported is
//! a row (type, HELP, label keys), and every row is exported. A second
//! test holds the docs and CI to the same table.

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use common::{bind_all, http_get};
use pls_cluster::{Client, ClientConfig, Deadline, Server, ServerConfig};
use pls_core::StrategySpec;
use pls_telemetry::snapshot::labeled;
use pls_telemetry::MetricsSnapshot;
use pls_wire::metrics::{Kind, Side, CATALOGUE};

/// Install the counting allocator exactly as the `pls-server` binary
/// does, so the `pls_alloc_*` families carry real readings here too —
/// both for the exposition lint and for the reset-conservation hammer.
#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

/// The family a sample line belongs to: its name up to any label
/// block, with histogram `_bucket`/`_sum`/`_count` suffixes folded
/// back onto the histogram family that declared them.
fn family_of<'a>(sample_name: &'a str, histograms: &HashSet<&str>) -> &'a str {
    let base = sample_name.split('{').next().unwrap_or(sample_name);
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = base.strip_suffix(suffix) {
            if histograms.contains(stripped) {
                return stripped;
            }
        }
    }
    base
}

/// The label keys of every series of `family` in `snap`, whichever of
/// the three lists carries it; empty when the family is absent.
fn label_keys(snap: &MetricsSnapshot, family: &str) -> Vec<Vec<String>> {
    let keys = |l: pls_telemetry::snapshot::Labels| l.keys().map(String::from).collect();
    snap.counters_of(family)
        .map(|(l, _)| keys(l))
        .chain(snap.gauges_of(family).map(|(l, _)| keys(l)))
        .chain(snap.histograms_of(family).map(|(l, _)| keys(l)))
        .collect()
}

#[test]
fn metrics_exposition_passes_the_format_lint() {
    // Two durable servers with every background job on and real traffic
    // (a delete included), so every server-side family has samples.
    let (mut listeners, addrs) = bind_all(3);
    let http_listener = listeners.pop().expect("exporter listener");
    let (http_addr, addrs) = (addrs[2], addrs[..2].to_vec());
    let spec = StrategySpec::full_replication();
    let mut handles = Vec::new();
    let mut exporter = None;
    for (i, listener) in listeners.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("pls-lint-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            data_dir: Some(dir),
            anti_entropy: Some(Duration::from_millis(100)),
            ..ServerConfig::new(i, addrs.clone(), spec, 77)
        };
        let (server, _) = Server::with_listener(cfg, listener).expect("server");
        if i == 0 {
            // Two scrapes make one delta: the SLO gauges exist.
            server.scrape_now();
            server.scrape_now();
            let router = Arc::new(server.router());
            let listener = http_listener.try_clone().expect("clone listener");
            exporter = Some(pls_cluster::http::serve_router(listener, router).expect("exporter"));
        }
        handles.push(server.spawn());
    }
    let _exporter = exporter;

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 78));
    let entries: Vec<Vec<u8>> = (0..4).map(|i| format!("e{i}").into_bytes()).collect();
    client.place(b"lint-key", entries).expect("place");
    client.delete(b"lint-key", b"e3".to_vec()).expect("delete");
    for _ in 0..5 {
        let got = client.partial_lookup(b"lint-key", 3).expect("lookup");
        assert_eq!(got.len(), 3);
    }
    // The two families that wait for a background round.
    let rounds_ran = Deadline::within(Duration::from_secs(15)).wait_until(|| {
        let body = http_get(http_addr, "/metrics").2;
        body.contains("pls_live_fault_tolerance{") && body.contains("pls_live_staleness{")
    });
    assert!(rounds_ran, "no anti-entropy or staleness round finished");

    let (status, headers, body) = http_get(http_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let content_type = headers
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-type")))
        .map(|(_, v)| v.trim().to_string())
        .expect("no content-type header");
    assert!(
        content_type.starts_with("text/plain; version=0.0.4"),
        "non-standard exposition content type: {content_type}"
    );

    // Walk the body: HELP -> TYPE -> samples per family, no repeats.
    let mut helps: HashMap<String, &str> = HashMap::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut histograms: HashSet<&str> = HashSet::new();
    let mut closed_families: HashSet<String> = HashSet::new();
    let mut current: Option<String> = None;
    let mut saw_samples = 0usize;
    for (ln, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, text) = rest.split_once(' ').expect("HELP family and text");
            assert!(!text.is_empty(), "line {ln}: HELP for {family} has no text");
            assert_eq!(
                helps.insert(family.to_string(), text),
                None,
                "line {ln}: duplicate HELP for {family}"
            );
            assert!(
                !closed_families.contains(family),
                "line {ln}: family {family} split across blocks"
            );
            if let Some(prev) = current.replace(family.to_string()) {
                closed_families.insert(prev);
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("TYPE family").to_string();
            let kind = parts.next().expect("TYPE kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "line {ln}: unknown type {kind}"
            );
            assert_eq!(
                types.insert(family.clone(), kind.to_string()),
                None,
                "line {ln}: duplicate TYPE for {family}"
            );
            assert_eq!(
                current.as_deref(),
                Some(family.as_str()),
                "line {ln}: TYPE {family} does not follow its own HELP"
            );
            if kind == "histogram" {
                histograms.insert(rest.split(' ').next().unwrap());
            }
        } else if let Some(comment) = line.strip_prefix('#') {
            panic!("line {ln}: unknown comment `#{comment}`");
        } else {
            let name = line.split([' ', '{']).next().expect("sample name");
            let family = family_of(name, &histograms);
            assert_eq!(
                current.as_deref(),
                Some(family),
                "line {ln}: sample {name} outside its family's block"
            );
            assert!(types.contains_key(family), "line {ln}: sample {name} has no TYPE declaration");
            let value = line.rsplit(' ').next().expect("sample value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "line {ln}: unparseable sample value `{value}`"
            );
            saw_samples += 1;
        }
    }

    // Every declared family carries both metadata lines, and the
    // scrape actually contained data.
    assert!(saw_samples > 0, "scrape had no samples at all");
    for family in types.keys() {
        assert!(helps.contains_key(family), "family {family} has TYPE but no HELP");
    }
    for family in helps.keys() {
        assert!(types.contains_key(family), "family {family} has HELP but no TYPE");
    }

    // The catalogue, both ways. What is exported is a row: that TYPE,
    // that HELP, exactly those label keys on every series.
    let server_snap = client.metrics_of(0, false).expect("metrics rpc");
    for (family, kind) in &types {
        let row = CATALOGUE
            .iter()
            .find(|f| f.name == family)
            .unwrap_or_else(|| panic!("{family} is exported but has no catalogue row"));
        assert_ne!(row.side, Side::Client, "{family} is a client row, exported by a server");
        assert_eq!(kind, row.kind.as_str(), "{family}: TYPE differs from its row");
        assert_eq!(helps[family], row.help, "{family}: HELP differs from its row");
        for keys in label_keys(&server_snap, family) {
            assert_eq!(keys, row.labels, "{family}: label keys differ from its row");
        }
    }
    // And every row is exported, by the side its row names.
    let client_snap = client.metrics_snapshot();
    for row in CATALOGUE {
        if row.side != Side::Client {
            assert!(types.contains_key(row.name), "server row {} is not in the scrape", row.name);
        }
        if row.side != Side::Server {
            let keys = label_keys(&client_snap, row.name);
            assert!(!keys.is_empty(), "client row {} is not in the client snapshot", row.name);
            assert!(keys.iter().all(|k| k == row.labels), "{}: client label keys", row.name);
            let carried = match row.kind {
                Kind::Histogram => client_snap.histograms_of(row.name).count(),
                _ => client_snap.counters_of(row.name).count(),
            };
            assert_eq!(carried, 1, "{}: carried as the wrong kind", row.name);
        }
    }
    let client_series = client_snap.counters.iter().map(|(n, _)| n);
    for name in client_series.chain(client_snap.histograms.iter().map(|(n, _)| n)) {
        let family = pls_telemetry::snapshot::family_of(name);
        assert!(CATALOGUE.iter().any(|f| f.name == family), "client exports unlisted {family}");
    }
    assert!(client_snap.gauges.is_empty(), "client gauges have no rows: {:?}", client_snap.gauges);
}

/// README, DESIGN, EXPERIMENTS and CI's grep gates may name only what
/// exists: every `pls_…` token in them is a catalogue family (or one of
/// its `_bucket`/`_sum`/`_count` series, or a `pls_lock_*`-style prefix
/// of one), or a crate or binary of this workspace. A renamed or deleted
/// family fails here instead of leaving a CI `grep` that can never match.
#[test]
fn docs_and_ci_name_only_catalogue_families() {
    const CRATES_AND_BINS: [&str; 11] = [
        "pls_net",
        "pls_core",
        "pls_metrics",
        "pls_sim",
        "pls_telemetry",
        "pls_wire",
        "pls_cluster",
        "pls_bench",
        "pls_client",
        "pls_server",
        "pls_chaos",
    ];
    let known = |token: &str| {
        CRATES_AND_BINS.contains(&token)
            || CATALOGUE.iter().any(|f| {
                token == f.name
                    || (token.ends_with('_') && f.name.starts_with(token))
                    || (f.kind == Kind::Histogram
                        && ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|s| token.strip_suffix(s) == Some(f.name)))
            })
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let mut unknown = Vec::new();
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"] {
        let text = std::fs::read_to_string(format!("{root}{file}")).expect(file);
        for (ln, line) in text.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("pls_") {
                let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
                let starts_word = !rest[..at].ends_with(word);
                let len = rest[at..].find(|c| !word(c)).unwrap_or(rest.len() - at);
                let token = &rest[at..at + len];
                if starts_word && !known(token) {
                    unknown.push(format!("{file}:{}: {token}", ln + 1));
                }
                rest = &rest[at + len..];
            }
        }
    }
    assert!(unknown.is_empty(), "names that are no catalogue family:\n{}", unknown.join("\n"));
}

/// Delta-scraping race hammer: `Request::Metrics { reset: true }`
/// drains counters and histograms while traffic is still landing.
/// Whatever interleaving the scrapes hit, nothing may be lost or
/// double-counted — summed over every drained snapshot (plus one final
/// drain after traffic stops), the probe counter must equal the exact
/// number of lookups issued, and the request-latency histogram must
/// have observed exactly as many requests as the request counter saw.
#[test]
fn resetting_scrapes_conserve_counts_under_load() {
    const LOOKUPS: u64 = 400;

    let (mut listeners, addrs) = bind_all(1);
    let (listener, addr) = (listeners.remove(0), addrs[0]);
    let spec = StrategySpec::full_replication();
    // Pin a multi-shard core: the "engines" site is now an aggregate
    // over one mutex per shard, and a resetting scrape must drain each
    // shard's counters exactly once for the conservation checks below
    // to hold. A machine-dependent default could quietly degrade to a
    // single shard and stop exercising the merge.
    let cfg = ServerConfig { shards: 4, ..ServerConfig::new(0, vec![addr], spec, 79) };
    let (server, _) = Server::with_listener(cfg, listener).expect("server");
    let _server = server.spawn();

    let mut setup = Client::connect(ClientConfig::new(vec![addr], spec, 80));
    setup.place(b"hammer-key", vec![b"e0".to_vec(), b"e1".to_vec()]).expect("place");

    // Writer: LOOKUPS sequential lookups, one probe request each
    // (full replication satisfies t from the single server).
    let writer = std::thread::spawn(move || {
        for _ in 0..LOOKUPS {
            let got = setup.partial_lookup(b"hammer-key", 2).expect("lookup");
            assert_eq!(got.len(), 2);
        }
    });

    // Scraper: drain as fast as possible while the writer runs.
    let scraper = Client::connect(ClientConfig::new(vec![addr], spec, 81));
    let engines = [("site", "engines")];
    let mut probes_drained = 0u64;
    let mut requests_drained = 0u64;
    let mut latency_count_drained = 0u64;
    let mut lock_acq_drained = 0u64;
    let mut lock_contended_drained = 0u64;
    let mut wait_obs_drained = 0u64;
    let mut hold_obs_drained = 0u64;
    let mut allocs_drained = 0u64;
    let mut drains = 0u64;
    let mut accumulate = |snap: &pls_telemetry::MetricsSnapshot| {
        probes_drained += snap.counter_sum("pls_probes_total");
        requests_drained += snap.counter_sum("pls_requests_total");
        latency_count_drained +=
            snap.histogram("pls_request_latency_us").map(|h| h.count).unwrap_or(0);
        lock_acq_drained +=
            snap.counter(&labeled("pls_lock_acquisitions_total", &engines)).unwrap_or(0);
        lock_contended_drained +=
            snap.counter(&labeled("pls_lock_contended_total", &engines)).unwrap_or(0);
        wait_obs_drained +=
            snap.histogram(&labeled("pls_lock_wait_us", &engines)).map(|h| h.count).unwrap_or(0);
        hold_obs_drained +=
            snap.histogram(&labeled("pls_lock_hold_us", &engines)).map(|h| h.count).unwrap_or(0);
        allocs_drained += snap.counter("pls_alloc_allocs_total").unwrap_or(0);
    };
    while !writer.is_finished() {
        let snap = scraper.metrics_of(0, true).expect("scrape");
        accumulate(&snap);
        drains += 1;
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
    writer.join().expect("writer");
    // Everything has landed; one final drain picks up the remainder.
    let last = scraper.metrics_of(0, true).expect("final scrape");
    accumulate(&last);
    drains += 1;

    assert!(drains >= 2, "hammer never overlapped a drain with traffic");
    assert_eq!(
        probes_drained, LOOKUPS,
        "probe counter lost or double-counted across {drains} resetting scrapes"
    );
    // Every request increments the counter and observes the latency
    // histogram; racing resets may split them across scrapes but the
    // totals must agree. The final scrape's own request lands after
    // its drain, so the two sides may differ by at most that one
    // in-flight request.
    let diff = requests_drained.abs_diff(latency_count_drained);
    assert!(
        diff <= 1,
        "counter drained {requests_drained} requests but histogram drained \
         {latency_count_drained} observations over {drains} scrapes"
    );

    // Lock-site conservation for the engines mutex: every acquisition
    // records exactly one wait observation and (on guard drop) one
    // hold observation, and the contention export runs after the
    // collection's own engines locks are released, so a resetting
    // scrape drains its own acquisitions too. Racing traffic may split
    // an acquisition's wait/acq/hold across adjacent scrapes, but at
    // quiescence — after the writer joined and the final drain — the
    // three totals must agree exactly.
    assert!(lock_acq_drained > 0, "hammer never drained an engines-lock acquisition");
    assert_eq!(
        lock_acq_drained, wait_obs_drained,
        "engines lock: {lock_acq_drained} acquisitions drained but {wait_obs_drained} wait \
         observations over {drains} scrapes"
    );
    assert_eq!(
        lock_acq_drained, hold_obs_drained,
        "engines lock: {lock_acq_drained} acquisitions drained but {hold_obs_drained} hold \
         observations over {drains} scrapes"
    );
    assert!(
        lock_contended_drained <= lock_acq_drained,
        "engines lock drained more contended acquisitions ({lock_contended_drained}) than \
         acquisitions ({lock_acq_drained})"
    );

    // Allocation counters drain against the server's baseline: the
    // resetting scrapes must have seen real allocator traffic, and
    // after the final drain a fresh non-resetting scrape reports only
    // the allocations since that drain — far less than the total.
    assert!(allocs_drained > 0, "resetting scrapes never drained an allocation delta");
    let fresh = scraper.metrics_of(0, false).expect("fresh scrape");
    let fresh_allocs = fresh.counter("pls_alloc_allocs_total").expect("alloc counter");
    assert!(
        fresh_allocs < allocs_drained,
        "post-reset scrape reports {fresh_allocs} allocations, not less than the \
         {allocs_drained} the resetting scrapes drained — reset did not rebase the baseline"
    );
}
