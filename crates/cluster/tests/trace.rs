//! End-to-end request timeline tests: a lookup through a live cluster
//! with one chaos-delayed server must leave a complete span tree in the
//! flight recorder — client root span, one probe child per contacted
//! server carrying the server-echoed service time, the injected delay
//! attributed to the network share — retrievable both over the client
//! RPC fan-out and the HTTP `/trace` endpoint, and pinned past ring
//! wraparound because the request was slow.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use common::{bind_all, http_get};
use pls_cluster::{
    ChaosConfig, ChaosPeer, Client, ClientConfig, Server, ServerConfig, ServerHandle, Timeouts,
};
use pls_core::StrategySpec;
use pls_telemetry::recorder::{self, Recorder};
use pls_telemetry::SpanRecord;

/// Injected extra latency in front of the slow server.
const DELAY_MS: u64 = 100;

/// Pin threshold: well under the injected delay, well over a healthy
/// local round trip.
const SLOW_THRESHOLD_US: u64 = 50_000;

fn timeouts() -> Timeouts {
    Timeouts { rpc: Duration::from_millis(2_000), op_budget: Duration::from_millis(10_000) }
}

/// Three servers; the one at `slow` is fronted by a chaos proxy whose
/// delay the test turns on after setup.
fn spawn_cluster_with_slow_server(
    spec: StrategySpec,
    seed: u64,
    slow: usize,
    chaos: &Arc<ChaosConfig>,
) -> (Vec<SocketAddr>, Vec<Server>, ChaosPeer) {
    let (listeners, real_addrs) = bind_all(3);
    let mut public_addrs = real_addrs.clone();
    let (proxy, proxy_addr) =
        ChaosPeer::bind(Some(real_addrs[slow]), Arc::clone(chaos)).expect("proxy bind");
    public_addrs[slow] = proxy_addr;
    let servers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig {
                timeouts: timeouts(),
                ..ServerConfig::new(i, public_addrs.clone(), spec, seed)
            };
            Server::with_listener(cfg, listener).expect("server").0
        })
        .collect();
    (public_addrs, servers, proxy)
}

fn field_u64(span: &SpanRecord, key: &str) -> u64 {
    span.field(key)
        .unwrap_or_else(|| panic!("span `{}` lacks field `{key}`", span.name))
        .parse()
        .unwrap_or_else(|e| panic!("span `{}` field `{key}`: {e}", span.name))
}

/// A lookup that must wait on a chaos-delayed server leaves a span tree
/// showing exactly where the time went, and the tree survives ring
/// wraparound via the pin list.
#[test]
fn delayed_probe_shows_up_in_the_request_timeline() {
    // Fresh recorder for this test binary; servers, client, and the
    // HTTP endpoint all share it (single process), which mirrors one
    // node's view and exercises the fan-out's deduplication.
    let rec = Arc::new(Recorder::new(256));
    rec.set_slow_threshold_us(SLOW_THRESHOLD_US);
    recorder::install(Some(Arc::clone(&rec)));

    let chaos = Arc::new(ChaosConfig::new(41));
    // Round-Robin-1 places each entry on exactly one server, so a
    // t=all lookup needs every server's answer — including the slow
    // one; the stride walk probes all three.
    let spec = StrategySpec::round_robin(1);
    let slow_server = 2usize;
    let (addrs, servers, _proxy) = spawn_cluster_with_slow_server(spec, 400, slow_server, &chaos);

    // The HTTP debug endpoint fronts server 0.
    let (mut http_listeners, http_addrs) = bind_all(1);
    let http_addr = http_addrs[0];
    let router = Arc::new(servers[0].router());
    let _exporter =
        pls_cluster::http::serve_router(http_listeners.remove(0), router).expect("exporter");
    let _servers: Vec<ServerHandle> = servers.into_iter().map(Server::spawn).collect();

    let mut client = Client::connect(ClientConfig {
        timeouts: timeouts(),
        ..ClientConfig::new(addrs.clone(), spec, 401)
    });
    let entries: Vec<Vec<u8>> = (0..6).map(|i| format!("entry-{i}").into_bytes()).collect();
    client.place(b"slow-key", entries).expect("place");

    // From now on server 2 answers correctly but DELAY_MS late.
    chaos.set_delay_ms(DELAY_MS);

    let got = client.partial_lookup(b"slow-key", 6).expect("lookup");
    assert_eq!(got.len(), 6);
    let req_id = client.last_request_id();

    // --- the cluster-wide span tree, via the client RPC fan-out ---
    let spans = client.trace_request(req_id).expect("trace");
    let root: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "partial_lookup").collect();
    assert_eq!(root.len(), 1, "expected exactly one root span, got {spans:#?}");
    assert_eq!(root[0].req_id, Some(req_id));
    assert!(
        root[0].elapsed_us >= DELAY_MS * 1_000,
        "root span did not wait on the delayed server: {}us",
        root[0].elapsed_us
    );

    // One client probe child per server, each decomposed into the
    // server-echoed service time and the network remainder.
    let probes: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "probe" && s.target.contains("client")).collect();
    assert_eq!(probes.len(), 3, "expected one probe child per server, got {spans:#?}");
    let mut seen_servers: Vec<u64> = probes.iter().map(|p| field_u64(p, "server")).collect();
    seen_servers.sort_unstable();
    assert_eq!(seen_servers, vec![0, 1, 2]);
    for probe in &probes {
        let service = field_u64(probe, "service_us");
        let net = field_u64(probe, "net_us");
        assert_eq!(service + net, probe.elapsed_us, "probe decomposition must add up to the RTT");
        if field_u64(probe, "server") == slow_server as u64 {
            assert!(
                service + net >= DELAY_MS * 1_000,
                "delayed peer's net+service {}us is under the injected {DELAY_MS}ms",
                service + net
            );
            assert!(
                net > service,
                "the proxy delay must land on the network share (net={net}us service={service}us)"
            );
        }
    }

    // Server-side handler spans carry the same request id, so the
    // timeline shows both halves of each probe.
    assert!(
        spans.iter().any(|s| s.req_id == Some(req_id) && s.target.contains("server")),
        "no server-side span joined the timeline: {spans:#?}"
    );

    // --- same tree over HTTP, from a *different* node's endpoint ---
    let (status, headers, body) = http_get(http_addr, &format!("/trace?req={req_id}"));
    assert!(status.contains("200"), "{status}");
    assert!(headers.to_ascii_lowercase().contains("application/json"), "{headers}");
    assert!(body.starts_with('['), "not a JSON array: {body}");
    assert!(body.contains("partial_lookup"), "root span missing from {body}");
    assert!(body.contains(&format!("\"req_id\":{req_id}")), "req id missing from {body}");

    // Malformed and absent req parameters are client errors.
    let (status, _, _) = http_get(http_addr, "/trace");
    assert!(status.contains("400"), "{status}");
    let (status, _, _) = http_get(http_addr, "/trace?req=banana");
    assert!(status.contains("400"), "{status}");

    // --- /debug/recent exposes ring, pins, and counters ---
    let (status, _, recent) = http_get(http_addr, "/debug/recent");
    assert!(status.contains("200"), "{status}");
    assert!(recent.contains("\"capacity\":256"), "{recent}");
    assert!(recent.contains("\"pinned\""), "{recent}");

    // --- the slow request was pinned, and pins survive wraparound ---
    assert!(
        rec.pinned().iter().any(|p| p.req_id == req_id),
        "slow lookup was not pinned (threshold {SLOW_THRESHOLD_US}us)"
    );
    chaos.set_delay_ms(0);
    for i in 0..300u32 {
        // Flood the ring far past its 256-record capacity.
        let key = format!("noise-{i}").into_bytes();
        let _ = client.partial_lookup(&key, 1);
    }
    let after = rec.spans_for(req_id);
    assert!(
        after.iter().any(|s| s.name == "partial_lookup"),
        "pinned root span did not survive ring wraparound"
    );

    recorder::install(None);
}

/// `trace_request` against an all-dead cluster reports no server
/// available rather than an empty success.
#[test]
fn trace_fan_out_fails_cleanly_with_no_servers() {
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let timeouts = Timeouts { rpc: Duration::from_millis(200), ..Timeouts::default() };
    let client = Client::connect(ClientConfig {
        timeouts,
        ..ClientConfig::new(vec![dead], StrategySpec::full_replication(), 402)
    });
    // No recorder installed here: local spans contribute nothing, and
    // the only server is unreachable.
    let err = client.trace_request(7);
    assert!(err.is_err(), "expected failure, got {err:?}");
}
