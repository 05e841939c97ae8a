//! Fault-injection tests: a [`ChaosPeer`] proxy stands in for one (or
//! all) of the cluster's servers and misbehaves — black holes, garbage
//! frames, half-closes, injected errors, delays — while the client and
//! the surviving servers must keep every operation time-bounded and
//! every answerable lookup answered.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{bind_all, call_raw, entries, http_get, rebind};
use pls_cluster::{
    BreakerConfig, ChaosConfig, ChaosPeer, Client, ClientConfig, ClusterError, Deadline, Server,
    ServerConfig, ServerHandle, Timeouts,
};
use pls_core::StrategySpec;

/// Tight time bounds so fault detection (and hence the tests) is fast.
fn tight() -> Timeouts {
    Timeouts { rpc: Duration::from_millis(300), op_budget: Duration::from_millis(3_000) }
}

/// A cluster in which some servers are fronted by chaos proxies. The
/// proxies and the servers run until it is dropped.
struct ChaosCluster {
    /// The public address list: proxies standing in at the chaos indices.
    addrs: Vec<SocketAddr>,
    /// The servers' own addresses.
    real_addrs: Vec<SocketAddr>,
    servers: Vec<ServerHandle>,
    _proxies: Vec<ChaosPeer>,
}

/// Spawns an `n`-server cluster in which the servers listed in
/// `chaos_at` are fronted by chaos proxies sharing `chaos`: everyone
/// (client and peer servers alike) reaches those servers through their
/// proxy.
fn spawn_chaos_cluster(
    n: usize,
    spec: StrategySpec,
    seed: u64,
    chaos_at: &[usize],
    chaos: &Arc<ChaosConfig>,
) -> ChaosCluster {
    let (listeners, real_addrs) = bind_all(n);
    let mut addrs = real_addrs.clone();
    let mut proxies = Vec::new();
    for &i in chaos_at {
        let (proxy, addr) =
            ChaosPeer::bind(Some(real_addrs[i]), Arc::clone(chaos)).expect("proxy bind");
        addrs[i] = addr;
        proxies.push(proxy);
    }
    let servers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            // `with_listener` rewrites peers[i] to the server's own (real)
            // bound address, so each server serves on its real socket while
            // reaching chaos-fronted peers through their proxies.
            let cfg = ServerConfig {
                timeouts: tight(),
                ..ServerConfig::new(i, addrs.clone(), spec, seed)
            };
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    ChaosCluster { addrs, real_addrs, servers, _proxies: proxies }
}

/// One key's locally stored entries at a server, pulled over the raw
/// wire protocol (bypassing any proxy).
fn stored_at(addr: SocketAddr, key: &[u8]) -> Vec<Vec<u8>> {
    let req = pls_wire::proto::Request::Snapshot { key: key.to_vec() };
    match call_raw(addr, 0xc0de, &req).unwrap().1 {
        pls_wire::proto::Response::Snapshot(snap) => {
            snap.map(|snap| snap.entries).unwrap_or_default()
        }
        other => panic!("unexpected snapshot response {other:?}"),
    }
}

/// The ISSUE acceptance scenario: one of three servers black-holed;
/// `partial_lookup` under every strategy must complete within the
/// operation budget and return `t` entries whenever the surviving
/// placement still covers them.
#[test]
fn black_holed_server_lookups_complete_within_budget_for_every_strategy() {
    let chaos = Arc::new(ChaosConfig::new(7));
    let default = StrategySpec::full_replication();
    let cluster = spawn_chaos_cluster(3, default, 200, &[2], &chaos);
    let real_addrs = &cluster.real_addrs;

    let mut client = Client::connect(ClientConfig {
        timeouts: tight(),
        ..ClientConfig::new(cluster.addrs.clone(), default, 201)
    });

    // Place five keys, one per strategy, while the proxy forwards
    // cleanly — every server (including the soon-to-be-silenced one)
    // gets its full share.
    client.place(b"k-full", entries(0..6)).unwrap();
    client.place_with_strategy(b"k-fixed", entries(0..6), StrategySpec::fixed(2)).unwrap();
    client.place_with_strategy(b"k-rand", entries(0..6), StrategySpec::random_server(4)).unwrap();
    client.place_with_strategy(b"k-hash", entries(0..6), StrategySpec::hash(2)).unwrap();
    client.place_with_strategy(b"k-round", entries(0..6), StrategySpec::round_robin(2)).unwrap();

    // Hash collisions can assign both of an entry's copies to the
    // doomed server; the achievable target is whatever the survivors
    // actually hold.
    let mut hash_union = stored_at(real_addrs[0], b"k-hash");
    for v in stored_at(real_addrs[1], b"k-hash") {
        if !hash_union.contains(&v) {
            hash_union.push(v);
        }
    }
    assert!(!hash_union.is_empty(), "survivors hold no k-hash entries at all");

    // Silence server 2: requests reach the proxy and vanish.
    chaos.set_black_hole(1.0);

    // Round-Robin-2 on n=3 (gcd 1): the stride covers all servers, and
    // every entry has a replica off server 2. Fixed-2: both prefix
    // entries everywhere. RandomServer-4: any single survivor holds 4.
    let cases: [(&[u8], usize); 5] = [
        (b"k-full", 6),
        (b"k-fixed", 2),
        (b"k-rand", 4),
        (b"k-hash", hash_union.len()),
        (b"k-round", 6),
    ];
    let budget = tight().op_budget;
    for (key, t) in cases {
        for round in 0..3 {
            let started = Instant::now();
            let got = client
                .partial_lookup(key, t)
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", String::from_utf8_lossy(key)));
            let elapsed = started.elapsed();
            assert!(
                elapsed < budget,
                "{} round {round} took {elapsed:?} (budget {budget:?})",
                String::from_utf8_lossy(key)
            );
            assert_eq!(got.len(), t, "{} round {round}", String::from_utf8_lossy(key));
        }
    }

    // The silent server cost us rpc deadlines, and the snapshot says so.
    let snap = client.metrics_snapshot();
    assert!(
        snap.counter("pls_rpc_timeouts_total").unwrap_or(0) > 0,
        "no rpc timeouts recorded against the black-holed server"
    );
}

/// Client-side circuit breaker: consecutive timeouts open it, open
/// circuits fast-fail without touching the network, and after the
/// cooldown a half-open trial against a recovered peer closes it.
#[test]
fn breaker_opens_fast_fails_and_half_opens_after_cooldown() {
    let chaos = Arc::new(ChaosConfig::new(8));
    chaos.set_black_hole(1.0);
    let (_proxy, addr) = ChaosPeer::bind(None, Arc::clone(&chaos)).unwrap();

    let timeouts = Timeouts { rpc: Duration::from_millis(100), ..Timeouts::default() };
    let breaker = BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(300) };
    let client = Client::connect(ClientConfig {
        timeouts,
        breaker,
        ..ClientConfig::new(vec![addr], StrategySpec::full_replication(), 202)
    });

    // Three timed-out calls open the circuit...
    for i in 0..3 {
        let err = client.status_of(0).unwrap_err();
        assert!(matches!(err, ClusterError::Timeout("rpc")), "call {i}: {err:?}");
    }
    // ...after which calls fast-fail without waiting out any deadline.
    let started = Instant::now();
    let err = client.status_of(0).unwrap_err();
    assert!(matches!(err, ClusterError::PeerUnhealthy), "{err:?}");
    assert!(started.elapsed() < Duration::from_millis(50), "fast-fail was not fast");

    let snap = client.metrics_snapshot();
    assert!(snap.counter("pls_rpc_timeouts_total").unwrap_or(0) >= 3);
    assert!(snap.counter("pls_breaker_opens_total").unwrap_or(0) >= 1);
    assert!(snap.counter("pls_breaker_fast_fails_total").unwrap_or(0) >= 1);

    // Heal the peer and wait out the cooldown: the half-open trial gets
    // through (the bare proxy acks with `Ok`, which `status_of` calls
    // an unexpected — but *answered* — response)...
    chaos.set_black_hole(0.0);
    let mut err = ClusterError::PeerUnhealthy;
    Deadline::within(Duration::from_secs(5)).wait_until(|| {
        err = client.status_of(0).unwrap_err();
        err != ClusterError::PeerUnhealthy
    });
    assert!(matches!(err, ClusterError::Remote(_)), "trial call was not admitted: {err:?}");
    // ...and its success closes the circuit for subsequent calls too.
    let err = client.status_of(0).unwrap_err();
    assert!(matches!(err, ClusterError::Remote(_)), "circuit did not close: {err:?}");
}

/// Hedged probes: with one of three servers responding slowly, lookups
/// that happen to probe it first hedge onto the next server after the
/// hedge delay and take the fast answer — without cancelling the slow
/// probe, and without ever failing the lookup.
#[test]
fn hedged_probes_fire_and_win_against_a_slow_server() {
    let chaos = Arc::new(ChaosConfig::new(9));
    let spec = StrategySpec::random_server(4);
    let cluster = spawn_chaos_cluster(3, spec, 210, &[2], &chaos);

    let mut client = Client::connect(ClientConfig {
        timeouts: tight(),
        hedge: Some(Duration::from_millis(30)),
        ..ClientConfig::new(cluster.addrs.clone(), spec, 211)
    });
    client.place(b"k", entries(0..6)).unwrap();

    // From now on server 2 answers correctly but 200ms late — well past
    // the 30ms hedge delay, yet inside the 300ms rpc deadline, so a
    // probe against it hangs (rather than erroring) until someone else
    // answers.
    chaos.set_delay_ms(200);

    // Any single server holds x=4 entries, so t=4 is satisfied by the
    // first answer. Over 25 shuffled lookups the slow server comes
    // first often; each such lookup must hedge (timer < 200ms delay)
    // and the hedged fast probe must win while the slow one hangs.
    for _ in 0..25 {
        let started = Instant::now();
        let got = client.partial_lookup(b"k", 4).unwrap();
        assert_eq!(got.len(), 4);
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    let m = client.metrics();
    assert!(m.hedges.get() >= 1, "no hedged probe was ever launched");
    assert!(m.hedge_wins.get() >= 1, "no hedged probe ever won");
    let snap = client.metrics_snapshot();
    assert_eq!(snap.counter("pls_client_hedges_total"), Some(m.hedges.get()));
    assert!(snap.histogram("pls_client_hedge_win_latency_us").unwrap().count > 0);
}

/// A hedged lookup never waits for its straggler: with one server
/// black-holed, a lookup that probes it first returns from the hedge
/// long before that probe's RPC deadline — and the probe, still out on
/// its prober thread, is joined when the client is dropped, so the drop
/// returns only once the deadline has run out (and not much later).
#[test]
fn a_hedged_lookup_leaves_its_black_holed_probe_behind_and_drop_joins_it() {
    let chaos = Arc::new(ChaosConfig::new(13));
    let spec = StrategySpec::full_replication();
    let cluster = spawn_chaos_cluster(3, spec, 250, &[2], &chaos);
    let rpc = Duration::from_millis(800);
    let timeouts = Timeouts { rpc, ..tight() };
    let mut client = Client::connect(ClientConfig {
        timeouts,
        hedge: Some(Duration::from_millis(20)),
        ..ClientConfig::new(cluster.addrs.clone(), spec, 251)
    });
    client.place(b"k", entries(0..6)).unwrap();
    chaos.set_black_hole(1.0);

    // Full replication probes one random server; a third of the lookups
    // start at the silent one and must hedge to get their answer.
    let mut hedged_at = None;
    for _ in 0..200 {
        let started = Instant::now();
        let got = client.partial_lookup(b"k", 6).unwrap();
        assert_eq!(got.len(), 6);
        if client.metrics().hedges.get() > 0 {
            hedged_at = Some((started, started.elapsed()));
            break;
        }
    }
    let (started, took) = hedged_at.expect("no lookup ever started at the black-holed server");
    assert!(took < rpc / 2, "the hedged lookup waited for its straggler: {took:?}");
    assert_eq!(client.metrics().hedge_wins.get(), 1);

    drop(client);
    let gone = started.elapsed();
    assert!(gone >= rpc, "drop returned with a probe still in flight ({gone:?})");
    assert!(gone < rpc + Duration::from_millis(500), "drop outlasted the RPC deadline: {gone:?}");
}

/// Garbage frames, injected errors, and half-closes are all *peer
/// faults*: the lookup skips the misbehaving server and completes from
/// the healthy ones, every time.
#[test]
fn byzantine_faults_are_skipped_like_crashes() {
    let chaos = Arc::new(ChaosConfig::new(10));
    let spec = StrategySpec::full_replication();
    let cluster = spawn_chaos_cluster(3, spec, 220, &[1], &chaos);

    let mut client = Client::connect(ClientConfig {
        timeouts: tight(),
        // Keep the breaker out of the picture: this test pins the
        // skip-and-move-on path, not demotion.
        breaker: BreakerConfig { failure_threshold: u32::MAX, ..Default::default() },
        ..ClientConfig::new(cluster.addrs.clone(), spec, 221)
    });
    client.place(b"k", entries(0..6)).unwrap();

    let arm: [(&str, &dyn Fn()); 3] = [
        ("garbage", &|| chaos.set_garbage(1.0)),
        ("error", &|| chaos.set_error(1.0)),
        ("half-close", &|| chaos.set_half_close(1.0)),
    ];
    for (name, enable) in arm {
        chaos.set_garbage(0.0);
        chaos.set_error(0.0);
        chaos.set_half_close(0.0);
        enable();
        for round in 0..4 {
            let got = client
                .partial_lookup(b"k", 6)
                .unwrap_or_else(|e| panic!("{name} round {round}: {e}"));
            assert_eq!(got.len(), 6, "{name} round {round}");
        }
    }
}

/// Every read of the members skips a member that garbles its frames or
/// answers with an error, as lookups do: `stats` and `trace` merge what
/// the healthy members answered, and so does a server's `/trace`
/// fan-out.
#[test]
fn reads_skip_a_garbling_and_an_erroring_member() {
    let spec = StrategySpec::full_replication();
    let (garbage, error) = (Arc::new(ChaosConfig::new(14)), Arc::new(ChaosConfig::new(15)));
    let (listeners, real_addrs) = bind_all(4);
    let mut addrs = real_addrs.clone();
    let mut proxies = Vec::new();
    for (i, chaos) in [(1, &garbage), (2, &error)] {
        let (proxy, addr) =
            ChaosPeer::bind(Some(real_addrs[i]), Arc::clone(chaos)).expect("proxy bind");
        addrs[i] = addr;
        proxies.push(proxy);
    }
    let servers: Vec<Server> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig {
                timeouts: tight(),
                ..ServerConfig::new(i, addrs.clone(), spec, 260)
            };
            Server::with_listener(cfg, listener).expect("server").0
        })
        .collect();
    let (mut http_listeners, http_addrs) = bind_all(1);
    let router = Arc::new(servers[0].router());
    let _exporter =
        pls_cluster::http::serve_router(http_listeners.remove(0), router).expect("exporter");
    let _servers: Vec<ServerHandle> = servers.into_iter().map(Server::spawn).collect();

    let mut client =
        Client::connect(ClientConfig { timeouts: tight(), ..ClientConfig::new(addrs, spec, 261) });
    client.place(b"k", entries(0..4)).unwrap();
    garbage.set_garbage(1.0);
    error.set_error(1.0);

    // Every member holds the one key; the merge counts the two healthy
    // members' only.
    let merged = client.cluster_metrics(false).expect("stats skips the faulty members");
    assert_eq!(merged.counter_sum("pls_keys"), 2);
    assert_eq!(client.partial_lookup(b"k", 4).unwrap().len(), 4);
    let req = client.last_request_id();
    client.trace_request(req).expect("trace skips the faulty members");
    let (status, _, body) = http_get(http_addrs[0], &format!("/trace?req={req}"));
    assert!(status.contains("200"), "{status}");
    assert!(body.starts_with('['), "not a JSON array: {body}");
}

/// A read of every member runs under one operation budget: with every
/// member black-holed, `stats`, `trace` and `membership` give up when the
/// budget is spent, not after one RPC deadline per member.
#[test]
fn reads_of_black_holed_members_end_within_the_op_budget() {
    let chaos = Arc::new(ChaosConfig::new(16));
    let spec = StrategySpec::full_replication();
    let cluster = spawn_chaos_cluster(3, spec, 270, &[0, 1, 2], &chaos);
    let timeouts =
        Timeouts { rpc: Duration::from_millis(300), op_budget: Duration::from_millis(500) };
    let mut client = Client::connect(ClientConfig {
        timeouts,
        ..ClientConfig::new(cluster.addrs.clone(), spec, 271)
    });
    chaos.set_black_hole(1.0);
    let bound = timeouts.op_budget + Duration::from_millis(250);

    let started = Instant::now();
    let err = client.cluster_metrics(false).unwrap_err();
    assert!(started.elapsed() < bound, "stats took {:?} ({err})", started.elapsed());
    let started = Instant::now();
    let err = client.trace_request(7).unwrap_err();
    assert!(started.elapsed() < bound, "trace took {:?} ({err})", started.elapsed());
    let started = Instant::now();
    let err = client.membership().unwrap_err();
    assert!(started.elapsed() < bound, "membership took {:?} ({err})", started.elapsed());
}

/// Server-side robustness: updates whose internal fan-out hits a
/// black-holed peer still complete in bounded time (the message is
/// dropped, as for a crashed peer), the coordinators' rpc timeouts and
/// breaker trips show up in the cluster-merged metrics, and the data
/// stays retrievable.
#[test]
fn black_holed_fan_out_is_bounded_and_counted() {
    let chaos = Arc::new(ChaosConfig::new(11));
    chaos.set_black_hole(1.0);
    let spec = StrategySpec::full_replication();
    let cluster = spawn_chaos_cluster(3, spec, 230, &[2], &chaos);

    let mut client = Client::connect(ClientConfig {
        timeouts: tight(),
        ..ClientConfig::new(cluster.addrs.clone(), spec, 231)
    });

    // Every update's fan-out to server 2 dies in the proxy; the
    // coordinating server must give up on it within its own budget and
    // still ack the client.
    let started = Instant::now();
    client.place(b"k", entries(0..4)).unwrap();
    for i in 0..5u32 {
        client.add(b"k", format!("late{i}").into_bytes()).unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "updates against a black-holed peer took {:?}",
        started.elapsed()
    );

    // The survivors replicated everything they coordinated.
    let got = client.partial_lookup(b"k", 9).unwrap();
    assert_eq!(got.len(), 9);

    // Merged server metrics (the black-holed server is skipped) expose
    // the cost: rpc deadlines burned on fan-out, and at least one
    // coordinator's breaker gave up on the silent peer.
    let merged = client.cluster_metrics(false).unwrap();
    assert!(
        merged.counter_sum("pls_rpc_timeouts_total") > 0,
        "server-side fan-out recorded no rpc timeouts"
    );
    assert!(
        merged.counter_sum("pls_breaker_opens_total") >= 1,
        "no server-side breaker opened against the silent peer"
    );
    assert!(merged.counter("pls_internal_send_failures_total").unwrap_or(0) > 0);
}

/// Cold-start resync against a black-holed donor: every Keys/Snapshot
/// pull is deadline-capped and the whole recovery runs under one
/// operation budget, so a silent donor *delays* resync by at most a few
/// capped RPCs — it never hangs it — and the state still comes back
/// complete from the healthy donors.
#[test]
fn black_holed_donor_delays_but_never_hangs_resync() {
    let chaos = Arc::new(ChaosConfig::new(12));
    let spec = StrategySpec::full_replication();
    let mut cluster = spawn_chaos_cluster(4, spec, 240, &[1], &chaos);
    let addrs = cluster.addrs.clone();

    let mut client = Client::connect(ClientConfig {
        timeouts: tight(),
        ..ClientConfig::new(addrs.clone(), spec, 241)
    });
    client.place(b"k1", entries(0..10)).unwrap();
    client.place(b"k2", entries(50..55)).unwrap();

    // Silence the donor at index 1, crash server 3, and cold-start a
    // replacement that must resync through the remaining donors.
    chaos.set_black_hole(1.0);
    cluster.servers[3].kill();
    let listener = rebind(addrs[3]);
    let cfg = ServerConfig { timeouts: tight(), ..ServerConfig::new(3, addrs.clone(), spec, 240) };
    let (replacement, _) = Server::with_listener(cfg, listener).unwrap();

    let started = Instant::now();
    let recovered = replacement.resync_from_peers().unwrap();
    let elapsed = started.elapsed();
    // The op budget bounds the whole resync; the black-holed donor may
    // burn one capped RPC per pull but cannot push past the budget.
    let budget = tight().op_budget + Duration::from_secs(2);
    assert!(elapsed < budget, "resync took {elapsed:?} against a silent donor");
    assert_eq!(recovered, 2, "both keys must come back from the healthy donors");
    let _replacement = replacement.spawn();

    let (keys, stored) = client.status_of(3).unwrap();
    assert_eq!(keys, 2);
    assert_eq!(stored, 15);
}
