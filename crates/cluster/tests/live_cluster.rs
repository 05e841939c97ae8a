//! End-to-end tests of the TCP deployment: real listeners on ephemeral
//! ports, real server-to-server fan-out, real crashes (killed servers).

mod common;

use std::net::SocketAddr;

use common::{bind_all, call_raw, entries, rebind};
use pls_cluster::{Client, ClientConfig, Server, ServerConfig, ServerHandle};
use pls_core::StrategySpec;

/// Spawns an `n`-server cluster on ephemeral ports; returns the resolved
/// addresses and the running servers (kill one to crash it; dropping the
/// handles kills them all).
fn spawn_cluster(n: usize, spec: StrategySpec, seed: u64) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    // Bind all listeners first so every server knows the final address
    // list, then construct and start the servers on those listeners.
    let (listeners, addrs) = bind_all(n);
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig::new(i, addrs.clone(), spec, seed);
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    (addrs, handles)
}

/// Runs `lookups` lookups of `t` entries of key `k` and counts how often
/// each entry of `universe` was returned (§4.5's retrievals per entry).
fn tally(client: &mut Client, universe: &[Vec<u8>], t: usize, lookups: usize) -> Vec<u64> {
    let mut counts = vec![0u64; universe.len()];
    for _ in 0..lookups {
        let got = client.partial_lookup(b"k", t).unwrap();
        assert_eq!(got.len(), t);
        for v in &got {
            counts[universe.iter().position(|u| u == v).expect("a placed entry")] += 1;
        }
    }
    counts
}

#[test]
fn full_replication_roundtrip() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 1);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 10));
    client.place(b"song", entries(0..10)).unwrap();
    let got = client.partial_lookup(b"song", 4).unwrap();
    assert_eq!(got.len(), 4);
    // Every server has all 10 entries.
    for i in 0..3 {
        let (keys, stored) = client.status_of(i).unwrap();
        assert_eq!(keys, 1);
        assert_eq!(stored, 10);
    }
}

#[test]
fn fixed_strategy_selective_updates() {
    let spec = StrategySpec::fixed(5);
    let (addrs, _handles) = spawn_cluster(4, spec, 2);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 11));
    client.place(b"k", entries(0..20)).unwrap();
    for i in 0..4 {
        let (_, stored) = client.status_of(i).unwrap();
        assert_eq!(stored, 5, "server {i}");
    }
    // Delete one of the stored prefix entries; all servers drop to 4.
    client.delete(b"k", b"peer0:6699".to_vec()).unwrap();
    for i in 0..4 {
        let (_, stored) = client.status_of(i).unwrap();
        assert_eq!(stored, 4, "server {i}");
    }
    // Add refills everywhere.
    client.add(b"k", b"newpeer:1".to_vec()).unwrap();
    for i in 0..4 {
        let (_, stored) = client.status_of(i).unwrap();
        assert_eq!(stored, 5, "server {i}");
    }
}

#[test]
fn random_server_lookup_merges() {
    let spec = StrategySpec::random_server(4);
    let (addrs, _handles) = spawn_cluster(5, spec, 3);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 12));
    client.place(b"k", entries(0..20)).unwrap();
    // x=4 per server; asking for 10 requires merging several probes.
    let got = client.partial_lookup(b"k", 10).unwrap();
    assert!(got.len() >= 10, "got {}", got.len());
    // Distinct answers.
    let mut sorted = got.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), got.len());
}

#[test]
fn hash_strategy_distributes_and_updates() {
    let spec = StrategySpec::hash(2);
    let (addrs, _handles) = spawn_cluster(4, spec, 4);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 13));
    client.place(b"k", entries(0..30)).unwrap();
    let total: u64 = {
        let mut sum = 0;
        for i in 0..4 {
            sum += client.status_of(i).unwrap().1;
        }
        sum
    };
    // 30 entries × up to 2 copies, minus collisions.
    assert!(total > 30 && total <= 60, "total stored {total}");
    client.add(b"k", b"extra".to_vec()).unwrap();
    let got = client.partial_lookup(b"k", 25).unwrap();
    assert!(got.len() >= 25);
    client.delete(b"k", b"extra".to_vec()).unwrap();
}

#[test]
fn round_robin_migration_over_tcp() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(4, spec, 5);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 14));
    // The Figure 10 scenario, over real sockets.
    let es: Vec<Vec<u8>> = (1..=5u32).map(|i| format!("e{i}").into_bytes()).collect();
    client.place(b"k", es.clone()).unwrap();
    client.delete(b"k", b"e3".to_vec()).unwrap();
    // 4 live entries × 2 copies = 8 stored across servers.
    let mut total = 0;
    for i in 0..4 {
        total += client.status_of(i).unwrap().1;
    }
    assert_eq!(total, 8);
    // All four survivors retrievable.
    let got = client.partial_lookup(b"k", 4).unwrap();
    assert_eq!(got.len(), 4);
    assert!(!got.contains(&b"e3".to_vec()));
}

#[test]
fn round_robin_delete_completes_through_a_cycle_of_blocked_handlers() {
    // Round-Robin-2 on three servers, entry `e2` at position 1 (held by
    // servers 1 and 2), head position 0 (head server 0). Deleting it runs
    // the whole Fig. 11 graph: the coordinator's handler (server 0) blocks
    // on its RrRemove to servers 1 and 2; each of them, inside that
    // handler, blocks on a migrate request back to server 0 — whose
    // handler for the client is still blocked — and server 0 serves those
    // on further threads, sending the replacement to the holes. With one
    // connection per peer, or a bounded pool of handlers, that cycle is a
    // deadlock; here it completes.
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 130);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 131));
    let es: Vec<Vec<u8>> = (1..=6u32).map(|i| format!("e{i}").into_bytes()).collect();
    client.place(b"k", es).unwrap();
    let sent = |client: &Client| -> Vec<u64> {
        (0..3)
            .map(|i| {
                let m = client.metrics_of(i, false).unwrap();
                m.counter("pls_internal_sent_total").unwrap()
            })
            .collect()
    };
    let before = sent(&client);
    let started = std::time::Instant::now();
    client.delete(b"k", b"e2".to_vec()).unwrap();
    assert!(started.elapsed() < std::time::Duration::from_secs(2), "{:?}", started.elapsed());
    // Every server's handler made (and was blocked in) at least one peer
    // call of its own during this one delete.
    let after = sent(&client);
    for i in 0..3 {
        assert!(after[i] > before[i], "server {i} never called a peer: {before:?} -> {after:?}");
    }
    // Five live entries, two copies each, none of them `e2`.
    let mut total = 0;
    for i in 0..3 {
        total += client.status_of(i).unwrap().1;
    }
    assert_eq!(total, 10);
    let got = client.partial_lookup(b"k", 6).unwrap();
    assert_eq!(got.len(), 5);
    assert!(!got.contains(&b"e2".to_vec()));
}

#[test]
fn round_robin_update_rejected_at_non_coordinator() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 6);
    // Talk to server 1 directly with a raw add: must be refused.
    let add = pls_wire::proto::Request::Add { key: b"k".to_vec(), entry: b"e".to_vec() };
    let (id, response) = call_raw(addrs[1], 0xfeed, &add).unwrap();
    assert_eq!(id, 0xfeed, "server must echo the request id");
    match response {
        pls_wire::proto::Response::Error(msg) => {
            assert!(msg.contains("coordinator"), "{msg}");
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn lookup_survives_server_crash() {
    let spec = StrategySpec::random_server(10);
    let (addrs, mut handles) = spawn_cluster(4, spec, 7);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 15));
    client.place(b"k", entries(0..20)).unwrap();
    // Crash two servers.
    handles[0].kill();
    handles[3].kill();
    // x=10 per surviving server; t=12 still satisfiable by merging the
    // two survivors (whp), and the client must skip the dead ones.
    let got = client.partial_lookup(b"k", 12).unwrap();
    assert!(got.len() >= 12, "got {}", got.len());
}

#[test]
fn updates_fail_over_to_live_servers() {
    let spec = StrategySpec::full_replication();
    let (addrs, mut handles) = spawn_cluster(3, spec, 8);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 16));
    client.place(b"k", entries(0..5)).unwrap();
    handles[1].kill();
    // The client retries other coordinators transparently.
    for i in 0..10 {
        client.add(b"k", format!("late{i}").into_bytes()).unwrap();
    }
    let (_, stored0) = client.status_of(0).unwrap();
    let (_, stored2) = client.status_of(2).unwrap();
    assert_eq!(stored0, 15);
    assert_eq!(stored2, 15);
}

#[test]
fn all_servers_down_is_reported() {
    let spec = StrategySpec::full_replication();
    let (addrs, mut handles) = spawn_cluster(2, spec, 9);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 17));
    client.place(b"k", entries(0..3)).unwrap();
    for h in &mut handles {
        h.kill();
    }
    let err = client.partial_lookup(b"k", 1).unwrap_err();
    assert!(matches!(
        err,
        pls_cluster::ClusterError::NoServerAvailable | pls_cluster::ClusterError::Io(_)
    ));
}

#[test]
fn concurrent_clients_do_not_corrupt_state() {
    // Eight clients hammer adds on their own keys while others look up;
    // afterwards every key holds exactly what its client wrote.
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 30);
    let mut tasks = Vec::new();
    for c in 0..8u32 {
        let addrs = addrs.clone();
        tasks.push(std::thread::spawn(move || {
            let mut client = Client::connect(ClientConfig::new(addrs, spec, 100 + c as u64));
            let key = format!("stream{c}").into_bytes();
            client.place(&key, vec![]).unwrap();
            for i in 0..25u32 {
                client.add(&key, format!("{c}/{i}").into_bytes()).unwrap();
                if i % 5 == 0 {
                    // Interleave lookups from the same client.
                    let _ = client.partial_lookup(&key, 1).unwrap();
                }
            }
        }));
    }
    for t in tasks {
        t.join().unwrap();
    }
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 999));
    for c in 0..8u32 {
        let key = format!("stream{c}").into_bytes();
        let got = client.partial_lookup(&key, 25).unwrap();
        assert_eq!(got.len(), 25, "key stream{c}");
        for e in &got {
            assert!(e.starts_with(format!("{c}/").as_bytes()), "cross-key leak into stream{c}");
        }
    }
}

#[test]
fn concurrent_round_robin_updates_remain_consistent() {
    // All round-robin updates funnel through server 0; concurrent clients
    // must still leave every entry on exactly y servers.
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(4, spec, 31);
    let mut tasks = Vec::new();
    for c in 0..4u32 {
        let addrs = addrs.clone();
        tasks.push(std::thread::spawn(move || {
            let mut client = Client::connect(ClientConfig::new(addrs, spec, 200 + c as u64));
            for i in 0..20u32 {
                client.add(b"shared", format!("{c}/{i}").into_bytes()).unwrap();
            }
        }));
    }
    for t in tasks {
        t.join().unwrap();
    }
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 998));
    // 80 entries, 2 copies each.
    let mut total = 0;
    for i in 0..4 {
        total += client.status_of(i).unwrap().1;
    }
    assert_eq!(total, 160);
    let got = client.partial_lookup(b"shared", 80).unwrap();
    assert_eq!(got.len(), 80);
}

#[test]
fn cold_restarted_server_resyncs_full_replication() {
    let spec = StrategySpec::full_replication();
    let (addrs, mut handles) = spawn_cluster(3, spec, 40);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 41));
    client.place(b"k1", entries(0..10)).unwrap();
    client.place(b"k2", entries(50..55)).unwrap();

    // Crash server 1 and replace it with a cold instance on the same
    // address.
    handles[1].kill();
    let listener = rebind(addrs[1]);
    let cfg = ServerConfig::new(1, addrs.clone(), spec, 40);
    let (replacement, _) = Server::with_listener(cfg, listener).unwrap();
    let recovered = replacement.resync_from_peers().unwrap();
    assert_eq!(recovered, 2);
    let _replacement = replacement.spawn();

    // The replacement holds everything again.
    let (keys, stored) = client.status_of(1).unwrap();
    assert_eq!(keys, 2);
    assert_eq!(stored, 15);
}

#[test]
fn cold_restarted_round_robin_server_resyncs_positions() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, mut handles) = spawn_cluster(4, spec, 42);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 43));
    client.place(b"k", entries(0..12)).unwrap();

    handles[2].kill();
    // Updates continue while server 2 is down (the coordinator is up).
    client.add(b"k", b"late:1".to_vec()).unwrap();
    client.delete(b"k", b"peer0:6699".to_vec()).unwrap();

    let listener = rebind(addrs[2]);
    let cfg = ServerConfig::new(2, addrs.clone(), spec, 42);
    let (replacement, _) = Server::with_listener(cfg, listener).unwrap();
    assert_eq!(replacement.resync_from_peers().unwrap(), 1);
    let _replacement = replacement.spawn();

    // 12 live entries × 2 copies = 24 stored across the cluster.
    let mut total = 0;
    for i in 0..4 {
        total += client.status_of(i).unwrap().1;
    }
    assert_eq!(total, 24);
    // Full coverage retrievable, including through the replacement.
    let got = client.partial_lookup(b"k", 12).unwrap();
    assert_eq!(got.len(), 12);
    assert!(!got.contains(&b"peer0:6699".to_vec()));
    assert!(got.contains(&b"late:1".to_vec()));
}

/// Seven servers, placement groups of five: a cold-start resync rebuilds
/// the keys whose group holds the restarted server and skips the others,
/// instead of failing on the first key that is not its own.
#[test]
fn cold_start_resync_in_a_cluster_wider_than_the_group() {
    use pls_core::{GroupRouter, Membership};
    use pls_wire::proto::{Request, Response};

    let (spec, seed) = (StrategySpec::full_replication(), 46);
    let (addrs, mut handles) = spawn_cluster(7, spec, seed);
    let mut client = Client::connect(ClientConfig {
        group_size: 5,
        placement_seed: seed,
        ..ClientConfig::new(addrs.clone(), spec, 47)
    });
    let keys: Vec<Vec<u8>> = (0..24).map(|i| format!("key/{i}").into_bytes()).collect();
    for key in &keys {
        client.place(key, entries(0..6)).unwrap();
    }
    let view = Membership::bootstrap(addrs.iter().map(|a| a.to_string()));
    let router = GroupRouter::new(5, seed);
    let owned: Vec<&Vec<u8>> =
        keys.iter().filter(|k| router.group(&view, k).contains(&6)).collect();
    assert!(!owned.is_empty() && owned.len() < keys.len(), "{} of 24", owned.len());

    handles[6].kill();
    let cfg = ServerConfig::new(6, addrs.clone(), spec, seed);
    let (replacement, _) = Server::with_listener(cfg, rebind(addrs[6])).unwrap();
    assert_eq!(replacement.resync_from_peers(), Ok(owned.len()));
    let _replacement = replacement.spawn();
    for key in owned {
        let req = Request::Snapshot { key: key.clone() };
        let Ok((_, Response::Snapshot(Some(snap)))) = call_raw(addrs[6], 6, &req) else {
            panic!("no snapshot of {key:?}");
        };
        let mut entries = snap.entries;
        entries.sort();
        assert_eq!(entries, common::entries(0..6), "{key:?}");
    }
}

#[test]
fn resync_with_no_peers_reports_unavailable() {
    let spec = StrategySpec::fixed(3);
    let (addrs, mut handles) = spawn_cluster(2, spec, 44);
    for h in &mut handles {
        h.kill();
    }
    let listener = rebind(addrs[0]);
    let cfg = ServerConfig::new(0, addrs.clone(), spec, 44);
    let (replacement, _) = Server::with_listener(cfg, listener).unwrap();
    assert!(matches!(
        replacement.resync_from_peers(),
        Err(pls_cluster::ClusterError::NoServerAvailable)
    ));
}

#[test]
fn per_key_strategies_coexist() {
    // Cluster default is Hash-2; one hot key is placed under Round-2.
    let default = StrategySpec::hash(2);
    let (addrs, _handles) = spawn_cluster(4, default, 60);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), default, 61));
    client.place(b"cold", entries(0..12)).unwrap();
    client.place_with_strategy(b"hot", entries(100..112), StrategySpec::round_robin(2)).unwrap();
    assert_eq!(client.spec_of(b"hot"), StrategySpec::round_robin(2));
    assert_eq!(client.spec_of(b"cold"), default);

    // Round-robin placement: exactly 2 copies of each of 12 entries,
    // spread 6 per server.
    let mut client2 = Client::connect(ClientConfig::new(addrs, default, 62));
    client2.place_with_strategy(b"probe-only", vec![], StrategySpec::round_robin(2)).unwrap();
    // A fresh client discovers the per-key strategy from the cluster.
    let discovered = client2.refresh_spec(b"hot").unwrap();
    assert_eq!(discovered, Some(StrategySpec::round_robin(2)));
    assert_eq!(client2.spec_of(b"hot"), StrategySpec::round_robin(2));
    assert_eq!(client2.refresh_spec(b"nonexistent").unwrap(), None);

    // Status counts mix both keys; check via lookups instead.
    let hot = client.partial_lookup(b"hot", 12).unwrap();
    assert_eq!(hot.len(), 12);
    let cold = client.partial_lookup(b"cold", 10).unwrap();
    assert!(cold.len() >= 10);

    // Round-robin updates on the hot key must go through server 0 — the
    // client routes there automatically.
    client.add(b"hot", b"late".to_vec()).unwrap();
    client.delete(b"hot", b"peer100:6699".to_vec()).unwrap();
    let hot = client.partial_lookup(b"hot", 12).unwrap();
    assert_eq!(hot.len(), 12);
    assert!(hot.contains(&b"late".to_vec()));
    // The delete propagated to every server (this once silently failed
    // when non-coordinator servers built the key's engine under the
    // default strategy).
    assert!(!hot.contains(&b"peer100:6699".to_vec()));
    let everything = client.partial_lookup(b"hot", 13).unwrap();
    assert_eq!(everything.len(), 12, "deleted entry still retrievable");
}

#[test]
fn conflicting_per_key_strategy_is_rejected() {
    let default = StrategySpec::hash(2);
    let (addrs, _handles) = spawn_cluster(3, default, 63);
    let mut client = Client::connect(ClientConfig::new(addrs, default, 64));
    client.place_with_strategy(b"k", entries(0..5), StrategySpec::fixed(3)).unwrap();
    let err =
        client.place_with_strategy(b"k", entries(0..5), StrategySpec::round_robin(1)).unwrap_err();
    match err {
        pls_cluster::ClusterError::Remote(msg) => assert!(msg.contains("already managed"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    // The refused strategy is not recorded: the key keeps the procedure
    // the cluster manages it under.
    assert_eq!(client.spec_of(b"k"), StrategySpec::fixed(3));
}

#[test]
fn metrics_rpc_reports_per_variant_counts() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 80);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 81));
    client.place(b"k", entries(0..10)).unwrap();
    client.add(b"k", b"extra1".to_vec()).unwrap();
    client.add(b"k", b"extra2".to_vec()).unwrap();
    for _ in 0..5 {
        let got = client.partial_lookup(b"k", 3).unwrap();
        assert_eq!(got.len(), 3);
    }

    // Cluster-wide view: the client's requests, summed over servers.
    let merged = client.cluster_metrics(false).unwrap();
    assert_eq!(merged.counter("pls_requests_total{op=\"place\"}"), Some(1));
    assert_eq!(merged.counter("pls_requests_total{op=\"add\"}"), Some(2));
    // Full replication: one probe per lookup.
    assert_eq!(merged.counter("pls_requests_total{op=\"probe\"}"), Some(5));
    // Place/add fan out as Internal messages to the other two servers.
    assert_eq!(merged.counter("pls_requests_total{op=\"internal\"}"), Some(6));
    assert_eq!(merged.counter("pls_probes_total{strategy=\"full\"}"), Some(5));
    // Every server materialized one engine for the key.
    assert_eq!(merged.counter("pls_engines_created_total"), Some(3));
    assert_eq!(merged.counter("pls_keys"), Some(3));
    assert!(merged.counter("pls_bytes_read_total").unwrap() > 0);
    assert!(merged.counter("pls_bytes_written_total").unwrap() > 0);
    let lat = merged.histogram("pls_request_latency_us").unwrap();
    assert!(lat.count >= 8, "request latency count {}", lat.count);

    // Client side: the probes-per-lookup histogram covers every lookup,
    // and the client's probe count matches what the servers saw.
    let snap = client.metrics_snapshot();
    let per_lookup = snap.histogram("pls_client_probes_per_lookup").unwrap();
    assert_eq!(per_lookup.count, 5);
    assert_eq!(per_lookup.mean(), 1.0);
    assert_eq!(
        snap.counter("pls_client_probes_total"),
        merged.counter("pls_requests_total{op=\"probe\"}")
    );
}

#[test]
fn metrics_reset_drains_counters_between_scrapes() {
    let spec = StrategySpec::fixed(4);
    let (addrs, _handles) = spawn_cluster(2, spec, 82);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 83));
    client.place(b"k", entries(0..6)).unwrap();
    client.partial_lookup(b"k", 2).unwrap();

    let first = client.cluster_metrics(true).unwrap();
    assert_eq!(first.counter("pls_requests_total{op=\"place\"}"), Some(1));
    // The scrape drained every counter; only the scrape itself remains.
    let second = client.cluster_metrics(false).unwrap();
    assert_eq!(second.counter("pls_requests_total{op=\"place\"}"), Some(0));
    assert_eq!(second.counter("pls_requests_total{op=\"probe\"}"), Some(0));
    assert_eq!(second.counter("pls_requests_total{op=\"metrics\"}"), Some(2));
    // Gauges are point-in-time, not drained.
    assert_eq!(second.counter("pls_keys"), Some(2));
}

#[test]
fn round_robin_probe_count_matches_analytic_lookup_cost() {
    // Round-Robin-2, n=4, h=12: each server holds 6 entries and
    // consecutive stride contacts are disjoint, so the §4.2 analytic
    // cost ceil(t·n/(y·h)) is exact — the live client must match it.
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(4, spec, 84);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 85));
    client.place(b"k", entries(0..12)).unwrap();

    let lookups = 20usize;
    for (t, want) in [(6usize, 1.0f64), (12, 2.0)] {
        let before = client.metrics().probes_per_lookup.snapshot();
        for _ in 0..lookups {
            let got = client.partial_lookup(b"k", t).unwrap();
            assert_eq!(got.len(), t);
        }
        let mut after = client.metrics().probes_per_lookup.snapshot();
        // Delta over this batch of lookups.
        after.count -= before.count;
        after.sum -= before.sum;
        let analytic =
            pls_metrics::lookup_cost::analytic(spec, 12, 4, t).expect("round-robin is closed-form");
        assert_eq!(analytic, want);
        assert_eq!(after.count, lookups as u64);
        assert!(
            (after.mean() - analytic).abs() < 1e-9,
            "t={t}: live mean {} vs analytic {analytic}",
            after.mean()
        );
    }
}

#[test]
fn random_server_probe_count_matches_simulated_expectation() {
    // RandomServer-x has no closed form (analytic() returns None), so the
    // oracle is pls-metrics' simulation-measured cost on an identically
    // shaped pls-core cluster: n=5, x=10, h=20, t=12. (x ≥ t would make a
    // single probe sufficient; x=10 < t=12 forces merging, while any
    // placement still covers ≥ 12 distinct entries with overwhelming
    // probability.)
    let spec = StrategySpec::random_server(10);
    assert_eq!(pls_metrics::lookup_cost::analytic(spec, 20, 5, 12), None);
    let expected = {
        let mut acc = 0.0;
        let seeds = 8u64;
        for seed in 0..seeds {
            let mut sim = pls_core::Cluster::new(5, spec, 90 + seed).unwrap();
            sim.place((0..20u64).collect()).unwrap();
            acc += pls_metrics::lookup_cost::measure(&mut sim, 12, 200);
        }
        acc / seeds as f64
    };

    let (addrs, _handles) = spawn_cluster(5, spec, 86);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 87));
    client.place(b"k", entries(0..20)).unwrap();
    let lookups = 200usize;
    for _ in 0..lookups {
        let got = client.partial_lookup(b"k", 12).unwrap();
        assert!(got.len() >= 12);
    }

    let live = client.metrics().probes_per_lookup.snapshot();
    assert_eq!(live.count, lookups as u64);
    let measured = live.mean();
    // Both are means of the same random process; allow a generous margin.
    assert!(
        (measured - expected).abs() / expected < 0.25,
        "live probes/lookup {measured} vs simulated {expected}"
    );

    // And the servers' own probe counters corroborate the client's view.
    let merged = client.cluster_metrics(false).unwrap();
    assert_eq!(
        merged.counter("pls_requests_total{op=\"probe\"}"),
        Some(client.metrics().probes.get())
    );
    assert_eq!(merged.counter_sum("pls_probes_total"), client.metrics().probes.get());
}

#[test]
fn http_metrics_endpoint_serves_live_quality_series() {
    // Single-server cluster so every probe deterministically lands on
    // the server whose exporter we scrape.
    let spec = StrategySpec::full_replication();
    let (mut listeners, addrs) = bind_all(2);
    let (addr, maddr) = (addrs[0], addrs[1]);
    let mlistener = listeners.pop().unwrap();
    let cfg = ServerConfig::new(0, vec![addr], spec, 90);
    let (server, _) = Server::with_listener(cfg, listeners.pop().unwrap()).unwrap();
    let router = std::sync::Arc::new(server.router());
    let _server = server.spawn();
    let _exporter = pls_cluster::http::serve_router(mlistener, router).unwrap();

    let mut client = Client::connect(ClientConfig::new(vec![addr], spec, 91));
    client.place(b"song", entries(0..4)).unwrap();
    for _ in 0..6 {
        let got = client.partial_lookup(b"song", 2).unwrap();
        assert_eq!(got.len(), 2);
    }

    // Scrape like curl would: one GET, read to EOF.
    let (status, headers, body) = common::http_get(maddr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");
    // The hot-key sketch and the point-in-time stored-size gauges are
    // in the exposition.
    assert!(body.contains("pls_hot_key_probes{key=\"song\"} 6"), "{body}");
    assert!(body.contains("pls_keys 1"), "{body}");
    assert!(body.contains("pls_entries 4"), "{body}");
    assert!(body.contains("pls_requests_total{op=\"probe\"} 6"), "{body}");
}

#[test]
fn live_unfairness_matches_analytic_for_fixed_x() {
    // Fixed-5 over h=15, t=3: the closed-form §4.5 unfairness is
    // sqrt(h/t²·(h/x−1)) ≈ 1.414. Reconstruct per-entry retrieval
    // probabilities from what the lookups returned (entries no lookup
    // returned count 0) and check eq. (1) lands on the analytic value.
    let spec = StrategySpec::fixed(5);
    let (addrs, _handles) = spawn_cluster(3, spec, 92);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 93));
    let universe = entries(0..15);
    client.place(b"k", universe.clone()).unwrap();

    let lookups = 600usize;
    let counts = tally(&mut client, &universe, 3, lookups);
    // Every lookup returned exactly t entries, all accounted for.
    assert_eq!(counts.iter().sum::<u64>(), (lookups * 3) as u64);
    // Only the 5 stored (prefix) entries ever got traffic.
    assert!(counts[5..].iter().all(|&c| c == 0), "{counts:?}");

    let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / lookups as f64).collect();
    let live = pls_metrics::unfairness::from_probabilities(&probs, 3);
    let analytic = pls_metrics::unfairness::analytic_fixed(5, 15, 3);
    assert!((live - analytic).abs() < 0.12, "live unfairness {live} vs analytic {analytic}");
}

#[test]
fn round_robin_uniform_traffic_is_live_fair_with_full_coverage() {
    // The acceptance cross-check: Round-Robin-2 placement (n=4, h=12)
    // under uniform lookups is the paper's perfectly fair strategy —
    // every entry sits on 2 of 4 servers and a t=6 lookup returns one
    // random server's whole shard, so p_j = 1/2 for every entry. The
    // CoV of the returned entries must read ≈ 0 with full coverage, and
    // must agree exactly with eq. (1) computed from the same counts.
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(4, spec, 94);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 95));
    let universe = entries(0..12);
    client.place(b"k", universe.clone()).unwrap();

    let lookups = 200usize;
    let counts = tally(&mut client, &universe, 6, lookups);
    let unfairness = pls_metrics::unfairness::cov_from_counts(&counts);
    let coverage = counts.iter().filter(|&&c| c > 0).count() as f64 / counts.len() as f64;
    assert!(unfairness < 0.15, "round-robin live unfairness {unfairness}");
    assert_eq!(coverage, 1.0, "round-robin live coverage {coverage}");

    // Each lookup returned exactly t of the h counted entries, so the
    // live CoV form and eq. (1) are computed over identical data and
    // must agree to rounding error.
    assert_eq!(counts.iter().sum::<u64>(), (lookups * 6) as u64);
    let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / lookups as f64).collect();
    let eq1 = pls_metrics::unfairness::from_probabilities(&probs, 6);
    assert!((unfairness - eq1).abs() < 1e-9, "CoV {unfairness} vs eq. (1) {eq1}");
}

/// The other three strategies: the §4.5 unfairness of the answers to `L`
/// lookups over TCP against `pls-metrics`' value for the same shape — the
/// closed form of RandomServer-x (single-probe regime, t ≤ x), and
/// otherwise `measure_instance` over `L'` lookups of the same instance (a
/// `pls_core::Cluster` whose engines are seeded as the servers seed `k`'s).
///
/// Tolerance. Entry j's estimate `p̂_j = c_j/L` has variance
/// `p_j(1 − p_j)/L` and `Σ_j p_j = t`, so the noise adds at most
/// `(h/t)²·(1/h)·t/L = h/(t·L)` to eq. (1)'s square: a value from `L`
/// lookups is within `σ(L) = sqrt(h/(t·L))` of its instance's (rms). The
/// closed form is an expectation over placements, and an instance spreads
/// around it by about `U/sqrt(2h)` (the sampling error of the spread of
/// `h` per-entry replica counts). The bound is three times each term:
/// `3·(σ(L) + σ(L'))`, or `3·(σ(L) + U/sqrt(2h))` against the closed form.
#[test]
fn live_unfairness_matches_pls_metrics_for_full_random_server_and_hash() {
    use pls_metrics::unfairness::{analytic_random_server_single_probe, measure_instance};
    let (seed, lookups, reference) = (96, 1_000, 20_000);
    let sigma = |h: usize, t: usize, l: usize| (h as f64 / (t * l) as f64).sqrt();
    let shapes = [
        (StrategySpec::full_replication(), 3, 20, 4),
        (StrategySpec::random_server(100), 5, 200, 100),
        (StrategySpec::hash(2), 5, 40, 8),
    ];
    for (spec, n, h, t) in shapes {
        let (addrs, _handles) = spawn_cluster(n, spec, seed);
        let mut client = Client::connect(ClientConfig::new(addrs, spec, 97));
        let universe = entries(0..h as u32);
        client.place(b"k", universe.clone()).unwrap();
        let live =
            pls_metrics::unfairness::cov_from_counts(&tally(&mut client, &universe, t, lookups));
        let (metric, tolerance) = if let StrategySpec::RandomServer { x } = spec {
            let closed = analytic_random_server_single_probe(x, h, n);
            (closed, 3.0 * (sigma(h, t, lookups) + closed / (2.0 * h as f64).sqrt()))
        } else {
            let engines_seed = pls_wire::shard::key_seed(seed, b"k");
            let mut instance = pls_core::Cluster::new(n, spec, engines_seed).unwrap();
            instance.place(universe.clone()).unwrap();
            let measured = measure_instance(&mut instance, &universe, t, reference);
            (measured, 3.0 * (sigma(h, t, lookups) + sigma(h, t, reference)))
        };
        assert!(
            (live - metric).abs() <= tolerance,
            "{spec}: live unfairness {live} vs pls-metrics {metric} (tolerance {tolerance})"
        );
    }
}

#[test]
fn request_id_propagates_from_client_through_servers() {
    use std::sync::{Arc, Mutex};

    // Capture every tracing event emitted while one place and one
    // lookup run; the sink and level are process-global, so concurrent
    // tests' events also land here and assertions filter by the exact
    // 64-bit ids drawn by *this* client.
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&lines);
    pls_telemetry::trace::set_sink(Some(Box::new(move |line: &str| {
        captured.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(line.to_string());
    })));
    pls_telemetry::trace::init(Some(pls_telemetry::Level::Trace));

    let spec = StrategySpec::full_replication();
    let (addrs, handles) = spawn_cluster(3, spec, 96);
    // The request ids are drawn from the client's seed, and the sink sees
    // every client of this binary: a constant seed that another test's
    // client shares (97 was) mixes its fan-out into this one's. A port
    // this process holds is a seed no client running beside it has.
    let seed = u64::from(addrs[0].port());
    let mut client = Client::connect(ClientConfig::new(addrs, spec, seed));

    client.place(b"k", entries(0..6)).unwrap();
    let place_id = client.last_request_id();
    let got = client.partial_lookup(b"k", 2).unwrap();
    assert_eq!(got.len(), 2);
    let lookup_id = client.last_request_id();
    assert_ne!(place_id, lookup_id, "each operation draws a fresh id");

    // Server-side spans drop (emitting `done`) right after the response
    // is written; joining the servers' threads lands those final events.
    drop(handles);
    pls_telemetry::trace::init(None);
    pls_telemetry::trace::set_sink(None);
    let lines = lines.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();

    // Exact-token match: a decimal id must not match as a prefix of a
    // longer one.
    let has_id = |l: &str, id: u64| {
        let token = format!("req={id}");
        l.split_whitespace().any(|kv| kv == token)
    };

    // The lookup's id appears on the client span, the server's request
    // span, the per-probe engine span, and the probe-answered event —
    // the same id at every hop.
    let with_lookup_id: Vec<&String> = lines.iter().filter(|l| has_id(l, lookup_id)).collect();
    for msg in [
        "msg=partial_lookup start",
        "msg=probe start",
        "msg=probe_sample start",
        "msg=probe_answered",
    ] {
        assert!(
            with_lookup_id.iter().any(|l| l.contains(msg)),
            "no `{msg}` event with req={lookup_id}: {with_lookup_id:?}"
        );
    }
    // A lookup triggers no server-to-server fan-out.
    assert!(!with_lookup_id.iter().any(|l| l.contains("msg=internal")), "{with_lookup_id:?}");

    // The place's id follows the coordinator's fan-out: the handling
    // server stamps it on both Internal messages it relays.
    let with_place_id: Vec<&String> = lines.iter().filter(|l| has_id(l, place_id)).collect();
    assert!(with_place_id.iter().any(|l| l.contains("msg=place start")), "{with_place_id:?}");
    let internal_starts = with_place_id.iter().filter(|l| l.contains("msg=internal start")).count();
    assert_eq!(internal_starts, 2, "{with_place_id:?}");
}

#[test]
fn round_robin_gcd_stride_falls_through_to_random_probing() {
    // Round-Robin-2 on n=4: gcd(y, n) = 2, so the stride walk s, s+2
    // revisits its start after n/gcd = 2 hops having covered only half
    // the ring. With server 2 empty (crashed during placement, replaced
    // cold without resync), an even start finds just 6 of the 12
    // entries in phase 1 and must fall through to probing the servers
    // the stride skipped instead of giving up.
    let spec = StrategySpec::round_robin(2);
    let (addrs, mut handles) = spawn_cluster(4, spec, 120);
    handles[2].kill();

    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 121));
    // Fan-out to the dead server is dropped (the paper's failure
    // model): its round-robin positions survive only on their other
    // replica.
    client.place(b"k", entries(0..12)).unwrap();

    // Replace server 2 with a cold, empty instance on the same address
    // — reachable and answering, but holding nothing.
    let listener = rebind(addrs[2]);
    let cfg = ServerConfig::new(2, addrs.clone(), spec, 120);
    let (replacement, _) = Server::with_listener(cfg, listener).unwrap();
    let _replacement = replacement.spawn();

    // Whatever start the stride draws (even starts see only servers
    // {0, 2} in phase 1), every lookup must still recover all 12
    // entries via the phase-2 fallthrough.
    for i in 0..12 {
        let got = client.partial_lookup(b"k", 12).unwrap();
        assert_eq!(got.len(), 12, "lookup {i}");
    }
}

#[test]
fn many_keys_are_independent() {
    let spec = StrategySpec::hash(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 10);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 18));
    for k in 0..20u32 {
        let key = format!("key{k}").into_bytes();
        client.place(&key, entries(k * 10..k * 10 + 5)).unwrap();
    }
    for k in 0..20u32 {
        let key = format!("key{k}").into_bytes();
        let got = client.partial_lookup(&key, 3).unwrap();
        assert!(got.len() >= 3, "key{k}");
        for e in &got {
            let s = String::from_utf8_lossy(e);
            let id: u32 = s.trim_start_matches("peer").split(':').next().unwrap().parse().unwrap();
            assert!(id >= k * 10 && id < k * 10 + 5, "key{k} leaked entry {s}");
        }
    }
}
