//! Consistency-observatory tests: the anti-entropy round's staleness
//! measurement must pin `pls_live_staleness` at 1.0 on a quiet,
//! fully-converged cluster (with an all-zero versions-behind histogram),
//! and a chaos-delayed server that keeps missing broadcast updates must
//! drive the gauge measurably below 1.0.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{bind_all, entries};
use pls_cluster::{
    ChaosConfig, ChaosPeer, Client, ClientConfig, Deadline, Server, ServerConfig, ServerHandle,
    Timeouts,
};
use pls_core::StrategySpec;

/// Tight time bounds so fault detection (and hence the tests) is fast.
fn tight() -> Timeouts {
    Timeouts::default().with_connect_ms(500).with_rpc_ms(300).with_op_budget_ms(3_000)
}

/// Spawns `n` servers with anti-entropy, and so the staleness
/// measurement, enabled. When `chaos_at` names a server, it is fronted
/// by a chaos proxy sharing `chaos` — everyone (client and peers alike)
/// reaches it through the proxy, so injected delay postpones that
/// server's view of every broadcast update without cutting it off.
fn spawn_probing_cluster(
    n: usize,
    spec: StrategySpec,
    seed: u64,
    probe_every: Duration,
    chaos_at: Option<(usize, &Arc<ChaosConfig>)>,
) -> (Vec<SocketAddr>, Vec<ServerHandle>, Option<ChaosPeer>) {
    let (listeners, real_addrs) = bind_all(n);
    let mut public_addrs = real_addrs.clone();
    let proxy = chaos_at.map(|(i, chaos)| {
        let (proxy, addr) =
            ChaosPeer::bind(Some(real_addrs[i]), Arc::clone(chaos)).expect("proxy bind");
        public_addrs[i] = addr;
        proxy
    });
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig {
                timeouts: tight(),
                anti_entropy: Some(probe_every),
                ..ServerConfig::new(i, public_addrs.clone(), spec, seed)
            };
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    (public_addrs, handles, proxy)
}

/// All `pls_live_staleness{strategy,t}` series in a merged snapshot,
/// as `(series name, value)` — the exact rows `pls-client stats` and
/// the loadgen artifact render.
fn staleness_gauges(merged: &pls_telemetry::MetricsSnapshot) -> Vec<(String, f64)> {
    merged
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("pls_live_staleness{"))
        .cloned()
        .collect()
}

#[test]
fn converged_cluster_pins_live_staleness_at_one() {
    let spec = StrategySpec::full_replication();
    let every = Duration::from_millis(100);
    let (addrs, _handles, _) = spawn_probing_cluster(3, spec, 31, every, None);
    let mut client =
        Client::connect(ClientConfig::new(addrs.clone(), spec, 310).with_timeouts(tight()));
    // Two strategies so the gauge's `strategy` label is exercised; both
    // placements are fully acknowledged before returning, so the
    // cluster is converged before the first probe round fires.
    client.place(b"alpha", entries(0..5)).unwrap();
    client.place_with_strategy(b"beta", entries(10..16), StrategySpec::random_server(2)).unwrap();

    // Every server must complete at least two probe rounds over the
    // converged state.
    let probed = Deadline::within(Duration::from_secs(30)).wait_until(|| {
        (0..3).all(|i| {
            client
                .metrics_of(i, false)
                .is_ok_and(|m| m.counter("pls_antientropy_rounds_total").unwrap_or(0) >= 2)
        })
    });
    assert!(probed, "repair rounds never ran");

    let merged = client.cluster_metrics(false).unwrap();
    let gauges = staleness_gauges(&merged);
    assert!(
        gauges.iter().any(|(n, _)| n.contains("strategy=\"full\""))
            && gauges.iter().any(|(n, _)| n.contains("strategy=\"random\"")),
        "both placed strategies must export a staleness series: {gauges:?}"
    );
    for (name, value) in &gauges {
        assert_eq!(*value, 1.0, "converged cluster must pin {name} at 1.0");
    }
    let behind = merged.histogram("pls_staleness_versions_behind").expect("lag histogram");
    assert!(behind.count > 0, "probes must have observed holder versions");
    assert_eq!(behind.mean(), 0.0, "no holder may appear behind on a converged cluster");
}

#[test]
fn chaos_delayed_donor_drives_live_staleness_below_one() {
    let spec = StrategySpec::full_replication();
    let every = Duration::from_millis(100);
    let chaos = Arc::new(ChaosConfig::new(33));
    let (addrs, _handles, _proxy) = spawn_probing_cluster(3, spec, 33, every, Some((2, &chaos)));
    let mut client =
        Client::connect(ClientConfig::new(addrs.clone(), spec, 330).with_timeouts(tight()));
    client.place(b"k", entries(0..4)).unwrap();

    // 150ms of injected delay (inside the 300ms rpc deadline, so
    // nothing is cut off): every broadcast update reaches server 2 a
    // beat late, so while updates flow its version clock trails the
    // cluster and its own probe rounds must report P(fresh) < 1 for
    // partial lookups that could draw the stale replica.
    chaos.set_delay_ms(150);
    // The gauge is the latest round's reading, and a round over a quiet
    // cluster reads 1.0 again: updates must still be flowing while the
    // cluster is scraped, so they come from a thread of their own.
    let stop = AtomicBool::new(false);
    let (mut dipped, mut lag_seen) = (false, false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let cfg = ClientConfig::new(addrs.clone(), spec, 331).with_timeouts(tight());
            let mut writer = Client::connect(cfg);
            for update in 0u64.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = writer.add(b"k", format!("upd-{update}").into_bytes());
            }
        });
        Deadline::within(Duration::from_secs(45)).wait_until(|| {
            let merged = client.cluster_metrics(false).unwrap();
            dipped = staleness_gauges(&merged)
                .iter()
                .any(|(name, v)| name.contains("strategy=\"full\"") && *v < 0.999);
            lag_seen = merged
                .histogram("pls_staleness_versions_behind")
                .is_some_and(|h| h.count > 0 && h.mean() > 0.0);
            dipped && lag_seen
        });
        stop.store(true, Ordering::SeqCst);
    });
    assert!(
        dipped && lag_seen,
        "delayed donor never showed up in the staleness gauge \
         (dipped={dipped}, lag_seen={lag_seen})"
    );
}

#[test]
fn flaky_donors_never_cost_a_converged_replica_its_entries() {
    // Server 0 repairs against two donors that answer half of its pulls
    // with an error: some rounds get a donor's digest and then not its
    // snapshot. Anti-entropy decides from the rows it actually pulled
    // (its own included), so on a converged cluster it repairs nothing —
    // a verdict from a row it did not get would wipe the local copy and
    // then "repair" it back — and it rates the live placement only when
    // a donor's row is in hand.
    let spec = StrategySpec::full_replication();
    let chaos = Arc::new(ChaosConfig::new(35));
    let (listeners, real_addrs) = bind_all(3);
    let mut public_addrs = real_addrs.clone();
    let mut proxies = Vec::new();
    for i in [1, 2] {
        let (proxy, addr) =
            ChaosPeer::bind(Some(real_addrs[i]), Arc::clone(&chaos)).expect("proxy bind");
        public_addrs[i] = addr;
        proxies.push(proxy);
    }
    let _servers: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig {
                timeouts: tight(),
                self_scrape: None,
                anti_entropy: (i == 0).then_some(Duration::from_millis(40)),
                ..ServerConfig::new(i, public_addrs.clone(), spec, 35)
            };
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    let mut client =
        Client::connect(ClientConfig::new(public_addrs, spec, 350).with_timeouts(tight()));
    client.place(b"k", entries(0..6)).unwrap();

    chaos.set_error(0.5);
    let rounds = |client: &Client| {
        let m = client.metrics_of(0, false).expect("server 0 is not behind a proxy");
        (m.counter("pls_antientropy_rounds_total").unwrap_or(0), m)
    };
    let mut lowest_rating = f64::INFINITY;
    let ran = Deadline::within(Duration::from_secs(30)).wait_until(|| {
        let (done, m) = rounds(&client);
        if let Some(rating) = m.gauge("pls_live_fault_tolerance{t=\"1\"}") {
            lowest_rating = lowest_rating.min(rating);
        }
        done >= 40
    });
    assert!(ran, "anti-entropy never ran its rounds");
    chaos.set_error(0.0);

    let (_, m) = rounds(&client);
    assert_eq!(m.counter("pls_antientropy_repairs_total"), Some(0), "nothing was divergent");
    assert_eq!(client.status_of(0).unwrap(), (1, 6));
    // Three rows tolerate two failures, two rows one; this server's row
    // alone would rate the placement at none.
    assert!(lowest_rating >= 1.0, "the placement was rated from one row: {lowest_rating}");
}
