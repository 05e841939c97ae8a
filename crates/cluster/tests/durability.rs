//! Durable-state tests: write-ahead logging, crash recovery from disk,
//! and background anti-entropy repair — in-process "crashes" are task
//! aborts (no shutdown path runs, like a kill), and every restart binds
//! the same address with a fresh `Server` over the surviving data dir.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use pls_cluster::{Client, ClientConfig, Server, ServerConfig};
use pls_core::StrategySpec;
use tokio::task::JoinHandle;

/// Per-test scratch directories under the system temp dir, wiped at
/// entry so reruns start clean.
fn data_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let dir = std::env::temp_dir()
                .join(format!("pls-durability-{}-{tag}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect()
}

fn entries(range: std::ops::Range<u32>) -> Vec<Vec<u8>> {
    range.map(|i| format!("peer{i}:6699").into_bytes()).collect()
}

/// Starts server `i` of the cluster on its fixed address, over whatever
/// its data dir already holds. Retries the bind briefly (after an
/// abort, the old listener's port takes a moment to free up); returns
/// how many keys the server rebuilt from disk plus its run handle.
async fn start_server(
    i: usize,
    addrs: &[SocketAddr],
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    anti_entropy: Option<Duration>,
) -> (usize, JoinHandle<()>) {
    let mut cfg = ServerConfig::new(i, addrs.to_vec(), spec, seed)
        .with_data_dir(dirs[i].clone())
        .with_checkpoint_every(4);
    if let Some(every) = anti_entropy {
        cfg = cfg.with_anti_entropy(every);
    }
    for attempt in 0..u32::MAX {
        match tokio::net::TcpListener::bind(addrs[i]).await {
            Ok(listener) => {
                let (server, _) = Server::with_listener(cfg, listener).expect("server");
                let recovered = server.recovered_keys();
                return (recovered, tokio::spawn(server.run()));
            }
            Err(err) if attempt < 100 => {
                let _ = err;
                tokio::time::sleep(Duration::from_millis(50)).await;
            }
            Err(err) => panic!("bind {}: {err}", addrs[i]),
        }
    }
    unreachable!()
}

/// Binds `n` ephemeral listeners first (so every server knows the final
/// address list), then starts the cluster with per-server data dirs.
async fn spawn_durable_cluster(
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    anti_entropy: Option<Duration>,
) -> (Vec<SocketAddr>, Vec<JoinHandle<()>>) {
    let n = dirs.len();
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.expect("bind");
        addrs.push(listener.local_addr().expect("local addr"));
        listeners.push(listener);
    }
    let mut handles = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut cfg = ServerConfig::new(i, addrs.clone(), spec, seed)
            .with_data_dir(dirs[i].clone())
            .with_checkpoint_every(4);
        if let Some(every) = anti_entropy {
            cfg = cfg.with_anti_entropy(every);
        }
        let (server, _) = Server::with_listener(cfg, listener).expect("server");
        handles.push(tokio::spawn(server.run()));
    }
    (addrs, handles)
}

/// One key's locally stored entries at one server, over the raw wire
/// protocol — ground truth for resurrection checks.
async fn entries_at(addr: SocketAddr, key: &[u8]) -> Vec<Vec<u8>> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let attempt = async {
            let mut stream = tokio::net::TcpStream::connect(addr).await?;
            let req = pls_cluster::proto::Request::Snapshot { key: key.to_vec() };
            pls_cluster::frame::write_frame(&mut stream, 0xd1f5, 0, &req.encode()).await?;
            let (_, _, payload) =
                pls_cluster::frame::read_frame(&mut stream).await?.ok_or_else(|| {
                    pls_cluster::ClusterError::Io(std::io::ErrorKind::UnexpectedEof.into())
                })?;
            Ok::<_, pls_cluster::ClusterError>(pls_cluster::proto::Response::decode(&payload))
        }
        .await;
        match attempt {
            Ok(Ok(pls_cluster::proto::Response::Snapshot { entries, .. })) => return entries,
            Ok(other) => panic!("unexpected snapshot response {other:?}"),
            Err(err) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "snapshot of {addr} unreachable: {err}"
                );
                tokio::time::sleep(Duration::from_millis(100)).await;
            }
        }
    }
}

/// `status_of` with patience: right after a restart the client may hold
/// stale pooled connections to the old process and the breaker may
/// still be cooling off, so retry for a bounded window.
async fn stored_at(client: &Client, server: usize) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match client.status_of(server).await {
            Ok((_, stored)) => return stored,
            Err(err) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server {server} unreachable after restart: {err}"
                );
                tokio::time::sleep(Duration::from_millis(100)).await;
            }
        }
    }
}

#[tokio::test]
async fn full_cluster_restart_recovers_every_key_from_disk() {
    let spec = StrategySpec::hash(2);
    let dirs = data_dirs("full-restart", 3);
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, 7, None).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 70));
    client.place(b"songs", entries(0..12)).await.unwrap();
    client
        .place_with_strategy(b"names", entries(20..26), StrategySpec::full_replication())
        .await
        .unwrap();
    let mut before = Vec::new();
    for i in 0..3 {
        before.push(client.status_of(i).await.unwrap().1);
    }

    // Kill the whole cluster at once: no peer survives to donate state,
    // so everything below comes from each server's own disk.
    for h in &handles {
        h.abort();
    }
    drop(client);
    let mut recovered_keys = Vec::new();
    for i in 0..3 {
        let (recovered, _run) = start_server(i, &addrs, &dirs, spec, 7, None).await;
        recovered_keys.push(recovered);
    }
    assert!(
        recovered_keys.iter().all(|&k| k == 2),
        "every server should rebuild both keys from disk, got {recovered_keys:?}"
    );

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 71));
    client.refresh_spec(b"names").await.unwrap();
    let songs = client.partial_lookup(b"songs", 12).await.unwrap();
    assert_eq!(songs.len(), 12);
    let names = client.partial_lookup(b"names", 6).await.unwrap();
    assert_eq!(names.len(), 6);
    for (i, want) in before.iter().enumerate() {
        assert_eq!(
            stored_at(&client, i).await,
            *want,
            "server {i}'s share must match the pre-crash placement"
        );
    }
    let mut replayed = 0;
    for i in 0..3 {
        let m = client.metrics_of(i, false).await.unwrap();
        replayed += m.counter("pls_wal_replayed_total").unwrap_or(0)
            + m.counter("pls_wal_checkpoints_total").unwrap_or(0);
    }
    assert!(replayed > 0, "recovery must come from the WAL/checkpoint, not thin air");

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[tokio::test]
async fn acked_writes_survive_an_abrupt_kill() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("acked-writes", 3);
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, 9, None).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 90));
    client.place(b"k", entries(0..5)).await.unwrap();
    // Individually acked adds: every one is fsynced before the Ok, so
    // every one must be on disk whenever the crash lands.
    for i in 5..10 {
        client.add(b"k", format!("peer{i}:6699").into_bytes()).await.unwrap();
    }

    // Abrupt kill of one server (no shutdown path), then restart it
    // from its surviving data dir. Its peers stay up but the restarted
    // server must not need them: recovery is disk-first.
    handles[2].abort();
    let (recovered, _run) = start_server(2, &addrs, &dirs, spec, 9, None).await;
    assert_eq!(recovered, 1);

    assert_eq!(stored_at(&client, 2).await, 10, "every acked write must survive the kill");
    let m = client.metrics_of(2, false).await.unwrap();
    let replayed = m.counter("pls_wal_replayed_total").unwrap_or(0);
    let checkpoints = m.counter("pls_wal_checkpoints_total").unwrap_or(0);
    assert!(
        replayed > 0 || checkpoints > 0,
        "restart must report WAL replay or checkpoint load (replayed={replayed}, \
         checkpoints={checkpoints})"
    );

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[tokio::test]
async fn anti_entropy_heals_a_wiped_server_without_an_operator() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("anti-entropy", 3);
    let every = Some(Duration::from_millis(150));
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, 11, every).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 110));
    client.place(b"k", entries(0..8)).await.unwrap();

    // Lose server 1 *and* its disk — the worst case: nothing local to
    // replay, and nobody calls resync. The background anti-entropy loop
    // must notice the empty server and repair it from its peers.
    handles[1].abort();
    std::fs::remove_dir_all(&dirs[1]).expect("wipe data dir");
    let (recovered, _run) = start_server(1, &addrs, &dirs, spec, 11, every).await;
    assert_eq!(recovered, 0, "the wiped dir must have nothing to replay");

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stored = client.status_of(1).await.map(|(_, e)| e).unwrap_or(0);
        if stored == 8 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "anti-entropy did not heal the wiped server in time (stored={stored})"
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
    let m = client.metrics_of(1, false).await.unwrap();
    assert!(
        m.counter("pls_antientropy_repairs_total").unwrap_or(0) > 0,
        "the healed state must be attributed to an anti-entropy repair"
    );
    assert!(m.counter("pls_antientropy_rounds_total").unwrap_or(0) > 0);

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Shared body for the delete-resurrection regressions: server 2
/// misses a delete (killed during the fan-out), restarts from its WAL
/// with the deleted entry still live, and the background anti-entropy
/// repair must drop the stale copy instead of unioning it back into
/// the cluster — the tombstone outranks the lagging donor.
async fn assert_delete_survives_lagging_donor(
    spec: StrategySpec,
    tag: &str,
    seed: u64,
    total: u32,
) {
    let dirs = data_dirs(tag, 3);
    let every = Some(Duration::from_millis(150));
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, seed, every).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, seed * 10));
    client.place(b"k", entries(0..total)).await.unwrap();

    // Pick an entry the soon-to-lag server actually stores, so the
    // regression can never pass vacuously.
    let held = entries_at(addrs[2], b"k").await;
    let victim = held.first().expect("server 2 must store part of the key").clone();

    // Server 2 misses the delete, then comes back as a stale donor.
    handles[2].abort();
    client.delete(b"k", victim.clone()).await.unwrap();
    let (recovered, _run) = start_server(2, &addrs, &dirs, spec, seed, every).await;
    assert_eq!(recovered, 1, "the WAL must still hold the pre-delete state");

    // Anti-entropy must remove the stale copy from the donor...
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while entries_at(addrs[2], b"k").await.contains(&victim) {
        assert!(
            std::time::Instant::now() < deadline,
            "anti-entropy never dropped the deleted entry from the stale donor"
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }

    // ...and must never have copied it back: let two more repair
    // rounds pass on every server, then sweep the whole cluster.
    let mut base = Vec::new();
    for i in 0..3 {
        let m = client.metrics_of(i, false).await.unwrap();
        base.push(m.counter("pls_antientropy_rounds_total").unwrap_or(0));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut settled = 0;
        for (i, b) in base.iter().enumerate() {
            if let Ok(m) = client.metrics_of(i, false).await {
                if m.counter("pls_antientropy_rounds_total").unwrap_or(0) >= b + 2 {
                    settled += 1;
                }
            }
        }
        if settled == 3 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "anti-entropy rounds stalled");
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
    for i in 0..3 {
        assert!(
            !entries_at(addrs[i], b"k").await.contains(&victim),
            "server {i} resurrected the deleted entry"
        );
    }
    let survivors = client.partial_lookup(b"k", total as usize).await.unwrap();
    assert_eq!(survivors.len(), total as usize - 1);
    assert!(!survivors.contains(&victim), "lookup returned the deleted entry");

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[tokio::test]
async fn random_server_delete_is_not_resurrected_by_a_lagging_donor() {
    assert_delete_survives_lagging_donor(
        StrategySpec::random_server(2),
        "no-resurrect-rand",
        17,
        6,
    )
    .await;
}

#[tokio::test]
async fn round_robin_delete_is_not_resurrected_by_a_lagging_donor() {
    assert_delete_survives_lagging_donor(StrategySpec::round_robin(2), "no-resurrect-rr", 19, 9)
        .await;
}

#[tokio::test]
async fn restart_after_restart_is_idempotent() {
    // Double recovery equals single recovery: recovering re-checkpoints,
    // so a second crash before any new traffic replays to the same state.
    let spec = StrategySpec::round_robin(2);
    let dirs = data_dirs("double-restart", 3);
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, 13, None).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 130));
    client.place(b"k", entries(0..9)).await.unwrap();
    let mut before = Vec::new();
    for i in 0..3 {
        before.push(client.status_of(i).await.unwrap().1);
    }
    let mut live = handles;

    for round in 0..2u32 {
        for h in &live {
            h.abort();
        }
        live = Vec::new();
        for i in 0..3 {
            let (recovered, run) = start_server(i, &addrs, &dirs, spec, 13, None).await;
            assert_eq!(recovered, 1, "round {round} server {i}");
            live.push(run);
        }
        for (i, want) in before.iter().enumerate() {
            assert_eq!(stored_at(&client, i).await, *want, "round {round} server {i}");
        }
        // Round-robin state machines stay usable after recovery: the
        // coordinator's counters were restored, so adds keep striding.
        client.add(b"k", format!("extra{round}").into_bytes()).await.unwrap();
        for (i, want) in before.iter_mut().enumerate() {
            *want = stored_at(&client, i).await;
        }
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
