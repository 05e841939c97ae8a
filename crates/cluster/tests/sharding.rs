//! Shared-nothing sharding tests: key→shard routing stability across
//! restarts, per-shard WAL segment recovery, and the clean refusal to
//! open a data dir with a different `--shards` than it was laid out
//! with.

mod common;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use common::{bind_all, entries, rebind};
use pls_cluster::{
    Client, ClientConfig, ClusterError, Deadline, Server, ServerConfig, ServerHandle,
};
use pls_core::StrategySpec;
use pls_wire::storage;

/// Per-test scratch directories under the system temp dir, wiped at
/// entry so reruns start clean.
fn data_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let dir =
                std::env::temp_dir().join(format!("pls-sharding-{}-{tag}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect()
}

fn sharded_config(
    i: usize,
    addrs: &[SocketAddr],
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    shards: usize,
) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dirs[i].clone()),
        checkpoint_every: 4,
        shards,
        ..ServerConfig::new(i, addrs.to_vec(), spec, seed)
    }
}

/// Starts server `i` on its fixed address over whatever its data dir
/// already holds, with an explicit shard count; returns the recovered
/// key count plus the handle.
fn start_server(
    i: usize,
    addrs: &[SocketAddr],
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    shards: usize,
) -> (usize, ServerHandle) {
    let cfg = sharded_config(i, addrs, dirs, spec, seed, shards);
    let (server, _) = Server::with_listener(cfg, rebind(addrs[i])).expect("server");
    (server.recovered_keys(), server.spawn())
}

/// Binds `n` ephemeral listeners first (so every server knows the
/// final address list), then starts the cluster with per-server data
/// dirs and an explicit shard count.
fn spawn_cluster(
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    shards: usize,
) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let (listeners, addrs) = bind_all(dirs.len());
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = sharded_config(i, &addrs, dirs, spec, seed, shards);
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    (addrs, handles)
}

/// `status_of` with patience: right after a restart the client may
/// hold stale pooled connections and the breaker may still be cooling
/// off, so retry for a bounded window.
fn stored_at(client: &Client, server: usize) -> u64 {
    let mut status = client.status_of(server);
    Deadline::within(Duration::from_secs(10)).wait_until(|| {
        status = client.status_of(server);
        status.is_ok()
    });
    status.unwrap_or_else(|err| panic!("server {server} unreachable after restart: {err}")).1
}

/// The shard subdirectories under `root` that hold any durable bytes.
fn populated_shards(root: &Path, shards: usize) -> Vec<usize> {
    (0..shards)
        .filter(|&s| {
            let dir = storage::shard_dir(root, s);
            [storage::WAL_FILE, storage::CHECKPOINT_FILE]
                .iter()
                .any(|f| dir.join(f).metadata().map(|m| m.len() > 0).unwrap_or(false))
        })
        .collect()
}

/// Enough keys that with 2 shards the chance of leaving one empty is
/// ~2^-15: the crash-restart test below genuinely exercises *mixed*
/// per-shard WAL segments, not one lucky segment.
const KEYS: usize = 16;

fn key(i: usize) -> Vec<u8> {
    format!("song/{i}").into_bytes()
}

#[test]
fn crash_restart_recovers_mixed_per_shard_segments() {
    let spec = StrategySpec::full_replication();
    let shards = 2;
    let dirs = data_dirs("crash-restart", 3);
    let (addrs, mut handles) = spawn_cluster(&dirs, spec, 21, shards);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 210));
    for i in 0..KEYS {
        client.place(&key(i), entries(0..4)).unwrap();
    }
    // One key rides a per-key strategy override (Fixed-2 keeps the
    // first two entries on every server), so recovery also has to
    // restore the spec from the owning shard's segment.
    client.place_with_strategy(b"names", entries(20..26), StrategySpec::fixed(2)).unwrap();
    let mut before = Vec::new();
    for i in 0..3 {
        before.push(client.status_of(i).unwrap().1);
    }

    // Both shard segments of server 0 must hold state — the whole
    // point of the test is recovery from *mixed* segments.
    assert_eq!(
        populated_shards(&dirs[0], shards).len(),
        shards,
        "16 keys must spread durable state over every shard segment"
    );

    // Kill the whole cluster at once: no peer survives to donate
    // state, so everything below comes from per-shard segments.
    for h in &mut handles {
        h.kill();
    }
    drop(client);
    let mut restarted = Vec::new();
    for i in 0..3 {
        let (recovered, run) = start_server(i, &addrs, &dirs, spec, 21, shards);
        assert_eq!(recovered, KEYS + 1, "server {i} must rebuild every key from its segments");
        restarted.push(run);
    }

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 211));
    client.refresh_spec(b"names").unwrap();
    for i in 0..KEYS {
        let got = client.partial_lookup(&key(i), 4).unwrap();
        assert_eq!(got.len(), 4, "key {i} incomplete after recovery");
    }
    // Fixed-2 kept only the first two of the six placed entries, and
    // that truncation must survive the crash too.
    let names = client.partial_lookup(b"names", 2).unwrap();
    assert_eq!(names.len(), 2);
    for (i, want) in before.iter().enumerate() {
        assert_eq!(
            stored_at(&client, i),
            *want,
            "server {i}'s share must match the pre-crash placement"
        );
    }

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn restart_keeps_key_to_shard_routing_stable() {
    // Routing is a pure hash: a restart must find every key in the
    // segment the previous process wrote it to. Two generations of
    // writes (pre- and post-restart) land in the same segments, so a
    // second restart still recovers everything.
    let spec = StrategySpec::full_replication();
    let shards = 4;
    let dirs = data_dirs("routing-stable", 1);
    let (addrs, mut handles) = spawn_cluster(&dirs, spec, 23, shards);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 230));
    for i in 0..KEYS {
        client.place(&key(i), entries(0..3)).unwrap();
    }
    let populated = populated_shards(&dirs[0], shards);

    handles[0].kill();
    drop(client);
    let (recovered, mut run) = start_server(0, &addrs, &dirs, spec, 23, shards);
    assert_eq!(recovered, KEYS);
    assert_eq!(
        populated_shards(&dirs[0], shards),
        populated,
        "recovery must not move keys between shard segments"
    );

    // Second generation: more writes, another crash, still whole.
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 231));
    for i in KEYS..KEYS + 4 {
        client.place(&key(i), entries(0..3)).unwrap();
    }
    run.kill();
    drop(client);
    let (recovered, _run) = start_server(0, &addrs, &dirs, spec, 23, shards);
    assert_eq!(recovered, KEYS + 4);

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 232));
    for i in 0..KEYS + 4 {
        let got = client.partial_lookup(&key(i), 3).unwrap();
        assert_eq!(got.len(), 3, "key {i} lost across restarts");
    }

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn changing_the_shard_count_of_an_existing_data_dir_is_refused() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("reshard-refused", 1);
    let (addrs, mut handles) = spawn_cluster(&dirs, spec, 25, 2);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 250));
    client.place(b"k", entries(0..3)).unwrap();
    handles[0].kill();
    drop(client);

    // Resharding is not supported: the dir was laid out with 2 shards,
    // so opening it with 3 must fail loudly instead of replaying keys
    // into segments their hash no longer routes to.
    let cfg = ServerConfig {
        data_dir: Some(dirs[0].clone()),
        shards: 3,
        ..ServerConfig::new(0, addrs.clone(), spec, 25)
    };
    match Server::with_listener(cfg, rebind(addrs[0])) {
        Err(ClusterError::Config(_)) => {}
        Err(other) => panic!("mismatched --shards must be a Config refusal, got {other:?}"),
        Ok(_) => panic!("mismatched --shards must be refused, not silently accepted"),
    }

    // The recorded count still works.
    let (recovered, _run) = start_server(0, &addrs, &dirs, spec, 25, 2);
    assert_eq!(recovered, 1);

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
