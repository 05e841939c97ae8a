//! Durable-state tests: write-ahead logging, crash recovery from disk,
//! and background anti-entropy repair — in-process "crashes" are
//! `ServerHandle::kill` (no shutdown path runs), and every restart binds
//! the same address with a fresh `Server` over the surviving data dir.

mod common;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use common::{bind_all, call_raw, entries, rebind};
use pls_cluster::{Client, ClientConfig, Deadline, Server, ServerConfig, ServerHandle};
use pls_core::StrategySpec;

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

fn durable_config(
    i: usize,
    addrs: &[SocketAddr],
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    anti_entropy: Option<Duration>,
) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dirs[i].clone()),
        checkpoint_every: 4,
        anti_entropy,
        ..ServerConfig::new(i, addrs.to_vec(), spec, seed)
    }
}

/// Starts server `i` of the cluster on its fixed address, over whatever
/// its data dir already holds; returns how many keys the server rebuilt
/// from disk plus its handle.
fn start_server(
    i: usize,
    addrs: &[SocketAddr],
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    anti_entropy: Option<Duration>,
) -> (usize, ServerHandle) {
    let cfg = durable_config(i, addrs, dirs, spec, seed, anti_entropy);
    let (server, _) = Server::with_listener(cfg, rebind(addrs[i])).expect("server");
    (server.recovered_keys(), server.spawn())
}

/// Binds `n` ephemeral listeners first (so every server knows the final
/// address list), then starts the cluster with per-server data dirs.
fn spawn_durable_cluster(
    dirs: &[PathBuf],
    spec: StrategySpec,
    seed: u64,
    anti_entropy: Option<Duration>,
) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let (listeners, addrs) = bind_all(dirs.len());
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = durable_config(i, &addrs, dirs, spec, seed, anti_entropy);
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    (addrs, handles)
}

/// One key's locally stored entries at one server, over the raw wire
/// protocol — ground truth for resurrection checks.
fn entries_at(addr: SocketAddr, key: &[u8]) -> Vec<Vec<u8>> {
    let req = pls_wire::proto::Request::Snapshot { key: key.to_vec() };
    match call_raw(addr, 0xd1f5, &req) {
        Ok((_, pls_wire::proto::Response::Snapshot(snap))) => {
            snap.map(|snap| snap.entries).unwrap_or_default()
        }
        other => panic!("unexpected snapshot response from {addr}: {other:?}"),
    }
}

/// `status_of` with patience: right after a restart the client may hold
/// stale pooled connections to the old process and the breaker may
/// still be cooling off, so retry for a bounded window.
fn stored_at(client: &Client, server: usize) -> u64 {
    let mut status = client.status_of(server);
    Deadline::within(Duration::from_secs(10)).wait_until(|| {
        status = client.status_of(server);
        status.is_ok()
    });
    status.unwrap_or_else(|err| panic!("server {server} unreachable after restart: {err}")).1
}

#[test]
fn full_cluster_restart_recovers_every_key_from_disk() {
    let spec = StrategySpec::hash(2);
    let dirs = data_dirs("full-restart", 3);
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, 7, None);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 70));
    client.place(b"songs", entries(0..12)).unwrap();
    client
        .place_with_strategy(b"names", entries(20..26), StrategySpec::full_replication())
        .unwrap();
    let mut before = Vec::new();
    for i in 0..3 {
        before.push(client.status_of(i).unwrap().1);
    }

    // Kill the whole cluster at once: no peer survives to donate state,
    // so everything below comes from each server's own disk.
    for h in &mut handles {
        h.kill();
    }
    drop(client);
    let (recovered_keys, _restarted): (Vec<usize>, Vec<ServerHandle>) =
        (0..3).map(|i| start_server(i, &addrs, &dirs, spec, 7, None)).unzip();
    assert!(
        recovered_keys.iter().all(|&k| k == 2),
        "every server should rebuild both keys from disk, got {recovered_keys:?}"
    );

    let mut client = Client::connect(ClientConfig::new(addrs, spec, 71));
    client.refresh_spec(b"names").unwrap();
    let songs = client.partial_lookup(b"songs", 12).unwrap();
    assert_eq!(songs.len(), 12);
    let names = client.partial_lookup(b"names", 6).unwrap();
    assert_eq!(names.len(), 6);
    for (i, want) in before.iter().enumerate() {
        assert_eq!(
            stored_at(&client, i),
            *want,
            "server {i}'s share must match the pre-crash placement"
        );
    }
    let mut replayed = 0;
    for i in 0..3 {
        let m = client.metrics_of(i, false).unwrap();
        replayed += m.counter("pls_wal_replayed_total").unwrap_or(0)
            + m.counter("pls_wal_checkpoints_total").unwrap_or(0);
    }
    assert!(replayed > 0, "recovery must come from the WAL/checkpoint, not thin air");

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn acked_writes_survive_an_abrupt_kill() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("acked-writes", 3);
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, 9, None);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 90));
    client.place(b"k", entries(0..5)).unwrap();
    // Individually acked adds: every one is fsynced before the Ok, so
    // every one must be on disk whenever the crash lands.
    for i in 5..10 {
        client.add(b"k", format!("peer{i}:6699").into_bytes()).unwrap();
    }

    // Abrupt kill of one server (no shutdown path), then restart it
    // from its surviving data dir. Its peers stay up but the restarted
    // server must not need them: recovery is disk-first.
    handles[2].kill();
    let (recovered, _run) = start_server(2, &addrs, &dirs, spec, 9, None);
    assert_eq!(recovered, 1);

    assert_eq!(stored_at(&client, 2), 10, "every acked write must survive the kill");
    let m = client.metrics_of(2, false).unwrap();
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

/// Every file under a data dir with its bytes: what a crash left.
fn dir_bytes(root: &std::path::Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("read data dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(&path).expect("read data file"));
            }
        }
    }
    files
}

#[test]
fn kill_during_a_stream_of_acked_adds_loses_none_and_writes_nothing_after() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("kill-mid-stream", 3);
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, 15, None);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 150));
    client.place(b"k", entries(0..3)).unwrap();

    // A writer adds entry after entry and reports each ack; the kill is
    // ordered against the stream by those reports, not by the clock.
    let (acked, acks) = std::sync::mpsc::channel::<u32>();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let frozen = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 100.. {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                // With server 2 dead the client fails over to the others.
                client.add(b"k", format!("peer{i}:6699").into_bytes()).unwrap();
                acked.send(i).unwrap();
            }
        });
        let before_kill: Vec<u32> = acks.iter().take(10).collect();
        handles[2].kill();
        // What the kill left on disk, while adds are still being acked by
        // the survivors...
        let frozen = dir_bytes(&dirs[2]);
        let after_kill = acks.iter().take(10).count();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(after_kill, 10, "the stream must outlive the kill");
        (before_kill, frozen)
    });
    let (before_kill, frozen) = frozen;
    // ...is what is there now: a killed server appends nothing, syncs
    // nothing, checkpoints nothing.
    assert!(dir_bytes(&dirs[2]) == frozen, "a record followed the kill");

    // Every add acked before the kill was fsynced on all three servers
    // before its Ok: the restarted server has each of them on its disk.
    let (recovered, _run) = start_server(2, &addrs, &dirs, spec, 15, None);
    assert_eq!(recovered, 1);
    let held = entries_at(addrs[2], b"k");
    for i in before_kill {
        let entry = format!("peer{i}:6699").into_bytes();
        assert!(held.contains(&entry), "acked add {i} did not survive the kill");
    }
    for entry in entries(0..3) {
        assert!(held.contains(&entry));
    }

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn cold_start_resync_adopts_the_modal_freshest_donor() {
    use pls_wire::proto::{Request, Response};

    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("modal-donor", 4);
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, 27, None);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 270));
    client.place(b"k1", entries(0..10)).unwrap();
    client.place(b"k2", entries(20..25)).unwrap();

    // Server 0 loses everything and comes back empty (nobody resyncs it,
    // anti-entropy is off). It is the FIRST donor a resync asks.
    handles[0].kill();
    std::fs::remove_dir_all(&dirs[0]).expect("wipe data dir");
    let (recovered, _empty) = start_server(0, &addrs, &dirs, spec, 27, None);
    assert_eq!(recovered, 0);

    // One more add, coordinated by a server that holds the key: its
    // fan-out makes server 0 a donor of `k1` at the key's freshest
    // version holding that one entry alone — and of `k2` not at all.
    let late = b"late:6699".to_vec();
    let add = Request::Add { key: b"k1".to_vec(), entry: late.clone() };
    assert_eq!(call_raw(addrs[1], 0xadd, &add).unwrap().1, Response::Ok);
    assert_eq!(entries_at(addrs[0], b"k1"), vec![late.clone()]);
    let unknown = call_raw(addrs[0], 0x5a9, &Request::Snapshot { key: b"k2".to_vec() });
    assert!(
        matches!(unknown, Ok((_, Response::Snapshot(None)))),
        "server 0 must answer `k2` as a key it does not know: {unknown:?}"
    );

    // Server 3 cold-starts over a wiped dir and resyncs. Three donors
    // are at the freshest version of `k1`; two of them agree on eleven
    // entries. The first freshest donor's word would be one entry.
    handles[3].kill();
    std::fs::remove_dir_all(&dirs[3]).expect("wipe data dir");
    let cfg = durable_config(3, &addrs, &dirs, spec, 27, None);
    let (replacement, _) = Server::with_listener(cfg, rebind(addrs[3])).unwrap();
    assert_eq!(replacement.recovered_keys(), 0);
    assert_eq!(replacement.resync_from_peers().unwrap(), 2, "both keys have a donor row");
    let _replacement = replacement.spawn();

    let mut k1 = entries_at(addrs[3], b"k1");
    k1.sort();
    let mut want = entries(0..10);
    want.push(late);
    want.sort();
    assert_eq!(k1, want, "resync must adopt what most of the freshest donors hold");
    // An answer for a key the donor does not know is no donor row: `k2`
    // comes back whole from the two donors that have it.
    assert_eq!(entries_at(addrs[3], b"k2").len(), 5);

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn anti_entropy_heals_a_wiped_server_without_an_operator() {
    let spec = StrategySpec::full_replication();
    let dirs = data_dirs("anti-entropy", 3);
    let every = Some(Duration::from_millis(150));
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, 11, every);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 110));
    client.place(b"k", entries(0..8)).unwrap();

    // Lose server 1 *and* its disk — the worst case: nothing local to
    // replay, and nobody calls resync. The background anti-entropy loop
    // must notice the empty server and repair it from its peers.
    handles[1].kill();
    std::fs::remove_dir_all(&dirs[1]).expect("wipe data dir");
    let (recovered, _run) = start_server(1, &addrs, &dirs, spec, 11, every);
    assert_eq!(recovered, 0, "the wiped dir must have nothing to replay");

    let mut stored = 0;
    Deadline::within(Duration::from_secs(30)).wait_until(|| {
        stored = client.status_of(1).map(|(_, e)| e).unwrap_or(0);
        stored == 8
    });
    assert_eq!(stored, 8, "anti-entropy did not heal the wiped server in time");
    let m = client.metrics_of(1, false).unwrap();
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
fn assert_delete_survives_lagging_donor(spec: StrategySpec, tag: &str, seed: u64, total: u32) {
    let dirs = data_dirs(tag, 3);
    let every = Some(Duration::from_millis(150));
    let (addrs, mut handles) = spawn_durable_cluster(&dirs, spec, seed, every);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, seed * 10));
    client.place(b"k", entries(0..total)).unwrap();

    // Pick an entry the soon-to-lag server actually stores, so the
    // regression can never pass vacuously.
    let held = entries_at(addrs[2], b"k");
    let victim = held.first().expect("server 2 must store part of the key").clone();

    // Server 2 misses the delete, then comes back as a stale donor.
    handles[2].kill();
    client.delete(b"k", victim.clone()).unwrap();
    let (recovered, _run) = start_server(2, &addrs, &dirs, spec, seed, every);
    assert_eq!(recovered, 1, "the WAL must still hold the pre-delete state");

    // Anti-entropy must remove the stale copy from the donor...
    assert!(
        Deadline::within(Duration::from_secs(30))
            .wait_until(|| !entries_at(addrs[2], b"k").contains(&victim)),
        "anti-entropy never dropped the deleted entry from the stale donor"
    );

    // ...and must never have copied it back: let two more repair
    // rounds pass on every server, then sweep the whole cluster.
    let mut base = Vec::new();
    for i in 0..3 {
        let m = client.metrics_of(i, false).unwrap();
        base.push(m.counter("pls_antientropy_rounds_total").unwrap_or(0));
    }
    let settled = Deadline::within(Duration::from_secs(30)).wait_until(|| {
        base.iter().enumerate().all(|(i, b)| {
            client
                .metrics_of(i, false)
                .is_ok_and(|m| m.counter("pls_antientropy_rounds_total").unwrap_or(0) >= b + 2)
        })
    });
    assert!(settled, "anti-entropy rounds stalled");
    let mut stored = std::collections::BTreeSet::new();
    for (i, &addr) in addrs.iter().enumerate() {
        let held = entries_at(addr, b"k");
        assert!(!held.contains(&victim), "server {i} resurrected the deleted entry");
        stored.extend(held);
    }
    // A lookup for everything returns what the servers hold between them:
    // all but the deleted entry under Round-Robin, whatever the three
    // random x-subsets cover under RandomServer-x.
    if matches!(spec, StrategySpec::RoundRobin { .. }) {
        assert_eq!(stored.len(), total as usize - 1);
    }
    let survivors = client.partial_lookup(b"k", total as usize).unwrap();
    assert_eq!(survivors.len(), stored.len());
    assert!(survivors.iter().all(|v| stored.contains(v)), "lookup returned an unstored entry");

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn random_server_delete_is_not_resurrected_by_a_lagging_donor() {
    assert_delete_survives_lagging_donor(
        StrategySpec::random_server(2),
        "no-resurrect-rand",
        17,
        6,
    );
}

#[test]
fn round_robin_delete_is_not_resurrected_by_a_lagging_donor() {
    assert_delete_survives_lagging_donor(StrategySpec::round_robin(2), "no-resurrect-rr", 19, 9);
}

#[test]
fn restart_after_restart_is_idempotent() {
    // Double recovery equals single recovery: recovering re-checkpoints,
    // so a second crash before any new traffic replays to the same state.
    let spec = StrategySpec::round_robin(2);
    let dirs = data_dirs("double-restart", 3);
    let (addrs, handles) = spawn_durable_cluster(&dirs, spec, 13, None);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 130));
    client.place(b"k", entries(0..9)).unwrap();
    let mut before = Vec::new();
    for i in 0..3 {
        before.push(client.status_of(i).unwrap().1);
    }
    let mut live = handles;

    for round in 0..2u32 {
        // Dropping the handles kills the servers.
        live.clear();
        for i in 0..3 {
            let (recovered, run) = start_server(i, &addrs, &dirs, spec, 13, None);
            assert_eq!(recovered, 1, "round {round} server {i}");
            live.push(run);
        }
        for (i, want) in before.iter().enumerate() {
            assert_eq!(stored_at(&client, i), *want, "round {round} server {i}");
        }
        // Round-robin state machines stay usable after recovery: the
        // coordinator's counters were restored, so adds keep striding.
        client.add(b"k", format!("extra{round}").into_bytes()).unwrap();
        for (i, want) in before.iter_mut().enumerate() {
            *want = stored_at(&client, i);
        }
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
