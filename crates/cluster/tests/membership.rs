//! End-to-end tests of elastic membership: live joins, graceful
//! drains, group migration, epoch gossip, and the unknown-opcode
//! contract — all over real TCP listeners.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pls_cluster::{Client, ClientConfig, Server, ServerConfig};
use pls_core::{Membership, StrategySpec};
use tokio::task::JoinHandle;

/// Spawns an `n`-server cluster on ephemeral ports with a short
/// anti-entropy interval, so membership gossip and migration converge
/// within test timescales.
async fn spawn_cluster(
    n: usize,
    spec: StrategySpec,
    seed: u64,
) -> (Vec<SocketAddr>, Vec<JoinHandle<()>>) {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.expect("bind");
        addrs.push(listener.local_addr().expect("local addr"));
        listeners.push(listener);
    }
    let mut handles = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg = ServerConfig::new(i, addrs.clone(), spec, seed)
            .with_anti_entropy(Duration::from_millis(100));
        let (server, _) = Server::with_listener(cfg, listener).expect("server");
        handles.push(tokio::spawn(server.run()));
    }
    (addrs, handles)
}

/// Joins a fresh server into a live cluster the way `pls-server
/// --join` does: ask any member to admit the advertised address, then
/// boot from the membership view the cluster hands back.
async fn spawn_joiner(spec: StrategySpec, seed: u64, admin: &mut Client) -> (u64, JoinHandle<()>) {
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (epoch, members) = admin.join(&addr.to_string()).await.expect("join accepted");
    let view = Membership::from_parts(epoch, members);
    let my_id = view.id_of_addr(&addr.to_string()).expect("joiner in the admitted view");
    let cfg = ServerConfig::new(0, vec![addr], spec, seed)
        .with_membership(my_id, view)
        .with_anti_entropy(Duration::from_millis(100));
    let (server, _) = Server::with_listener(cfg, listener).expect("joiner");
    (my_id, tokio::spawn(server.run()))
}

fn entries(range: std::ops::Range<u32>) -> Vec<Vec<u8>> {
    range.map(|i| format!("peer{i}:6699").into_bytes()).collect()
}

#[tokio::test]
async fn unknown_opcode_gets_clean_error_and_the_connection_survives() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(2, spec, 200).await;

    // A future-protocol frame: opcode 0xF0 with arbitrary payload.
    let mut stream = tokio::net::TcpStream::connect(addrs[0]).await.unwrap();
    pls_cluster::frame::write_frame(&mut stream, 7, 0, &[0xF0, 1, 2, 3]).await.unwrap();
    let (id, _, payload) = pls_cluster::frame::read_frame(&mut stream).await.unwrap().unwrap();
    assert_eq!(id, 7, "server must echo the request id");
    match pls_cluster::proto::Response::decode(&payload).unwrap() {
        pls_cluster::proto::Response::Error(msg) => {
            assert!(msg.contains("unsupported request opcode 0xf0"), "{msg}");
        }
        other => panic!("expected a structured error frame, got {other:?}"),
    }

    // The same connection still serves real requests afterwards.
    let status = pls_cluster::proto::Request::Status;
    pls_cluster::frame::write_frame(&mut stream, 8, 0, &status.encode()).await.unwrap();
    let (id, _, payload) = pls_cluster::frame::read_frame(&mut stream).await.unwrap().unwrap();
    assert_eq!(id, 8);
    assert!(matches!(
        pls_cluster::proto::Response::decode(&payload).unwrap(),
        pls_cluster::proto::Response::Status { .. }
    ));

    // And the decode-error counter never fired: an unknown opcode is a
    // protocol answer, not connection poison.
    let mut client = Client::connect(ClientConfig::new(addrs, spec, 201));
    let snap = client.metrics_of(0, false).await.unwrap();
    assert_eq!(snap.counter("pls_decode_errors_total"), Some(0));
}

#[tokio::test]
async fn membership_fetch_reports_the_bootstrap_view() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 210).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 211));
    let (epoch, members) = client.membership().await.unwrap();
    assert_eq!(epoch, 1, "static --peers world is epoch 1");
    assert_eq!(members.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![0, 1, 2]);
    for (i, (_, addr)) in members.iter().enumerate() {
        assert_eq!(addr, &addrs[i].to_string());
    }
}

#[tokio::test]
async fn live_join_migrates_entries_and_converges_the_epoch() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 220).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 221));
    client.place(b"k", entries(0..12)).await.unwrap();
    client.delete(b"k", b"peer3:6699".to_vec()).await.unwrap();

    let (joiner_id, _joiner) = spawn_joiner(spec, 220, &mut client).await;
    assert_eq!(joiner_id, 3, "ids are dense; the joiner gets the next one");
    assert_eq!(client.membership_view().0, 2, "join bumped the epoch");

    // Within a few anti-entropy rounds the joiner learns the key
    // universe from its peers and pulls its round-robin partitions.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Ok((keys, stored)) = client.status_of(joiner_id as usize).await {
            if keys == 1 && stored > 0 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "joiner never received entries");
        tokio::time::sleep(Duration::from_millis(100)).await;
    }

    // Every member converges on epoch 2 (eager fan-out + gossip) and
    // migration is observable in the counters.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let mut converged = 0usize;
        let mut migrated = 0u64;
        for id in 0..=3usize {
            let Ok(snap) = client.metrics_of(id, false).await else { continue };
            if snap.gauge("pls_membership_epoch") == Some(2.0) {
                converged += 1;
            }
            migrated += snap.counter_sum("pls_migration_entries_total");
        }
        if converged == 4 && migrated > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "epoch never converged ({converged}/4 members, {migrated} entries migrated)"
        );
        tokio::time::sleep(Duration::from_millis(100)).await;
    }

    // The full population is retrievable through the new group and the
    // delete stayed dead through migration — version/tombstone
    // screening must not resurrect it from a stale donor copy.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let got = client.partial_lookup(b"k", 12).await.unwrap();
        if got.len() == 11 && !got.contains(&b"peer3:6699".to_vec()) {
            break;
        }
        assert!(Instant::now() < deadline, "population degraded: {} entries", got.len());
        tokio::time::sleep(Duration::from_millis(100)).await;
    }
}

#[tokio::test]
async fn drain_rehomes_entries_before_the_process_dies() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, handles) = spawn_cluster(3, spec, 230).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 231));
    client.place(b"k", entries(0..12)).await.unwrap();

    let (epoch, members) = client.drain(2).await.unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(members.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![0, 1]);

    // Survivors pull the retiree's partitions while its process is
    // still up: a drained member drops out of every group but keeps
    // answering digests and pulls as a donor. Round-2 over 2 survivors
    // puts every entry on both, so wait for 24 stored copies.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let s0 = client.status_of(0).await.map(|(_, n)| n).unwrap_or(0);
        let s1 = client.status_of(1).await.map(|(_, n)| n).unwrap_or(0);
        if s0 + s1 >= 24 {
            break;
        }
        assert!(Instant::now() < deadline, "survivors stuck at {s0}+{s1} of 24 copies");
        tokio::time::sleep(Duration::from_millis(100)).await;
    }

    // Only now is the drained process killed — and nothing is lost.
    handles[2].abort();
    tokio::time::sleep(Duration::from_millis(50)).await;
    let got = client.partial_lookup(b"k", 12).await.unwrap();
    assert_eq!(got.len(), 12);
}

#[tokio::test]
async fn stale_view_cannot_regress_the_cluster() {
    // A client that joins a server, then asks a member that still holds
    // the *old* epoch to install it: installs are strictly-newer, so
    // pushing the stale view back is a no-op.
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 240).await;
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 241));
    let (epoch1, members1) = client.membership().await.unwrap();
    assert_eq!(epoch1, 1);

    let (_joiner_id, _joiner) = spawn_joiner(spec, 240, &mut client).await;
    let (epoch2, members2) = client.membership().await.unwrap();
    assert_eq!(epoch2, 2);
    assert_eq!(members2.len(), members1.len() + 1);

    // Gossip the stale epoch-1 view at a member directly: the reply
    // must carry the (newer) installed view, unchanged.
    let push = pls_cluster::proto::Request::Membership { epoch: epoch1, members: members1 };
    let mut stream = tokio::net::TcpStream::connect(addrs[1]).await.unwrap();
    pls_cluster::frame::write_frame(&mut stream, 99, 0, &push.encode()).await.unwrap();
    let (_, _, payload) = pls_cluster::frame::read_frame(&mut stream).await.unwrap().unwrap();
    match pls_cluster::proto::Response::decode(&payload).unwrap() {
        pls_cluster::proto::Response::Membership { epoch, members } => {
            assert_eq!(epoch, 2, "stale view must not regress the installed epoch");
            assert_eq!(members.len(), 4);
        }
        other => panic!("expected membership response, got {other:?}"),
    }
}
