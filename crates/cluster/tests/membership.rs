//! End-to-end tests of elastic membership: live joins, graceful
//! drains, group migration, epoch gossip, and the unknown-opcode
//! contract — all over real TCP listeners.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use common::{bind_all, call_raw, entries, exchange_raw};
use pls_cluster::{Client, ClientConfig, Deadline, Server, ServerConfig, ServerHandle};
use pls_core::{Membership, StrategySpec};
use pls_wire::proto::{Request, Response};

/// Spawns an `n`-server cluster on ephemeral ports with a short
/// anti-entropy interval, so membership gossip and migration converge
/// within test timescales.
fn spawn_cluster(n: usize, spec: StrategySpec, seed: u64) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let (listeners, addrs) = bind_all(n);
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig {
                anti_entropy: Some(Duration::from_millis(100)),
                ..ServerConfig::new(i, addrs.clone(), spec, seed)
            };
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    (addrs, handles)
}

/// Joins a fresh server into a live cluster the way `pls-server
/// --join` does: ask any member to admit the advertised address, then
/// boot from the membership view the cluster hands back.
fn spawn_joiner(spec: StrategySpec, seed: u64, admin: &mut Client) -> (u64, ServerHandle) {
    let (mut listeners, addrs) = bind_all(1);
    let (listener, addr) = (listeners.remove(0), addrs[0]);
    let view = admin.join(&addr.to_string()).expect("join accepted");
    let my_id = view.id_of_addr(&addr.to_string()).expect("joiner in the admitted view");
    let cfg = ServerConfig {
        membership: Some((my_id, view)),
        anti_entropy: Some(Duration::from_millis(100)),
        ..ServerConfig::new(0, vec![addr], spec, seed)
    };
    let (server, _) = Server::with_listener(cfg, listener).expect("joiner");
    (my_id, server.spawn())
}

#[test]
fn unknown_opcode_gets_clean_error_and_the_connection_survives() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(2, spec, 200);

    // A future-protocol frame: opcode 0xF0 with arbitrary payload.
    let mut stream = std::net::TcpStream::connect(addrs[0]).unwrap();
    let (id, response) = exchange_raw(&mut stream, 7, &[0xF0, 1, 2, 3]).unwrap();
    assert_eq!(id, 7, "server must echo the request id");
    match response {
        Response::Error(msg) => {
            assert!(msg.contains("unsupported request opcode 0xf0"), "{msg}");
        }
        other => panic!("expected a structured error frame, got {other:?}"),
    }

    // The same connection still serves real requests afterwards.
    let (id, response) = exchange_raw(&mut stream, 8, &Request::Status.encode()).unwrap();
    assert_eq!(id, 8);
    assert!(matches!(response, Response::Status { .. }));

    // And the decode-error counter never fired: an unknown opcode is a
    // protocol answer, not connection poison.
    let client = Client::connect(ClientConfig::new(addrs, spec, 201));
    let snap = client.metrics_of(0, false).unwrap();
    assert_eq!(snap.counter("pls_decode_errors_total"), Some(0));
}

#[test]
fn membership_fetch_reports_the_bootstrap_view() {
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 210);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 211));
    let view = client.membership().unwrap();
    assert_eq!(view.epoch(), 1, "static --peers world is epoch 1");
    assert_eq!(view.ids(), vec![0, 1, 2]);
    for (i, m) in view.members().iter().enumerate() {
        assert_eq!(m.addr, addrs[i].to_string());
    }
}

#[test]
fn live_join_migrates_entries_and_converges_the_epoch() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 220);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 221));
    client.place(b"k", entries(0..12)).unwrap();
    client.delete(b"k", b"peer3:6699".to_vec()).unwrap();

    let (joiner_id, _joiner) = spawn_joiner(spec, 220, &mut client);
    assert_eq!(joiner_id, 3, "ids are dense; the joiner gets the next one");
    assert_eq!(client.membership_view().epoch(), 2, "join bumped the epoch");

    // Within a few anti-entropy rounds the joiner learns the key
    // universe from its peers and pulls its round-robin partitions.
    let within = || Deadline::within(Duration::from_secs(15));
    assert!(
        within().wait_until(|| {
            client.status_of(joiner_id as usize).is_ok_and(|(keys, stored)| keys == 1 && stored > 0)
        }),
        "joiner never received entries"
    );

    // Every member converges on epoch 2 (eager fan-out + gossip) and
    // migration is observable in the counters.
    let (mut converged, mut migrated) = (0usize, 0u64);
    within().wait_until(|| {
        (converged, migrated) = (0, 0);
        for id in 0..=3usize {
            let Ok(snap) = client.metrics_of(id, false) else { continue };
            converged += usize::from(snap.gauge("pls_membership_epoch") == Some(2.0));
            migrated += snap.counter_sum("pls_migration_entries_total");
        }
        converged == 4 && migrated > 0
    });
    assert!(
        converged == 4 && migrated > 0,
        "epoch never converged ({converged}/4 members, {migrated} entries migrated)"
    );

    // The delete stayed dead through migration — version/tombstone
    // screening must not resurrect it from a stale donor copy. (That
    // every *other* entry survives is `live_join_loses_no_entry`.)
    let got = client.partial_lookup(b"k", 12).unwrap();
    assert!(!got.contains(&b"peer3:6699".to_vec()), "migration resurrected the delete");
}

/// Split out of `live_join_migrates_entries_and_converges_the_epoch` by
/// its first execution (PR 22): the whole population must be retrievable
/// through the new group. It is not, in about one run in ten: members
/// that stay in a key's group re-home their Round-Robin share in place,
/// each on its own anti-entropy round, and a position whose two old
/// holders both re-home (dropping it) before either new holder has
/// pulled it is gone — with 3 → 4 servers, position 6 (old holders 0
/// and 1, new holders 2 and 3).
#[test]
#[ignore = "open defect: in-group re-homing drops a position before its new holders pulled it \
            (a live join loses an entry in about one run in ten)"]
fn live_join_loses_no_entry() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, _handles) = spawn_cluster(3, spec, 220);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 221));
    client.place(b"k", entries(0..12)).unwrap();
    client.delete(b"k", b"peer3:6699".to_vec()).unwrap();
    let (_joiner_id, _joiner) = spawn_joiner(spec, 220, &mut client);

    let mut got = Vec::new();
    Deadline::within(Duration::from_secs(15)).wait_until(|| {
        got = client.partial_lookup(b"k", 12).unwrap();
        got.len() == 11
    });
    assert_eq!(got.len(), 11, "population degraded");
}

#[test]
fn drain_rehomes_entries_before_the_process_dies() {
    let spec = StrategySpec::round_robin(2);
    let (addrs, mut handles) = spawn_cluster(3, spec, 230);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 231));
    client.place(b"k", entries(0..12)).unwrap();

    let view = client.drain(2).unwrap();
    assert_eq!(view.epoch(), 2);
    assert_eq!(view.ids(), vec![0, 1]);

    // Survivors pull the retiree's partitions while its process is
    // still up: a drained member drops out of every group but keeps
    // answering digests and pulls as a donor. Round-2 over 2 survivors
    // puts every entry on both, so wait for 24 stored copies.
    let (mut s0, mut s1) = (0, 0);
    Deadline::within(Duration::from_secs(15)).wait_until(|| {
        s0 = client.status_of(0).map(|(_, n)| n).unwrap_or(0);
        s1 = client.status_of(1).map(|(_, n)| n).unwrap_or(0);
        s0 + s1 >= 24
    });
    assert!(s0 + s1 >= 24, "survivors stuck at {s0}+{s1} of 24 copies");

    // Only now is the drained process killed — and nothing is lost.
    handles[2].kill();
    let got = client.partial_lookup(b"k", 12).unwrap();
    assert_eq!(got.len(), 12);
}

#[test]
fn stale_view_cannot_regress_the_cluster() {
    // A client that joins a server, then asks a member that still holds
    // the *old* epoch to install it: installs are strictly-newer, so
    // pushing the stale view back is a no-op.
    let spec = StrategySpec::full_replication();
    let (addrs, _handles) = spawn_cluster(3, spec, 240);
    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 241));
    let view1 = client.membership().unwrap();
    assert_eq!(view1.epoch(), 1);

    let (_joiner_id, _joiner) = spawn_joiner(spec, 240, &mut client);
    let view2 = client.membership().unwrap();
    assert_eq!(view2.epoch(), 2);
    assert_eq!(view2.len(), view1.len() + 1);

    // Gossip the stale epoch-1 view at a member directly: the reply
    // must carry the (newer) installed view, unchanged.
    let push = Request::Membership(view1);
    match call_raw(addrs[1], 99, &push).unwrap().1 {
        Response::Membership(view) => {
            assert_eq!(view.epoch(), 2, "stale view must not regress the installed epoch");
            assert_eq!(view.len(), 4);
        }
        other => panic!("expected membership response, got {other:?}"),
    }
}

/// Two admin calls racing on one member each bump the view the other
/// has not installed yet. The loser of the install must start over from
/// the winner's view — not announce an epoch-N+1 view of its own that
/// nobody holds.
#[test]
fn racing_joins_through_one_member_both_land() {
    const ROUNDS: u64 = 40;
    let spec = StrategySpec::full_replication();
    let (listeners, addrs) = bind_all(3);
    let _handles: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let cfg = ServerConfig::new(i, addrs.clone(), spec, 250);
            Server::with_listener(cfg, l).expect("server").0.spawn()
        })
        .collect();
    let view_of =
        |addr: SocketAddr| match call_raw(addr, 1, &Request::Membership(Membership::empty())) {
            Ok((_, Response::Membership(view))) => view,
            other => panic!("membership fetch from {addr}: {other:?}"),
        };

    for round in 0..ROUNDS {
        // Joiners that never boot, each at a loopback address of its own:
        // a closed port refuses the later rounds' announcements at once.
        let joiners = [format!("127.7.{round}.1:9"), format!("127.7.{round}.2:9")];
        let barrier = std::sync::Barrier::new(2);
        let replies: Vec<Membership> = std::thread::scope(|scope| {
            let racers: Vec<_> = joiners
                .iter()
                .map(|joiner| {
                    let barrier = &barrier;
                    let member = addrs[0];
                    scope.spawn(move || {
                        let mut stream = std::net::TcpStream::connect(member).expect("connect");
                        let req = Request::JoinLeave { join: Some(joiner.clone()), leave: None };
                        let payload = req.encode();
                        barrier.wait();
                        match exchange_raw(&mut stream, 2, &payload).expect("join").1 {
                            Response::Membership(view) => view,
                            other => panic!("join answered {other:?}"),
                        }
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });

        let want_epoch = 1 + 2 * (round + 1);
        let last = view_of(addrs[0]);
        assert_eq!(
            last.epoch(),
            want_epoch,
            "round {round}: a join was announced but never installed"
        );
        for joiner in &joiners {
            assert!(last.id_of_addr(joiner).is_some(), "round {round}: {joiner} is missing");
        }
        for addr in &addrs[1..] {
            assert_eq!(view_of(*addr), last, "round {round}: {addr} holds another view");
        }
        // Both replies are views member 0 installed: the last one, and
        // the one before it (the last one minus the second joiner).
        let (first, second) = if replies[0].epoch() < replies[1].epoch() { (0, 1) } else { (1, 0) };
        assert_eq!(replies[second], last, "round {round}");
        assert_eq!(replies[first].epoch(), want_epoch - 1, "round {round}");
        let before: Vec<_> =
            last.members().iter().filter(|m| m.addr != joiners[second]).cloned().collect();
        assert_eq!(replies[first].members(), before, "round {round}");
    }
}
