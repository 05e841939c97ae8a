//! A hedged lookup's stragglers stay bounded. With one member
//! black-holed (its `pls-server` stopped: the kernel still completes its
//! handshakes and takes its requests, and nothing answers) and hedging
//! on, a lookup that probes it leaves that probe behind, yet a member
//! never has more than one probe out: the client holds at most one
//! thread and one connection per member, however many lookups pass
//! before the black hole's first probe times out.
#![cfg(target_os = "linux")]

mod common;

use std::net::{SocketAddr, TcpListener};
use std::process::Command;
use std::time::Duration;

use common::{bind_all, entries, sockets, threads, Servers};
use pls_cluster::{Client, ClientConfig, Timeouts};
use pls_core::StrategySpec;

/// A client of `servers` under full replication, hedging at 5 ms.
fn hedging_client(servers: Vec<SocketAddr>, op_budget: Duration) -> Client {
    let spec = StrategySpec::full_replication();
    let timeouts = Timeouts { rpc: Duration::from_millis(500), op_budget };
    let hedge = Some(Duration::from_millis(5));
    Client::connect(ClientConfig { timeouts, hedge, ..ClientConfig::new(servers, spec, 17) })
}

/// Runs `lookup` `lookups` times and returns the most threads and sockets
/// this process held after any run, above what it held before the first.
fn peaks(lookups: usize, mut lookup: impl FnMut()) -> (usize, usize) {
    let (threads_before, sockets_before) = (threads(), sockets());
    let (mut most_threads, mut most_sockets) = (threads_before, sockets_before);
    for _ in 0..lookups {
        lookup();
        most_threads = most_threads.max(threads());
        most_sockets = most_sockets.max(sockets());
    }
    (most_threads - threads_before, most_sockets - sockets_before)
}

#[test]
fn a_black_holed_member_holds_one_thread_and_one_connection_however_often_it_is_probed() {
    let addrs = bind_all(3).1;
    let servers = Servers::spawn(&addrs, "full");
    let mut client = hedging_client(addrs.clone(), Duration::from_secs(1));
    client.place(b"k", entries(0..6)).unwrap();
    let stopped = Command::new("kill").args(["-STOP", &servers.0[2].id().to_string()]).status();
    assert!(stopped.expect("kill runs").success(), "server 2 stopped");

    // Full replication probes one member at random: a lookup that starts
    // at the black hole hedges to another member, and the black hole,
    // with a probe out, is probed last.
    let (threads, sockets) = peaks(300, || {
        assert_eq!(client.partial_lookup(b"k", 6).unwrap().len(), 6);
    });
    // Only the first: until its probe times out the black hole is busy,
    // and after it its breaker has a failure streak.
    assert_eq!(client.metrics().hedges.get(), 1, "lookups that started at the black hole");
    assert!(threads <= 3 && sockets <= 3, "{threads} threads and {sockets} sockets more");
    drop(client);

    // A client whose only member is a black hole probes it while it is
    // busy too: such a probe queues behind the one out, on the member's
    // thread, until three timeouts open the breaker. The black hole is a
    // listener of this process that never accepts (a stopped server's
    // backlog fills with its peers' dials).
    let hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = hedging_client(vec![hole.local_addr().unwrap()], Duration::from_millis(20));
    let (threads, sockets) = peaks(30, || assert!(client.partial_lookup(b"k", 6).is_err()));
    assert!(threads <= 1 && sockets <= 1, "{threads} threads and {sockets} sockets more");
}
