//! A lookup that does not hedge makes every probe on the caller's thread:
//! with the servers in child processes, every thread of this process is
//! the test's or the client's, and lookups that probe every member leave
//! the count where it was — with hedging off, and with a hedge time that
//! never comes.
#![cfg(target_os = "linux")]

mod common;

use std::time::Duration;

use common::{bind_all, entries, threads, Servers};
use pls_cluster::{Client, ClientConfig};
use pls_core::StrategySpec;

#[test]
fn a_lookup_that_does_not_hedge_starts_no_thread() {
    // The ports are free once their listeners drop, for the servers to bind.
    let addrs = bind_all(3).1;
    let _servers = Servers::spawn(&addrs, "full");

    let spec = StrategySpec::full_replication();
    for hedge in [None, Some(Duration::from_secs(1))] {
        let mut client =
            Client::connect(ClientConfig { hedge, ..ClientConfig::new(addrs.clone(), spec, 5) });
        let before = threads();
        client.place(b"k", entries(0..6)).unwrap();
        // Full replication probes one member at random: 50 lookups probe
        // all three but with odds of 3 · (2/3)^50.
        for _ in 0..50 {
            assert_eq!(client.partial_lookup(b"k", 4).unwrap().len(), 4);
        }
        assert_eq!(client.metrics().hedges.get(), 0);
        assert_eq!(threads(), before, "lookups with hedge {hedge:?} started threads");
    }
}
