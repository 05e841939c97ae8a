//! Allocation-budget regression gate: pins the end-to-end heap
//! allocations per partial lookup, strategy by strategy.
//!
//! The test binary installs the counting global allocator (exactly as
//! `pls-server` does), spins up an in-process 3-server cluster per
//! strategy, and measures a [`pls_telemetry::alloc::phase`] around a
//! fixed batch of lookups. Because client and servers share this
//! process, the measured figure is the *whole* per-lookup allocation
//! story — request encode/decode on both sides, engine reads, response
//! assembly — which is what a regression would inflate no matter where
//! it hides.
//!
//! The ceilings are the measured figure plus 10 %: the count repeats
//! to the first decimal from run to run and is the same in debug and
//! release (nothing else allocates in the process while a batch runs:
//! the servers' self-scrape is off), so one more allocation per lookup
//! anywhere on the path trips the gate.
//! CI runs this test in release mode too, so the budget holds for the
//! binaries that get deployed, not just the debug profile.

use std::net::SocketAddr;

use pls_cluster::{Client, ClientConfig, Server, ServerConfig, ServerHandle};
use pls_core::StrategySpec;

/// Arm the counting allocator for this test binary, exactly like the
/// `pls-server` binary does, so `alloc::phase` sees real readings.
#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

const KEYS: usize = 16;
const ENTRIES_PER_KEY: usize = 8;
const WARMUP_LOOKUPS: usize = 50;
const MEASURED_LOOKUPS: usize = 200;
const T: usize = 3;

fn spawn_cluster(n: usize, spec: StrategySpec, seed: u64) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs.push(listener.local_addr().expect("local addr"));
        listeners.push(listener);
    }
    let mut handles = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg =
            ServerConfig { self_scrape: None, ..ServerConfig::new(i, addrs.clone(), spec, seed) };
        let (server, _) = Server::with_listener(cfg, listener).expect("server");
        handles.push(server.spawn());
    }
    (addrs, handles)
}

/// Measures allocations per lookup for one strategy on a fresh
/// cluster and returns the figure.
fn allocs_per_lookup(spec: StrategySpec, seed: u64) -> f64 {
    let (addrs, _handles) = spawn_cluster(3, spec, seed);
    let mut client = Client::connect(ClientConfig::new(addrs, spec, seed + 100));
    for i in 0..KEYS {
        let entries: Vec<Vec<u8>> =
            (0..ENTRIES_PER_KEY).map(|j| format!("entry-{i:03}-{j:03}").into_bytes()).collect();
        client.place(format!("key-{i:03}").as_bytes(), entries).expect("place");
    }
    // Warmup: connection setup, first-touch buffers, engine warm paths
    // — none of that belongs to the steady-state per-lookup budget.
    for i in 0..WARMUP_LOOKUPS {
        client.partial_lookup(format!("key-{:03}", i % KEYS).as_bytes(), T).expect("warmup");
    }
    let phase = pls_telemetry::alloc::phase();
    for i in 0..MEASURED_LOOKUPS {
        client.partial_lookup(format!("key-{:03}", i % KEYS).as_bytes(), T).expect("lookup");
    }
    let delta = phase.delta();
    delta.allocs as f64 / MEASURED_LOOKUPS as f64
}

/// One sequential test (not one per strategy): phases measure global
/// allocator counters, so concurrently running tests would bleed into
/// each other's readings.
#[test]
fn allocations_per_lookup_stay_under_budget() {
    // Measured: 18.1, 18.1, 22.1, 21.1 and 22.2 per lookup of t = 3 —
    // the client's plan, request encode and frame, the server's frame
    // read, decode, sample and reply, the client's decode and result —
    // against 6 in process (`pls-core`'s `alloc_gate`). Each ceiling is
    // that plus 10 %.
    let budgets: [(&str, StrategySpec, f64); 5] = [
        ("full", StrategySpec::full_replication(), 19.9),
        ("fixed:4", StrategySpec::fixed(4), 19.9),
        ("random:4", StrategySpec::random_server(4), 24.3),
        ("round:2", StrategySpec::round_robin(2), 23.2),
        ("hash:2", StrategySpec::hash(2), 24.4),
    ];
    for (i, (label, spec, ceiling)) in budgets.into_iter().enumerate() {
        let measured = allocs_per_lookup(spec, 1000 + i as u64 * 7);
        println!("allocs/lookup {label:<9} measured {measured:>8.1}  ceiling {ceiling:>7.1}");
        assert!(
            measured > 0.0,
            "{label}: counting allocator reported zero allocations — is it installed?"
        );
        assert!(
            measured <= ceiling,
            "{label}: {measured:.1} allocations per lookup exceeds the pinned \
             budget of {ceiling:.1} — a per-lookup allocation regression"
        );
    }
}
