//! Networked deployment of the partial lookup service.
//!
//! The paper envisions an online directory (Napster-style song lookup,
//! DNS-style name resolution). This crate turns the protocol engines of
//! `pls-core` into exactly that: `n` TCP servers plus a client library,
//! managing **many keys**, each under its own placement strategy.
//!
//! * Every server runs one [`pls_core::engine::NodeEngine`] per key — the
//!   same state machine the simulator executes, so the deployed protocol
//!   is the validated one.
//! * The wire format is a hand-rolled length-prefixed binary encoding
//!   ([`pls_wire::wire`], [`pls_wire::proto`]) over byte slices; [`frame`]
//!   reads and writes one frame on a socket. The codec, the write-ahead
//!   log ([`pls_wire::storage`]), the server's per-key state machine
//!   ([`pls_wire::shard`]), its request path ([`pls_wire::server::Node`])
//!   and its background work ([`pls_wire::maintenance::Maintenance`]), the
//!   client's policy ([`pls_wire::client::ClientCore`]), [`pls_wire::retry`]
//!   and [`pls_wire::metrics`] touch no socket and live in `pls-wire`; this
//!   crate adds everything that does: the [`Server`] shell (`std::net`
//!   sockets, one thread per connection, one maintenance thread, no
//!   runtime), the [`Client`] shell (each probe a call on the caller's
//!   thread; a member whose probe is still silent at its hedge time gets
//!   a thread that carries its probes until it has none out; the clock)
//!   and the chaos proxy.
//! * Server-to-server traffic (store/remove/migrate fan-out) is carried
//!   as [`pls_wire::proto::Request::Internal`] RPCs with acknowledged,
//!   in-order delivery per sender — the ordering the engines rely on.
//! * The client ([`Client`]) runs the §3 lookup procedures over
//!   sockets: single-probe for full replication and Fixed-x, shuffled
//!   probing with merging for RandomServer-x and Hash-y, the stride walk
//!   for Round-Robin-y; failed servers are skipped exactly as in the
//!   paper.
//! * Every server and client is instrumented with lock-free metrics
//!   ([`pls_wire::metrics`], built on [`pls_telemetry`]); every exported
//!   family — the paper's §4 quality metrics measured live among them — is
//!   a row of [`pls_wire::metrics::CATALOGUE`]. Scrape one server with
//!   [`pls_wire::proto::Request::Metrics`], over HTTP via the [`http`]
//!   exporter (`pls-server --metrics-addr`), or the whole cluster with
//!   [`Client::cluster_metrics`] / `pls-client stats`.
//! * Every network interaction is **time-bounded** ([`pls_wire::retry`]):
//!   a peer is called one way, with an attempt count and a deadline;
//!   operations carry a total budget, flaky peers are retried with
//!   jittered backoff, and a per-peer circuit breaker demotes servers that
//!   keep failing. Lookups and every read of the members skip a faulty
//!   member; lookups can optionally *hedge* slow probes. A fault-injecting
//!   [`chaos`] proxy proves all of it under black-holes, delays, garbage
//!   frames, and half-closes (`tests/chaos.rs`).
//! * Every request frame carries a client-generated **request id**
//!   ([`pls_wire::wire`]); servers echo it, propagate it through internal
//!   fan-out, and stamp it (`req=...`) on their tracing events, so one
//!   lookup can be correlated across every machine it touched.
//!
//! # Example
//!
//! ```no_run
//! use pls_cluster::{Client, ClientConfig, Server, ServerConfig};
//! use pls_core::StrategySpec;
//!
//! # fn demo() -> Result<(), Box<dyn std::error::Error>> {
//! // Normally each server runs in its own process (see the pls-server
//! // binary); here, in one process for brevity.
//! let addrs: Vec<std::net::SocketAddr> =
//!     (0..3).map(|i| format!("127.0.0.1:{}", 7400 + i).parse().unwrap()).collect();
//! let mut running = Vec::new();
//! for i in 0..3 {
//!     let cfg = ServerConfig::new(i, addrs.clone(), StrategySpec::hash(2), 42);
//!     let (server, _addr) = Server::bind(cfg)?;
//!     running.push(server.spawn()); // dropping a handle kills its server
//! }
//! let mut client = Client::connect(ClientConfig::new(addrs, StrategySpec::hash(2), 1));
//! client.place(b"song/stairway", vec![b"peer1:6699".to_vec(), b"peer2:6699".to_vec()])?;
//! let hits = client.partial_lookup(b"song/stairway", 1)?;
//! assert!(!hits.is_empty());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod client;
pub mod frame;
pub mod http;
mod rpc;
mod server;
mod sock;

pub use chaos::{ChaosConfig, ChaosPeer};
pub use client::{Client, ClientConfig};
pub use pls_wire::metrics::{ClientMetrics, ReqOp, ServerMetrics};
pub use pls_wire::retry::{Breaker, BreakerConfig, Deadline, Timeouts};
pub use pls_wire::server::ServerConfig;
pub use pls_wire::ClusterError;
pub use rpc::PoolStats;
pub use server::{Server, ServerHandle};

/// Parses a strategy spec from its CLI form: `full`, `fixed:20`,
/// `random:20`, `round:2`, or `hash:2`.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or missing/invalid
/// parameters.
pub fn parse_spec(s: &str) -> Result<pls_core::StrategySpec, String> {
    use pls_core::StrategySpec;
    let (name, param) = match s.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (s, None),
    };
    let parse_param = || -> Result<usize, String> {
        let raw = param
            .ok_or_else(|| format!("strategy `{name}` needs a parameter, e.g. `{name}:20`"))?;
        raw.parse::<usize>().map_err(|_| format!("invalid parameter `{raw}` for strategy `{name}`"))
    };
    match name {
        "full" | "full-replication" => Ok(StrategySpec::full_replication()),
        "fixed" => Ok(StrategySpec::fixed(parse_param()?)),
        "random" | "random-server" => Ok(StrategySpec::random_server(parse_param()?)),
        "round" | "round-robin" => Ok(StrategySpec::round_robin(parse_param()?)),
        "hash" => Ok(StrategySpec::hash(parse_param()?)),
        other => Err(format!(
            "unknown strategy `{other}` (expected full, fixed:X, random:X, round:Y, hash:Y)"
        )),
    }
}

/// Parses a request id as it is written in logs, scripts and the
/// `/trace?req=` query: decimal, or hex with a `0x` prefix.
pub fn parse_req_id(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Takes the value of command-line flag `name` from `args` and parses
/// it: the step every binary's flag loop repeats.
///
/// # Errors
///
/// `"<name> needs a value"` at the end of the arguments; `"<name>:
/// <parse error>"` for a value that does not parse.
pub fn flag<T: std::str::FromStr>(
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = args.next().ok_or(format!("{name} needs a value"))?;
    raw.parse().map_err(|e| format!("{name}: {e}"))
}

/// [`flag`] for a comma-separated list (`--peers A,B,C`).
///
/// # Errors
///
/// As [`flag`], for the first element that does not parse.
pub fn flag_list<T: std::str::FromStr>(
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let raw: String = flag(name, args)?;
    raw.split(',').map(|s| s.trim().parse().map_err(|e| format!("{name}: {e}"))).collect()
}

#[cfg(test)]
mod tests {
    use std::net::{SocketAddr, TcpListener};
    use std::sync::Arc;

    use super::*;
    use crate::rpc::PeerClient;
    use pls_core::StrategySpec;
    use pls_wire::proto::{Request, Response};
    use pls_wire::server::Node;

    /// The reads a client or a peer makes come back over TCP exactly as
    /// the node serves them in process, for the same state.
    #[test]
    fn reads_served_in_process_match_the_tcp_answers() {
        let spec = StrategySpec::round_robin(2);
        let listeners: Vec<TcpListener> =
            (0..3).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let servers: Vec<Server> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let cfg = ServerConfig {
                    self_scrape: None,
                    ..ServerConfig::new(i, addrs.clone(), spec, 7)
                };
                Server::with_listener(cfg, listener).unwrap().0
            })
            .collect();
        let nodes: Vec<Arc<Node>> = servers.iter().map(|s| Arc::clone(s.node())).collect();
        let _running: Vec<ServerHandle> = servers.into_iter().map(Server::spawn).collect();
        let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 8));
        let entries: Vec<Vec<u8>> = (0..12).map(|i| format!("peer{i}:6699").into_bytes()).collect();
        client.place(b"k", entries).unwrap();
        client.delete(b"k", b"peer3:6699".to_vec()).unwrap();
        let (k, unknown) = (b"k".to_vec(), b"unknown".to_vec());
        let reads = [
            Request::Probe { key: k.clone(), t: 100 },
            Request::Status,
            Request::Keys,
            Request::Snapshot { key: k.clone() },
            Request::Snapshot { key: unknown.clone() },
            Request::Digest { key: k.clone() },
            Request::Digest { key: unknown },
            Request::SpecOf { key: k },
        ];
        // A probe answers everything it holds, in a random order.
        let sorted = |resp| match resp {
            Response::Entries(mut entries) => {
                entries.sort();
                Response::Entries(entries)
            }
            other => other,
        };
        for (addr, node) in addrs.iter().zip(&nodes) {
            let peer = PeerClient::new(*addr);
            for req in &reads {
                let deadline = pls_wire::retry::Deadline::within(std::time::Duration::from_secs(5));
                let (tcp, _) = peer.call(9, req, 1, deadline).unwrap();
                let (local, _) = node.answer(node.serve(9, Ok(req.clone()), 0), Ok(()));
                assert_eq!(sorted(tcp), sorted(local), "{addr}: {req:?}");
            }
        }
    }

    #[test]
    fn parse_spec_accepts_all_forms() {
        assert_eq!(parse_spec("full"), Ok(StrategySpec::full_replication()));
        assert_eq!(parse_spec("fixed:20"), Ok(StrategySpec::fixed(20)));
        assert_eq!(parse_spec("random:20"), Ok(StrategySpec::random_server(20)));
        assert_eq!(parse_spec("random-server:5"), Ok(StrategySpec::random_server(5)));
        assert_eq!(parse_spec("round:2"), Ok(StrategySpec::round_robin(2)));
        assert_eq!(parse_spec("hash:3"), Ok(StrategySpec::hash(3)));
    }

    #[test]
    fn flags_take_and_parse_the_next_argument() {
        let mut args = ["7", "a:1, b:2", "x"].map(String::from).into_iter();
        assert_eq!(flag::<u64>("--n", &mut args), Ok(7));
        assert_eq!(flag_list::<String>("--l", &mut args), Ok(vec!["a:1".into(), "b:2".into()]));
        assert_eq!(flag::<u64>("--n", &mut args), Err("--n: invalid digit found in string".into()));
        assert_eq!(flag::<u64>("--n", &mut args), Err("--n needs a value".into()));
    }

    #[test]
    fn parse_spec_rejects_garbage() {
        assert!(parse_spec("chord").is_err());
        assert!(parse_spec("fixed").is_err());
        assert!(parse_spec("fixed:abc").is_err());
    }
}
