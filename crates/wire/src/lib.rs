//! The half of the networked partial lookup service that needs no async
//! runtime: plain data in, plain data out, the caller owns the sockets.
//!
//! * [`wire`] — the frame layout and the primitive encoding, a
//!   [`wire::Reader`] over `&[u8]` and a [`wire::Writer`] into `Vec<u8>`;
//! * [`proto`] — [`proto::Request`] / [`proto::Response`] and their
//!   `encode` / `decode`;
//! * [`storage`] — the write-ahead log and checkpoints of one data dir;
//! * [`shard`] — [`shard::Shards`]: one server's engines, per-key
//!   strategies and membership table, with one apply path for live
//!   messages and WAL replay, snapshot, digest, rebuild, checkpoint, and
//!   the pure repair rules of anti-entropy beside it;
//! * [`server`] — [`server::Node`]: every request a server answers, with
//!   its accounting, returning the reply or the peer calls to make first;
//!   and [`server::ServerConfig`];
//! * [`maintenance`] — [`maintenance::Maintenance`]: anti-entropy (which
//!   also measures staleness) and the self-scrape as a scheduler that
//!   names the pulls it needs and reads their answers; cold-start resync
//!   is one of its repair rounds;
//! * [`client`] — [`client::ClientCore`]: the client's policy — the
//!   lookup driver with its hedges, update routing, the reads of the
//!   members, the operation budget — as operations that name their calls
//!   and take their outcomes; and [`client::ClientConfig`];
//! * [`retry`] — deadlines, the backoff between a call's attempts and the
//!   per-peer circuit breaker;
//! * [`metrics`] — the server's and the client's counters, histograms
//!   and live-quality gauges;
//! * [`error`] — [`ClusterError`].
//!
//! `pls-cluster` adds the TCP server (a shell around [`server`] and
//! [`maintenance`]), the client (a shell around [`client`]) and the frame
//! reader and writer; code that needs these modules names this crate.
//! Nothing here touches a socket, and [`server`], [`maintenance`],
//! [`shard`] and [`client`] take the time as an argument: the server's and
//! the client's logic are tested through this crate without sockets or
//! sleeps (`cargo test -p pls-wire`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod maintenance;
pub mod metrics;
pub mod proto;
pub mod retry;
pub mod server;
pub mod shard;
pub mod storage;
pub mod wire;

pub use error::ClusterError;
