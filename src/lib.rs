//! **partial-lookup** — a faithful, production-quality implementation of
//! *Partial Lookup Services* (Qixiang Sun & Hector Garcia-Molina, ICDCS
//! 2003).
//!
//! A lookup service maps a key to a set of entries (a song name to the
//! peers serving it, a category to matching URLs). Clients rarely need
//! *all* entries — `partial_lookup(k, t)` returns any `t` of them — and
//! exploiting that lets servers store far less than the full set. This
//! workspace implements the paper end to end:
//!
//! * [`core`] — the five placement strategies (full replication,
//!   Fixed-x, RandomServer-x, Round-Robin-y, Hash-y) as message-passing
//!   protocols, with dynamic add/delete support, the strategy
//!   [`advisor`](pls_core::advisor) (Table 2 as code), and the §7
//!   extensions ([`ext`](pls_core::ext)).
//! * [`net`] — the simulated network substrate with the paper's message
//!   cost model and failure injection.
//! * [`metrics`] — storage cost, lookup cost, coverage, adversarial
//!   fault tolerance, and unfairness (§4).
//! * [`sim`] — the discrete-time update simulator (§6) and one
//!   experiment driver per table/figure.
//! * [`cluster`] — a real TCP deployment of the same protocol engines,
//!   with a client library; [`wire`] — its half that touches no socket
//!   (codec, write-ahead log, the server's state machine, metric sets).
//! * [`telemetry`] — lock-free runtime metrics (atomic counters, log₂
//!   histograms, Prometheus-style exposition) and a zero-dependency
//!   structured tracing facade; the cluster uses it to measure the §4.2
//!   lookup cost on live traffic (see the README's Observability
//!   section).
//!
//! # Quickstart
//!
//! ```
//! use partial_lookup::{Cluster, StrategySpec};
//!
//! // 100 entries for one key, spread over 10 servers, 2 copies each.
//! let mut cluster = Cluster::new(10, StrategySpec::round_robin(2), 42)?;
//! cluster.place((0..100u64).collect())?;
//!
//! // A client needing any 30 entries contacts just 2 servers.
//! let result = cluster.partial_lookup(30)?;
//! assert_eq!(result.entries().len(), 30);
//! assert_eq!(result.servers_contacted(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pls_cluster as cluster;
pub use pls_core as core;
pub use pls_metrics as metrics;
pub use pls_net as net;
pub use pls_sim as sim;
pub use pls_telemetry as telemetry;
pub use pls_wire as wire;

// The types almost every user touches, at the crate root.
pub use pls_core::{
    Cluster, ConfigError, Entry, LookupResult, Placement, ServiceError, StrategyKind, StrategySpec,
};
pub use pls_net::{DetRng, FailureSet, MessageCounter, ServerId};
