//! Core implementation of **partial lookup services** (Sun &
//! Garcia-Molina, ICDCS 2003).
//!
//! A lookup service maps a key to a set of entries. A *partial* lookup
//! service exploits the fact that clients usually need only `t` of the `h`
//! entries: `partial_lookup(t)` may return any subset of size ≥ `t`, which
//! lets servers store far less than the full entry set.
//!
//! This crate implements the paper's five per-key placement strategies as
//! message-passing protocols over a cluster of `n` servers
//! ([`StrategySpec`]):
//!
//! * **Full replication** — every entry on every server.
//! * **Fixed-x** — the same fixed `x`-subset on every server, with the
//!   selective-broadcast update rule and cushion sizing of §5.2.
//! * **RandomServer-x** — an independent uniformly-random `x`-subset per
//!   server, maintained under adds by reservoir sampling (Vitter).
//! * **Round-Robin-y** — entry `i` on servers `i .. i+y-1 (mod n)`, with the
//!   head/tail coordinator counters and the hole-plugging migration
//!   protocol of Fig. 11.
//! * **Hash-y** — entry `v` on servers `f_1(v) .. f_y(v)` for a family of
//!   `y` hash functions.
//!
//! The entry point is [`Cluster`]: it owns the per-server state, the
//! failure set, the message counter and a deterministic RNG, and exposes
//! the service interface of §2 — [`Cluster::place`], [`Cluster::add`],
//! [`Cluster::delete`], [`Cluster::partial_lookup`] — plus failure
//! injection and a [`Placement`] snapshot for the metrics crate.
//!
//! # Example
//!
//! ```
//! use pls_core::{Cluster, StrategySpec};
//!
//! // 100 entries on 10 servers, each entry kept on 2 servers.
//! let mut cluster = Cluster::new(10, StrategySpec::round_robin(2), 42)?;
//! cluster.place((0..100u64).collect());
//! let result = cluster.partial_lookup(30)?;
//! assert!(result.entries().len() >= 30);
//! assert_eq!(result.servers_contacted(), 2); // ceil(30 / 20)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Beyond the paper's core, the [`advisor`] module encodes the paper's
//! rules of thumb (Table 2) for choosing a strategy, and [`ext`] implements
//! the §7 variations (client preferences, limited reachability).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod collections;
mod config;
mod entry;
mod error;
mod group;
mod hashing;
mod lookup;
mod messages;
mod node;
mod placement;

pub mod advisor;
pub mod baseline;
pub mod directory;
pub mod engine;
pub mod ext;
pub mod membership;

pub use cluster::Cluster;
pub use collections::IndexedSet;
pub use config::{ConfigError, StrategyKind, StrategySpec};
pub use entry::Entry;
pub use error::ServiceError;
pub use hashing::{fnv1a64, HashFamily};
pub use lookup::{Answer, LookupPlan, LookupResult};
pub use membership::{GroupRouter, Member, Membership, RoutingTable};
pub use messages::Message;
pub use node::Tombstone;
pub use placement::Placement;

// Re-export the substrate types users need to drive a cluster.
pub use pls_net::{DetRng, FailureSet, MessageCounter, MsgClass, ServerId};
