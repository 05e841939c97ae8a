//! Simulated message-passing substrate for partial lookup services.
//!
//! The evaluation in *Partial Lookup Services* (Sun & Garcia-Molina, ICDCS
//! 2003) measures update overhead by counting the messages **received and
//! processed by servers**: a broadcast to `n` servers costs `n` processed
//! messages and a point-to-point message costs `1` (paper §6.4). This crate
//! provides what the in-process service in `pls-core` is built on:
//!
//! * [`ServerId`] / [`Endpoint`] — typed addresses for servers and clients.
//! * [`MessageCounter`] — the paper's cost model, split by category so
//!   lookup traffic and update traffic can be reported separately.
//! * [`FailureSet`] — which servers are currently crashed, with an
//!   adversarial / scripted injection API.
//! * [`DetRng`] — deterministic seeded randomness with the sampling helpers
//!   the strategies need (random operational server, random `x`-subset,
//!   shuffled probe orders).
//! * [`HashSeed`] — the one keyed hash of the in-memory tables of
//!   `pls-core` and `pls-telemetry`: 16 bytes per folded multiply.
//! * [`Topology`] — hop-count graphs for the limited-reachability extension
//!   (paper §7.2).
//! * [`SimNet`] — a mailbox-per-server network with [`SimNet::send`],
//!   [`SimNet::broadcast`] and [`SimNet::deliver_all`]. `pls-core` no longer
//!   runs on it (it delivers first in first out from one queue); it is the
//!   reference schedule of `pls-core`'s delivery-order test and of two
//!   benchmark rows.
//!
//! # Example
//!
//! ```
//! use pls_net::{SimNet, ServerId, Endpoint, MsgClass};
//!
//! let mut net: SimNet<&'static str> = SimNet::new(3);
//! net.send(Endpoint::client(0), ServerId::new(1), "store v1", MsgClass::Update)?;
//! net.broadcast(Endpoint::Server(ServerId::new(1)), "store v2", MsgClass::Update)?;
//! let mut seen = Vec::new();
//! net.deliver_all(|_, envelope| seen.push((envelope.to, envelope.msg)));
//! assert_eq!(seen.len(), 4); // 1 p2p + 3 broadcast copies
//! assert_eq!(net.counter().update_messages(), 4);
//! # Ok::<(), pls_net::SendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod error;
mod fault;
mod hash;
mod id;
mod net;
mod rng;
mod topology;

pub use counter::{MessageCounter, MsgClass};
pub use error::SendError;
pub use fault::FailureSet;
pub use hash::{FoldHasher, HashSeed};
pub use id::{Endpoint, ServerId};
pub use net::{Envelope, SimNet};
pub use rng::{splitmix64, DetRng};
pub use topology::Topology;
