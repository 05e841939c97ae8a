//! Runtime telemetry for the partial lookup service.
//!
//! The paper's headline numbers — probes per lookup (§4.2), per-server
//! load (§4.5) — are *measurements*. This crate gives the deployed
//! system the machinery to take those measurements at runtime, with the
//! discipline a hot path demands:
//!
//! * [`Counter`] — a relaxed atomic `u64`; `inc`/`add` are single
//!   `fetch_add` instructions, no locks anywhere.
//! * [`Histogram`] — a fixed set of log₂ buckets backed entirely by
//!   atomics. `observe` is two `fetch_add`s: the sum and one bucket.
//!   Snapshots ([`HistogramSnapshot`]) are plain data: they merge across
//!   servers and serialize over the wire.
//! * [`Gauge`] — a point-in-time `f64` reading (a ratio, a level)
//!   stored as bits in an atomic `u64`; `set`/`get` are single relaxed
//!   operations.
//! * [`TopK`] — a bounded Space-Saving sketch answering "which keys are
//!   hottest?" in `O(k)` memory with per-slot error bounds; an offer
//!   scans `k` adjacent words under one short mutex hold.
//! * [`KeyedCounterMap`] — one counter per byte-string key for
//!   populations discovered at runtime (per-entry retrieval counts),
//!   hashed once per operation and appended to the calling thread's
//!   log, which is folded into the one table 64 increments at a time.
//! * [`MetricsSnapshot`] — a named bag of counter values, gauge
//!   readings, and histogram snapshots; merging snapshots from every
//!   server of a cluster yields cluster-wide totals, and
//!   [`MetricsSnapshot::to_prometheus`] renders the standard text
//!   exposition format for scraping.
//! * [`trace`] — a structured logging facade (levels, key/value fields,
//!   timing spans with optional request-id correlation) with the shape
//!   of the `tracing` crate but no dependency, so binaries and
//!   tests can enable it unconditionally. Span fields stay un-rendered
//!   ([`trace::FieldValue`]) until a line is printed or a record read.
//! * [`recorder`] — the flight recorder: a ring of the last few
//!   thousand completed spans, moved in whole on span drop, with slow
//!   requests pinned against wraparound.
//! * [`TimedMutex`] — a `std::sync::Mutex` that measures itself:
//!   per-site wait/hold histograms plus acquisition and contention
//!   counters, so "which lock is the ceiling?" is a scrape, not a
//!   profiling session.
//! * [`alloc`] — an opt-in counting global allocator (allocs, frees,
//!   bytes, live peak, scoped per-phase deltas) cheap enough for
//!   release tests to pin allocations-per-operation budgets.
//! * [`Timeline`] — a bounded ring of periodic [`MetricsSnapshot`]s
//!   with delta/rate arithmetic: the time axis that turns cumulative
//!   totals into windowed rates.
//! * [`slo`] — declarative service-level objectives tracked as error
//!   budgets with fast/slow-window burn rates fed from [`Timeline`]
//!   deltas.
//!
//! Everything here is `std` and `pls-net`'s keyed hash, which `TopK` and
//! `KeyedCounterMap` find keys by. The recording path is atomics for
//! counters, gauges and histograms, one per-slot, per-thread-log or
//! per-sketch mutex held for tens of nanoseconds for spans, keyed
//! counters and the sketch (plus, every 64th keyed increment, the
//! keyed map's table lock for one fold); the only allocations happen at
//! snapshot/exposition time (plus first-touch key insertion in the keyed
//! structures). The
//! crate denies `unsafe_code`; the single exception is the
//! [`alloc`] module's `GlobalAlloc` impl, which forwards to the system
//! allocator and does arithmetic.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod contention;
pub mod counter;
pub mod gauge;
pub mod histogram;
pub mod json;
pub mod keyed;
pub mod recorder;
pub mod slo;
pub mod snapshot;
pub mod timeline;
pub mod topk;
pub mod trace;

pub use alloc::{AllocStats, CountingAlloc};
pub use contention::{SiteSnapshot, SiteStats, TimedMutex, TimedMutexGuard};
pub use counter::Counter;
pub use gauge::Gauge;
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use keyed::{KeyedCounterMap, KeyedSnapshot};
pub use recorder::{PinnedRequest, Recorder, SpanRecord};
pub use slo::{SloSource, SloSpec, SloStatus, SloTracker};
pub use snapshot::MetricsSnapshot;
pub use timeline::{Delta, Timeline, Window};
pub use topk::{TopK, TopKEntry, TopKSnapshot};
pub use trace::{Level, Span};
