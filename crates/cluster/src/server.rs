//! The lookup server: a [`Node`] behind a socket. One thread per accepted
//! connection reads a frame, decodes it, has the node serve it, carries out
//! the peer calls the node's plan names, and writes the reply; one
//! maintenance thread carries [`Maintenance`]'s pulls. What the server
//! decides is `pls-wire`'s; what is here dials, waits and keeps the clock.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_telemetry::trace::Span;
use pls_telemetry::{Level, MetricsSnapshot, SpanRecord};
use pls_wire::client::{ask, Call, Rule};
use pls_wire::error::ClusterError;
use pls_wire::maintenance::Maintenance;
use pls_wire::metrics::{self, views};
use pls_wire::proto::Request;
use pls_wire::retry::{BreakerConfig, Deadline};
use pls_wire::server::{Node, ServerConfig};
use pls_wire::storage;
use pls_wire::wire::FRAME_OVERHEAD;

use crate::client;
use crate::frame::{read_frame, write_frame};
use crate::rpc::{PeerBook, PeerClient};
use crate::sock::Acceptor;

/// The shell's half of a server: the node, the peer clients it dials for
/// it, the clock, and what the maintenance thread waits on.
struct State {
    node: Arc<Node>,
    peers: Arc<PeerBook>,
    /// The clock every `now_ms` comes from: Unix milliseconds read once at
    /// `started`, advanced by the monotonic clock since.
    unix_ms: u64,
    started: Instant,
    /// Set by [`ServerHandle::kill`]. The maintenance thread waits on
    /// `wake` for it, for its next due time, or for a new view.
    stopped: Mutex<bool>,
    wake: Condvar,
    /// The epoch the peer book was last pruned at.
    pruned: AtomicU64,
}

impl State {
    fn cfg(&self) -> &ServerConfig {
        self.node.config()
    }

    fn now_ms(&self) -> u64 {
        self.unix_ms + self.started.elapsed().as_millis() as u64
    }

    /// Whether [`ServerHandle::kill`] was called: fan-outs and maintenance
    /// stop at their next step instead of running out their budget on a
    /// server that is already dead to its clients.
    fn stopping(&self) -> bool {
        *self.stopped.lock().expect("stop flag lock")
    }

    /// The RPC client for member `id`, resolved through the current view
    /// first and the grace-overlap previous view second (migration donors
    /// can be members that just left).
    fn peer(&self, id: u64) -> Result<Arc<PeerClient>, ClusterError> {
        let addr = self.node.shards().addr_of(id);
        addr.and_then(|addr| self.peers.client(id, &addr)).ok_or(ClusterError::NoServerAvailable)
    }

    /// After anything that may have installed a view: drops the clients of
    /// members that left it (a departed server stops consuming retries and
    /// half-open trials; a rejoin starts with a clean slate) and wakes the
    /// maintenance thread, whose repair round a new epoch makes due.
    fn follow_view(&self) {
        let epoch = self.node.epoch();
        if self.pruned.load(Ordering::SeqCst) == epoch
            || self.pruned.swap(epoch, Ordering::SeqCst) == epoch
        {
            return;
        }
        self.peers.prune(&self.node.shards().view());
        let _stopped = self.stopped.lock().expect("stop flag lock");
        self.wake.notify_all();
    }
}

fn bad_index() -> ClusterError {
    ClusterError::Config(pls_core::ConfigError::InvalidParameter("server index out of range"))
}

/// A lookup server, bound but not yet serving.
///
/// Create with [`Server::bind`], then start with [`Server::spawn`].
/// Killing the handle it returns is a crash — peers simply fail to
/// reach this server, exactly the failure model of the paper.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    /// Keys rebuilt from disk (checkpoint + WAL replay) at construction.
    recovered: usize,
}

impl Server {
    /// Binds the configured listen address (resolving port 0 to a real
    /// ephemeral port) and returns the server plus the bound address.
    ///
    /// # Errors
    ///
    /// Bind errors; [`ClusterError::Config`] for an invalid strategy or
    /// out-of-range `me`.
    pub fn bind(cfg: ServerConfig) -> Result<(Server, SocketAddr), ClusterError> {
        let addr = *cfg.peers.get(cfg.me).ok_or_else(bad_index)?;
        Self::with_listener(cfg, TcpListener::bind(addr)?)
    }

    /// Builds a server on an already-bound listener. Useful when the full
    /// peer address list must be known before any server starts (bind all
    /// listeners on ephemeral ports first, then construct the servers).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid strategy or out-of-range
    /// `me`; I/O errors from reading the listener's address or opening the
    /// data dir.
    pub fn with_listener(
        cfg: ServerConfig,
        listener: TcpListener,
    ) -> Result<(Server, SocketAddr), ClusterError> {
        let addr = listener.local_addr()?;
        let mut cfg = cfg;
        *cfg.peers.get_mut(cfg.me).ok_or_else(bad_index)? = addr;
        // Whatever the data dir's per-shard checkpoints and WAL segments
        // hold is replayed before serving, so a restarted server answers
        // from its own disk even when no live donor exists.
        let nshards = cfg.shards.max(1);
        let (storages, recovered) = match &cfg.data_dir {
            Some(dir) => {
                let (storages, recovered) = storage::open_sharded(dir, nshards)?;
                (storages.into_iter().map(|s| Some(Arc::new(s))).collect(), recovered)
            }
            None => (vec![None; nshards], Vec::new()),
        };
        let peers = Arc::new(PeerBook::new(cfg.timeouts, BreakerConfig::default()));
        let book = Arc::clone(&peers);
        let rows = Box::new(move |s: &mut MetricsSnapshot| book.push_robustness(s));
        let started = Instant::now();
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let (node, recovered) = Node::new(cfg, storages, recovered, rows, unix_ms)?;
        let state = Arc::new(State {
            pruned: AtomicU64::new(node.epoch()),
            node: Arc::new(node),
            peers,
            unix_ms,
            started,
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        });
        Ok((Server { listener, state, recovered }, addr))
    }

    /// The node this server serves.
    #[cfg(test)]
    pub(crate) fn node(&self) -> &Arc<Node> {
        &self.state.node
    }

    /// Keys rebuilt from the data directory (checkpoint + WAL replay)
    /// during construction; `0` without a data dir or on a fresh one.
    /// When this is zero a cold-starting server should still try
    /// [`Server::resync_from_peers`].
    pub fn recovered_keys(&self) -> usize {
        self.recovered
    }

    /// The debug endpoint's routes, for
    /// [`http::serve_router`](crate::http::serve_router):
    ///
    /// * `GET /metrics` — Prometheus text exposition of every
    ///   server-side family of [`metrics::CATALOGUE`], HELP included,
    ///   rendered fresh per request;
    /// * `GET /trace?req=<id>` — JSON span timeline of one request,
    ///   **cluster-wide**: this process's flight recorder merged with
    ///   every reachable peer's via [`Request::Trace`] fan-out;
    /// * `GET /debug/recent` — this process's recorder contents: the
    ///   ring (most recent last), the pinned slow requests, and the
    ///   recorder's own counters;
    /// * `GET /debug/contention` — [`views::contention_json`] of the same
    ///   snapshot: lock sites, per-shard rows, allocator, queue depths;
    /// * `GET /debug/timeline` — [`views::timeline_json`] of the
    ///   self-scrape ring and the SLO accounting.
    ///
    /// Routes hold only an [`Arc`] on the shared state, so the endpoint
    /// outlives the server.
    pub fn router(&self) -> crate::http::Router {
        use crate::http::{Handler, RouteReply, Router};
        let on = |render: fn(&Arc<State>, Option<&str>) -> RouteReply| -> Handler {
            let state = Arc::clone(&self.state);
            Arc::new(move |query| render(&state, query))
        };
        Router::new()
            .route(
                "/metrics",
                on(|state, _| {
                    let mut s = state.node.collect_metrics(false);
                    metrics::stamp(&mut s);
                    RouteReply::text(s.to_prometheus())
                }),
            )
            .route(
                "/trace",
                on(|state, query| {
                    let req = query
                        .and_then(|q| crate::http::query_param(q, "req"))
                        .and_then(crate::parse_req_id);
                    let Some(req) = req else {
                        return RouteReply::bad_request("missing or malformed req=<id>");
                    };
                    RouteReply::json(pls_telemetry::recorder::spans_to_json(&cluster_spans(
                        state, req,
                    )))
                }),
            )
            .route("/debug/recent", on(|_, _| RouteReply::json(recent_json())))
            .route(
                "/debug/contention",
                on(|state, _| {
                    RouteReply::json(views::contention_json(&state.node.collect_metrics(false)))
                }),
            )
            .route("/debug/timeline", on(|state, _| RouteReply::json(state.node.timeline_json())))
    }

    /// Takes one observatory scrape immediately — exactly what the
    /// self-scrape job does on its jittered cadence. Tests and harnesses
    /// use it to populate the timeline deterministically.
    pub fn scrape_now(&self) {
        self.state.node.scrape(self.state.now_ms());
    }

    /// Cold-start recovery: one repair round over every key the reachable
    /// peers list, before serving ([`Maintenance::resync`]): each key
    /// whose placement group holds this server is rebuilt from its donors
    /// under one operation budget. Returns the number of keys recovered.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoServerAvailable`] when no peer lists its keys.
    pub fn resync_from_peers(&self) -> Result<usize, ClusterError> {
        let state = &self.state;
        let mut resync = Maintenance::resync(Arc::clone(&state.node), state.now_ms());
        // One id stamps the whole recovery: every pull shows up as the same
        // `req` on the donors.
        let _span =
            Span::enter_with_id(Level::Info, module_path!(), "resync_from_peers", resync.req_id());
        drive(state, &mut resync);
        resync.resynced()
    }

    /// Starts serving: an accept thread with one thread per connection,
    /// and — when anti-entropy or the self-scrape is configured — one
    /// maintenance thread.
    ///
    /// Two rules the blocking shape makes load-bearing. **No
    /// [`TimedMutex`](pls_telemetry::TimedMutex) guard is alive across a
    /// peer call**: the node returns with its locks released and a plan is
    /// carried out between two of its calls — Round-Robin migration's RPC
    /// graph has cycles, and a handler blocked on a peer while holding a
    /// shard lock is a distributed deadlock. **The lookup port never
    /// queues a connection it cannot serve**: every accepted connection
    /// gets its own thread at once (there is no cap) — a peer connection
    /// parked behind a full pool inside a migration cycle is the same
    /// deadlock.
    pub fn spawn(self) -> ServerHandle {
        let Server { listener, state, .. } = self;
        let (serving, failing) = (Arc::clone(&state), Arc::clone(&state));
        let me = state.cfg().me;
        let acceptor = Acceptor::spawn(
            listener,
            state.cfg().peers[me],
            usize::MAX,
            move |socket| {
                // Connection teardown is normal; only report protocol
                // violations.
                if let Err(err) = serve_connection(&serving, socket) {
                    if !matches!(err, ClusterError::Io(_)) {
                        serving.node.metrics().connection_errors.inc();
                        pls_telemetry::warn!("connection_error", server = me, err = err);
                    }
                }
            },
            move |err| {
                failing.node.metrics().accept_errors.inc();
                pls_telemetry::warn!("accept_error", server = me, err = err);
            },
        );
        let maint = Maintenance::new(Arc::clone(&state.node), state.now_ms());
        let maintenance = maint.next_due().is_some().then(|| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || maintenance_loop(&state, maint))
        });
        ServerHandle { state, acceptor, maintenance }
    }
}

/// A serving [`Server`]: its accept thread, its connection threads and
/// its maintenance thread. Dropping the handle kills the server.
pub struct ServerHandle {
    state: Arc<State>,
    acceptor: Acceptor,
    maintenance: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Crashes the server: stops accepting, shuts every live connection's
    /// socket down and joins every thread. No shutdown path runs — no
    /// final checkpoint, no flush — and once this returns no WAL append
    /// or checkpoint can happen any more, so the data dir is what a
    /// killed process would have left. Idempotent.
    pub fn kill(&mut self) {
        *self.state.stopped.lock().expect("stop flag lock") = true;
        self.state.wake.notify_all();
        self.acceptor.stop();
        if let Some(thread) = self.maintenance.take() {
            if thread.join().is_err() {
                pls_telemetry::warn!("maintenance_thread_panicked", server = self.state.cfg().me);
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The maintenance thread: sleeps on the condvar until the scheduler's
/// next due time, a new view or a kill, then runs what is due.
fn maintenance_loop(state: &State, mut maint: Maintenance) {
    loop {
        let mut stopped = state.stopped.lock().expect("stop flag lock");
        loop {
            let Some(due) = maint.next_due().filter(|_| !*stopped) else { return };
            let wait = due.saturating_sub(state.now_ms());
            if wait == 0 {
                break;
            }
            let woken = state.wake.wait_timeout(stopped, Duration::from_millis(wait));
            stopped = woken.expect("stop flag lock").0;
        }
        drop(stopped);
        drive(state, &mut maint);
    }
}

/// Runs a scheduler until it has no pull left: each pull through the peer
/// book, capped by what is left of its round's budget, each answer handed
/// back as it comes. A kill stops it between batches.
fn drive(state: &State, maint: &mut Maintenance) {
    loop {
        if state.stopping() {
            maint.stop();
        }
        let pulls = maint.tick(state.now_ms());
        if pulls.is_empty() {
            return;
        }
        for pull in pulls {
            let left = Duration::from_millis(maint.until_ms().saturating_sub(state.now_ms()));
            let answer = state
                .peer(pull.from)
                .and_then(|peer| {
                    peer.call(maint.req_id(), &pull.request, 1, Deadline::within(left))
                })
                .ok();
            maint.absorb(pull, answer.map(|(resp, _)| resp));
        }
        state.follow_view();
    }
}

/// Every span retained for `req` across the cluster
/// ([`merge_spans`](client::merge_spans) of every peer's
/// [`Request::Trace`] answer, one read of them all, as a client reads
/// them). A faulty peer is skipped, and with no peer answering the
/// timeline is this process's alone — a partial timeline beats none.
fn cluster_spans(state: &Arc<State>, req: u64) -> Vec<SpanRecord> {
    let others = state.node.shards().other_members();
    let members = others.iter().map(|(id, addr)| (*id, addr.as_str()));
    let (budget, id, trace) =
        (state.cfg().timeouts.op_budget, state.node.next_id(), Request::Trace { req });
    let (now, deadline) = (|| state.now_ms(), Deadline::within(budget));
    let call = |c: Call<'_>| state.peers.call(c, deadline);
    let spans = ask(members, id, &trace, Rule::Every, client::spans, budget, None, now, call);
    client::merge_spans(req, spans.unwrap_or_default())
}

/// Ring spans served by `/debug/recent`, at most this many (the most
/// recent ones).
const RECENT_SPAN_LIMIT: usize = 256;

/// The `/debug/recent` payload: the installed recorder's most recent
/// ring spans, its pinned slow requests, and its counters. An empty
/// object shape (zero capacity) when no recorder is installed.
fn recent_json() -> String {
    use pls_telemetry::json::{array, Object};
    use pls_telemetry::recorder::spans_to_json;
    let Some(recorder) = pls_telemetry::recorder::installed() else {
        return Object::new().u64("capacity", 0).field("spans", "[]").field("pinned", "[]").build();
    };
    let ring = recorder.snapshot();
    let tail = ring.len().saturating_sub(RECENT_SPAN_LIMIT);
    let pinned = array(recorder.pinned().iter().map(|p| {
        Object::new().u64("req_id", p.req_id).field("spans", &spans_to_json(&p.spans)).build()
    }));
    Object::new()
        .u64("capacity", recorder.capacity() as u64)
        .u64("recorded", recorder.recorded.get())
        .u64("overwrites", recorder.overwrites.get())
        .u64("slow_threshold_us", recorder.slow_threshold_us())
        .field("spans", &spans_to_json(&ring[tail..]))
        .field("pinned", &pinned)
        .build()
}

fn serve_connection(state: &State, mut socket: &TcpStream) -> Result<(), ClusterError> {
    let metrics = state.node.metrics();
    while let Some((req_id, _, payload)) = read_frame(&mut socket)? {
        metrics.bytes_read.add(payload.len() as u64 + FRAME_OVERHEAD);
        let mut plan = state.node.serve(req_id, Request::decode(&payload), state.now_ms());
        let called = call_all(state, req_id, plan.retry, std::mem::take(&mut plan.calls));
        let (response, service_us) = state.node.answer(plan, called);
        state.follow_view();
        let frame = response.encode();
        metrics.bytes_written.add(frame.len() as u64 + FRAME_OVERHEAD);
        // Echo the request's id so the client can pair the response, and
        // stamp the reply frame with the server-side handling time so the
        // caller can split RTT into network versus service time.
        write_frame(&mut socket, req_id, service_us, &frame)?;
    }
    Ok(())
}

/// Makes a plan's calls in order, each with the request's id, under one
/// operation budget: however many peers and retries they touch, the
/// request is answered in bounded time. A `retry` call gets a second
/// attempt, which papers over a transient blip; a message to a crashed
/// peer is still dropped (the paper's failure model).
fn call_all(
    state: &State,
    req_id: u64,
    retry: bool,
    calls: Vec<(u64, Request)>,
) -> Result<(), ClusterError> {
    let cfg = state.cfg();
    let deadline = Deadline::within(cfg.timeouts.op_budget);
    let attempts = if retry { 2 } else { 1 };
    for (dest, req) in calls {
        if state.stopping() {
            // Killed mid-fan-out: the rest is lost with the process, and
            // nothing is fsynced or acked.
            return Err(ClusterError::NoServerAvailable);
        }
        // A recorded span per call, so a request's timeline shows how long
        // every peer took.
        let mut span = Span::enter_with_id(Level::Trace, module_path!(), "internal_send", req_id);
        span.field("server", cfg.me);
        span.field("peer", dest);
        let sent =
            state.peer(dest).and_then(|peer| peer.call(req_id, &req, attempts, deadline).map(drop));
        drop(span);
        state.node.delivered(req_id, dest, sent.err());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_core::StrategySpec;

    #[test]
    fn invalid_config_is_rejected_at_bind() {
        let cfg =
            ServerConfig::new(7, vec!["127.0.0.1:0".parse().unwrap()], StrategySpec::fixed(1), 0);
        assert!(matches!(Server::bind(cfg), Err(ClusterError::Config(_))));
        let cfg = ServerConfig::new(
            0,
            vec!["127.0.0.1:0".parse().unwrap(); 2],
            StrategySpec::fixed(0),
            0,
        );
        assert!(matches!(Server::bind(cfg), Err(ClusterError::Config(_))));
    }
}
