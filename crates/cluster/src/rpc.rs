//! Pooled per-peer RPC connections, and the one way to call a peer.
//!
//! Each [`PeerClient`] keeps a small pool of TCP connections to one peer.
//! [`PeerClient::call`] is the only exchange: an attempt count and a
//! deadline; each attempt, admitted by the peer's breaker, takes a
//! connection out of the pool (or dials a new one), performs a single
//! request/response exchange, and returns the connection. A
//! [`PeerBook`] holds one client per member and makes a member loop's
//! calls ([`PeerBook::call`]).
//!
//! Crucially, **no lock is held while a response is
//! waited for**: concurrent calls to the same peer simply use different
//! connections. A single mutually-exclusive connection would deadlock
//! the round-robin migration protocol, whose RPC graph contains cycles
//! (coordinator → holder → head server → holder). For the same reason
//! no caller may hold a lock of its own (shard core, membership, a live
//! gauge) across a call: a handler thread that blocks on a peer while
//! holding a shard lock is a distributed deadlock.
//!
//! Ordering: messages whose relative order matters (a coordinator's
//! `Reset` before its `RrStore`s, a head server's `MigrateRep` before its
//! `RrRemoveAt`) are sent *sequentially from one thread*, each answered
//! before the next is issued — so they are ordered by causality, not by
//! connection.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pls_core::Membership;
use pls_telemetry::{Counter, MetricsSnapshot};
use pls_wire::client::{Call, Outcome};
use pls_wire::error::ClusterError;
use pls_wire::proto::{Request, Response};
use pls_wire::retry::{self, Breaker, BreakerConfig, Deadline, Timeouts};

use crate::frame::{read_frame, write_frame};
use crate::sock::{timed_out, Bounded};

/// Connections kept per peer; extras beyond this are closed on return.
const POOL_SIZE: usize = 4;

/// The longest a dial may take, within the attempt's deadline.
const CONNECT: Duration = Duration::from_secs(1);

/// Pool accounting for one peer's connection pool: how connections are
/// obtained (fresh dial vs. pool reuse) and how they leave the pool
/// (discarded after an error, evicted over capacity). All counters are
/// relaxed atomics — no lock beyond the pool's own.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Fresh TCP dials attempted.
    pub dials: Counter,
    /// Dials that failed to connect.
    pub dial_failures: Counter,
    /// Calls served by a pooled connection.
    pub reuses: Counter,
    /// Connections dropped after an exchange error (never re-pooled).
    pub discarded: Counter,
    /// Healthy connections closed because the pool was full.
    pub evicted: Counter,
    /// Calls that ran out of time: a dial past the connect timeout or
    /// an exchange past its per-RPC deadline.
    pub timeouts: Counter,
    /// Attempts re-issued by a retrying call after a
    /// retryable failure.
    pub retries: Counter,
}

/// Performs one request/response exchange on an established stream,
/// every blocking call capped by `deadline`,
/// stamping the outgoing frame with `request_id`, and returns the
/// response together with the **service time** the server echoed in
/// the reply frame (microseconds the server spent handling the
/// request; zero from servers that don't stamp it). The response frame
/// must echo the same id — a mismatch means the stream is answering
/// some other request (desynchronized) and is a protocol error.
fn exchange_timed(
    stream: &TcpStream,
    deadline: Deadline,
    request_id: u64,
    req: &Request,
) -> Result<(Response, u64), ClusterError> {
    let mut stream = Bounded { stream, deadline };
    write_frame(&mut stream, request_id, 0, &req.encode())?;
    let (echoed_id, service_us, payload) = read_frame(&mut stream)?
        .ok_or_else(|| ClusterError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    if echoed_id != request_id {
        return Err(ClusterError::Decode("response id"));
    }
    Ok((Response::decode(&payload)?, service_us))
}

/// A lazily-connected pool of RPC connections to one peer address.
///
/// Every call is **time-bounded** ([`Timeouts`]): dials are capped by
/// [`CONNECT`], whole attempts by the per-RPC deadline. A
/// per-peer circuit [`Breaker`] tracks consecutive failures and
/// fast-fails calls against a peer that keeps timing out, so a
/// black-holed server costs one deadline per cooldown instead of one
/// per call.
#[derive(Debug)]
pub struct PeerClient {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
    stats: PoolStats,
    timeouts: Timeouts,
    breaker: Breaker,
}

impl PeerClient {
    /// Creates a client for `addr` with default time bounds and breaker
    /// tuning; no connection is made until the first call.
    #[cfg(test)]
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_policies(addr, Timeouts::default(), BreakerConfig::default())
    }

    /// Creates a client with explicit time bounds and breaker tuning.
    pub fn with_policies(addr: SocketAddr, timeouts: Timeouts, breaker: BreakerConfig) -> Self {
        PeerClient {
            addr,
            pool: Mutex::new(Vec::new()),
            stats: PoolStats::default(),
            timeouts,
            breaker: Breaker::new(breaker),
        }
    }

    /// This client's pool accounting.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Connections currently idle in the pool.
    #[cfg(test)]
    pub fn pooled(&self) -> usize {
        self.pool.lock().expect("pool lock").len()
    }

    fn take(&self) -> Option<TcpStream> {
        self.pool.lock().expect("pool lock").pop()
    }

    /// Returns a connection to the pool. Only ever called after a fully
    /// successful request/response exchange: a connection that saw any
    /// error is poisoned (its stream may be desynchronized mid-frame)
    /// and must be dropped, never re-pooled.
    fn put_back(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.len() < POOL_SIZE {
            pool.push(stream);
        } else {
            self.stats.evicted.inc();
        }
    }

    /// The one way to call a peer: sends `req` stamped with `request_id`
    /// and returns the response with the **service time** the server
    /// echoed in the reply frame (µs; zero from servers that don't stamp
    /// it). Up to `attempts` attempts, each capped by `deadline` and the
    /// per-RPC deadline and admitted by the peer's circuit breaker. An
    /// attempt that found the peer unavailable (I/O, timeout) is re-issued
    /// after a full-jitter backoff ([`retry::delay`]) while attempts and
    /// `deadline` last; a breaker fast-fail is *not* — the breaker exists
    /// to stop exactly that traffic.
    ///
    /// # Errors
    ///
    /// I/O errors (peer unreachable / connection torn mid-exchange);
    /// [`ClusterError::Timeout`] when the dial or the exchange runs out
    /// of time (`"op-budget"` when `deadline` had passed before an
    /// attempt); [`ClusterError::PeerUnhealthy`] when the breaker is
    /// open; decode errors (including a response whose frame id does
    /// not echo `request_id`); any [`Response::Error`] is surfaced as
    /// [`ClusterError::Remote`].
    pub fn call(
        &self,
        request_id: u64,
        req: &Request,
        attempts: u32,
        deadline: Deadline,
    ) -> Result<(Response, u64), ClusterError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let limit = deadline.cap(self.timeouts.rpc);
            if limit.is_zero() {
                // The operation's budget is already spent.
                return Err(ClusterError::Timeout("op-budget"));
            }
            if !self.breaker.admit() {
                return Err(ClusterError::PeerUnhealthy);
            }
            let result = self.call_once(request_id, req, Deadline::within(limit));
            match &result {
                // A well-formed reply — even an application-level error —
                // proves the peer alive; anything else feeds its breaker.
                Ok(_) | Err(ClusterError::Remote(_)) => self.breaker.record_success(),
                Err(_) => self.breaker.record_failure(),
            }
            match result {
                Err(err) if err.is_unavailable() && attempt < attempts && !deadline.expired() => {
                    self.stats.retries.inc();
                    pls_telemetry::debug!(
                        "rpc_retry",
                        req = request_id,
                        addr = self.addr,
                        attempt = attempt,
                        err = err
                    );
                    let seed = request_id ^ u64::from(attempt);
                    std::thread::sleep(deadline.cap(retry::delay(attempt, seed)));
                }
                result => return result,
            }
        }
    }

    /// One attempt on a pooled or fresh connection, every blocking call
    /// of it capped by `deadline`. A stale pooled connection is retried
    /// once with a fresh dial; a connection that errors in any way is
    /// discarded, never returned to the pool.
    fn call_once(
        &self,
        request_id: u64,
        req: &Request,
        deadline: Deadline,
    ) -> Result<(Response, u64), ClusterError> {
        let mut pooled = self.take();
        loop {
            let reused = pooled.is_some();
            let stream = match pooled.take() {
                Some(stream) => {
                    self.stats.reuses.inc();
                    stream
                }
                None => self.dial(request_id, deadline)?,
            };
            match exchange_timed(&stream, deadline, request_id, req) {
                Ok((resp, service_us)) => {
                    self.put_back(stream);
                    return match resp {
                        Response::Error(msg) => Err(ClusterError::Remote(msg)),
                        resp => Ok((resp, service_us)),
                    };
                }
                Err(ClusterError::Io(e)) if timed_out(&e) => {
                    return Err(self.ran_out("rpc", request_id));
                }
                // A stale pooled connection: drop it and go round once
                // more, on a fresh dial. Anything else ends the attempt
                // (after a protocol violation the stream may be
                // desynchronized: dropped, not re-pooled).
                Err(err) => {
                    self.stats.discarded.inc();
                    if !(reused && matches!(err, ClusterError::Io(_))) {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Dials the peer within [`CONNECT`] and `deadline`.
    fn dial(&self, request_id: u64, deadline: Deadline) -> Result<TcpStream, ClusterError> {
        self.stats.dials.inc();
        pls_telemetry::event!(
            pls_telemetry::Level::Trace,
            "peer_dial",
            req = request_id,
            addr = self.addr
        );
        let limit = deadline.cap(CONNECT);
        if limit.is_zero() {
            return Err(self.ran_out("rpc", request_id));
        }
        let stream = TcpStream::connect_timeout(&self.addr, limit).map_err(|e| {
            self.stats.dial_failures.inc();
            if !timed_out(&e) {
                return e.into();
            }
            // Whichever bound was the tighter one ran out.
            self.ran_out(if limit == CONNECT { "connect" } else { "rpc" }, request_id)
        })?;
        // Request/response over Nagle + delayed ACK stalls for 40 ms.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Books a call that ran out of time in `phase`. Its connection may
    /// still answer later: the caller drops it, never re-pools it.
    fn ran_out(&self, phase: &'static str, request_id: u64) -> ClusterError {
        self.stats.timeouts.inc();
        pls_telemetry::debug!("rpc_timeout", req = request_id, addr = self.addr, phase = phase);
        ClusterError::Timeout(phase)
    }
}

/// The robustness totals of a set of peer clients: dial failures, RPC
/// timeouts and retries (from [`PoolStats`]) and circuit breaker opens /
/// fast-fails. A book that drops a client because its member left or its
/// id was re-addressed [`absorb`](Robustness::absorb)s it first, so the
/// exported `_total`s never go backwards. Used by both the server's
/// metrics collection and the client's snapshot, so
/// `pls_rpc_timeouts_total` means the same thing everywhere.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Robustness {
    pub dial_failures: u64,
    timeouts: u64,
    retries: u64,
    opens: u64,
    fast_fails: u64,
}

impl Robustness {
    /// Adds one client's totals.
    fn absorb(&mut self, peer: &PeerClient) {
        self.dial_failures += peer.stats().dial_failures.get();
        self.timeouts += peer.stats().timeouts.get();
        self.retries += peer.stats().retries.get();
        self.opens += peer.breaker.opens.get();
        self.fast_fails += peer.breaker.fast_fails.get();
    }

    /// Appends the totals every process exports to a snapshot (the dial
    /// failures are the client's alone).
    fn push(self, s: &mut MetricsSnapshot) {
        s.push_counter("pls_rpc_timeouts_total", self.timeouts);
        s.push_counter("pls_rpc_retries_total", self.retries);
        s.push_counter("pls_breaker_opens_total", self.opens);
        s.push_counter("pls_breaker_fast_fails_total", self.fast_fails);
    }
}

/// Per-member RPC clients, keyed by *member id*: created on first use
/// from the membership's dial address, dropped — breaker streaks,
/// half-open trials and all — when the member leaves. The drop is the
/// point: a departed server must stop consuming retry budget and
/// half-open trials forever (and a later rejoin under the same id
/// starts with a clean slate). The servers and the client library keep
/// one each.
#[derive(Debug)]
pub(crate) struct PeerBook {
    timeouts: Timeouts,
    breaker: BreakerConfig,
    inner: Mutex<Book>,
}

#[derive(Debug, Default)]
struct Book {
    clients: HashMap<u64, Arc<PeerClient>>,
    /// What the dropped clients had counted.
    retired: Robustness,
}

impl PeerBook {
    pub fn new(timeouts: Timeouts, breaker: BreakerConfig) -> Self {
        PeerBook { timeouts, breaker, inner: Mutex::default() }
    }

    /// The client for member `id` dialing `addr`, created on demand. A
    /// client whose recorded address no longer matches (the id was
    /// reallocated to a different server) is replaced wholesale.
    pub fn client(&self, id: u64, addr: &str) -> Option<Arc<PeerClient>> {
        let sockaddr: SocketAddr = addr.parse().ok()?;
        let mut book = self.inner.lock().expect("peer book lock");
        if let Some(existing) = book.clients.get(&id) {
            if existing.addr == sockaddr {
                return Some(Arc::clone(existing));
            }
        }
        let fresh = Arc::new(PeerClient::with_policies(sockaddr, self.timeouts, self.breaker));
        if let Some(replaced) = book.clients.insert(id, Arc::clone(&fresh)) {
            book.retired.absorb(&replaced);
        }
        Some(fresh)
    }

    /// Whether member `id` looks healthy; one never dialed does.
    pub fn healthy(&self, id: u64) -> bool {
        let book = self.inner.lock().expect("peer book lock");
        book.clients.get(&id).is_none_or(|p| p.breaker.healthy())
    }

    /// Drops every client whose member left `view`, purging its breaker
    /// and failure-streak state with it. Returns how many were purged.
    pub fn prune(&self, view: &Membership) -> usize {
        let mut book = self.inner.lock().expect("peer book lock");
        let Book { clients, retired } = &mut *book;
        let before = clients.len();
        clients.retain(|id, client| {
            let stays = view.contains(*id);
            if !stays {
                retired.absorb(client);
            }
            stays
        });
        before - clients.len()
    }

    /// The robustness totals of every client this book ever held.
    pub fn totals(&self) -> Robustness {
        let book = self.inner.lock().expect("peer book lock");
        let mut totals = book.retired;
        book.clients.values().for_each(|peer| totals.absorb(peer));
        totals
    }

    /// Appends the robustness totals of every client this book ever
    /// held to a metrics snapshot.
    pub fn push_robustness(&self, s: &mut MetricsSnapshot) {
        self.totals().push(s);
    }

    /// Makes one call of a member loop ([`pls_wire::client::ask`]) within
    /// `deadline`, the loop's budget. An address that does not parse is
    /// the member's fault, as an unreachable one is.
    pub fn call(&self, call: Call<'_>, deadline: Deadline) -> Outcome {
        match self.client(call.member, call.addr) {
            Some(peer) => peer.call(call.req_id, &call.request, call.attempts, deadline),
            None => Err(ClusterError::Io(std::io::ErrorKind::NotConnected.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::Acceptor;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// A toy server on an ephemeral port running `serve` on a thread per
    /// connection; dropping the handle shuts its sockets down and joins.
    fn spawn_server(serve: impl Fn(&TcpStream) + Send + Sync + 'static) -> (SocketAddr, Acceptor) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (addr, Acceptor::spawn(listener, addr, usize::MAX, serve, |_| {}))
    }

    /// Answers one request on `sock` with `resp` and `service_us`,
    /// echoing the id; `false` once the connection is gone.
    fn answer_one(sock: &mut &TcpStream, resp: &Response, service_us: u64) -> bool {
        let Ok(Some((id, _, _))) = read_frame(sock) else { return false };
        write_frame(sock, id, service_us, &resp.encode()).is_ok()
    }

    /// One attempt under a generous operation budget: the per-RPC
    /// deadline is the only bound that bites.
    fn one_call(client: &PeerClient, id: u64, req: &Request) -> Result<Response, ClusterError> {
        let deadline = Deadline::within(Duration::from_secs(30));
        client.call(id, req, 1, deadline).map(|(resp, _)| resp)
    }

    /// A toy server answering every request with `Ok`, echoing ids.
    fn spawn_ok_server() -> (SocketAddr, Acceptor) {
        spawn_server(|mut sock| while answer_one(&mut sock, &Response::Ok, 0) {})
    }

    /// A server that closes each connection after one exchange.
    fn spawn_one_shot_server() -> (SocketAddr, Acceptor) {
        spawn_server(|mut sock| {
            answer_one(&mut sock, &Response::Ok, 0);
        })
    }

    /// A (very likely) dead port: bound, then dropped.
    fn dead_port() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
    }

    #[test]
    fn call_roundtrip_and_reuse() {
        let (addr, _server) = spawn_ok_server();
        let client = PeerClient::new(addr);
        for id in 0..5 {
            let resp = one_call(&client, id, &Request::Status).unwrap();
            assert_eq!(resp, Response::Ok);
        }
        // The pool holds the reused connection.
        assert_eq!(client.pooled(), 1);
        // One dial, four pool reuses, nothing discarded.
        assert_eq!(client.stats().dials.get(), 1);
        assert_eq!(client.stats().reuses.get(), 4);
        assert_eq!(client.stats().discarded.get(), 0);
        assert_eq!(client.stats().dial_failures.get(), 0);
    }

    #[test]
    fn concurrent_calls_use_separate_connections() {
        let (addr, _server) = spawn_ok_server();
        let client = PeerClient::new(addr);
        std::thread::scope(|s| {
            let client = &client;
            let calls: Vec<_> =
                (0..8).map(|id| s.spawn(move || one_call(client, id, &Request::Status))).collect();
            for c in calls {
                assert_eq!(c.join().unwrap().unwrap(), Response::Ok);
            }
        });
        // Pool is capped.
        assert!(client.pool.lock().unwrap().len() <= POOL_SIZE);
    }

    #[test]
    fn call_timed_surfaces_echoed_service_time() {
        let (addr, _server) = spawn_server(|mut sock| {
            answer_one(&mut sock, &Response::Ok, 4321);
        });
        let client = PeerClient::new(addr);
        let (resp, service_us) =
            client.call(1, &Request::Status, 1, Deadline::within(Duration::from_secs(2))).unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(service_us, 4321);
    }

    #[test]
    fn remote_error_is_surfaced() {
        let (addr, _server) = spawn_server(|mut sock| {
            answer_one(&mut sock, &Response::Error("nope".into()), 0);
        });
        let client = PeerClient::new(addr);
        let err = one_call(&client, 1, &Request::Status).unwrap_err();
        assert_eq!(err, ClusterError::Remote("nope".into()));
    }

    #[test]
    fn unsupported_refusal_keeps_connection_and_breaker_healthy() {
        // A server that does not take opcode 0x0D answers it with the
        // error frame of a decode failure and everything else normally,
        // all on the same connection.
        let refusal = ClusterError::Decode("request opcode").to_string();
        let refused = refusal.clone();
        let (addr, _server) = spawn_server(move |mut sock| {
            while let Ok(Some((id, _, payload))) = read_frame(&mut sock) {
                let resp = if payload.first() == Some(&0x0D) {
                    Response::Error(refused.clone())
                } else {
                    Response::Ok
                };
                if write_frame(&mut sock, id, 0, &resp.encode()).is_err() {
                    return;
                }
            }
        });
        let client = PeerClient::new(addr);
        // A membership fetch against it: the refusal is a remote error.
        let err = one_call(&client, 9, &Request::Membership(Membership::empty())).unwrap_err();
        assert_eq!(err, ClusterError::Remote(refusal));
        // The exchange completed cleanly, so the connection went back to
        // the pool (not poisoned) and the breaker saw proof of life.
        assert_eq!(client.pooled(), 1);
        assert_eq!(client.stats().discarded.get(), 0);
        assert!(client.breaker.healthy());
        // The very same connection keeps serving ordinary requests.
        assert_eq!(one_call(&client, 10, &Request::Status).unwrap(), Response::Ok);
        assert_eq!(client.stats().dials.get(), 1);
        assert_eq!(client.stats().reuses.get(), 1);
    }

    #[test]
    fn reconnects_after_peer_drops_connection() {
        let (addr, _server) = spawn_one_shot_server();
        let client = PeerClient::new(addr);
        assert_eq!(one_call(&client, 1, &Request::Status).unwrap(), Response::Ok);
        assert_eq!(one_call(&client, 2, &Request::Status).unwrap(), Response::Ok);
    }

    #[test]
    fn unreachable_peer_errors() {
        let client = PeerClient::new(dead_port());
        assert!(matches!(one_call(&client, 1, &Request::Status), Err(ClusterError::Io(_))));
    }

    #[test]
    fn garbage_response_is_decode_error() {
        let (addr, _server) = spawn_server(|mut sock| {
            let mut buf = [0u8; 64];
            let _ = sock.read(&mut buf);
            // A valid frame echoing id 7, with an invalid opcode.
            write_frame(&mut sock, 7, 0, &[0x33]).unwrap();
        });
        let client = PeerClient::new(addr);
        assert!(matches!(one_call(&client, 7, &Request::Status), Err(ClusterError::Decode(_))));
        // The desynchronized connection is poisoned: dropped, not
        // returned to the pool.
        assert_eq!(client.pooled(), 0);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[test]
    fn mismatched_response_id_is_rejected_and_poisons_connection() {
        let (addr, _server) = spawn_server(|mut sock| {
            let _ = read_frame(&mut sock);
            // Answer with a valid `Ok` frame stamped with the wrong id.
            write_frame(&mut sock, 999, 0, &Response::Ok.encode()).unwrap();
        });
        let client = PeerClient::new(addr);
        let err = one_call(&client, 5, &Request::Status).unwrap_err();
        assert_eq!(err, ClusterError::Decode("response id"));
        assert_eq!(client.pooled(), 0);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[test]
    fn stale_pooled_connection_is_discarded_and_redialed() {
        // The second call finds a dead pooled connection, discards it,
        // and succeeds on a fresh dial.
        let (addr, _server) = spawn_one_shot_server();
        let client = PeerClient::new(addr);
        assert_eq!(one_call(&client, 1, &Request::Status).unwrap(), Response::Ok);
        assert_eq!(one_call(&client, 2, &Request::Status).unwrap(), Response::Ok);
        assert_eq!(client.stats().dials.get(), 2);
        assert_eq!(client.stats().reuses.get(), 1);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[test]
    fn failed_dial_is_counted() {
        let client = PeerClient::new(dead_port());
        assert!(one_call(&client, 1, &Request::Status).is_err());
        assert_eq!(client.stats().dials.get(), 1);
        assert_eq!(client.stats().dial_failures.get(), 1);
        assert_eq!(client.pooled(), 0);
    }

    #[test]
    fn pool_eviction_over_capacity_is_counted() {
        let (addr, _server) = spawn_ok_server();
        let client = PeerClient::new(addr);
        // Far more concurrent calls than POOL_SIZE: every call dials (the
        // pool starts empty and all calls are in flight together), and
        // only POOL_SIZE connections fit back.
        let barrier = std::sync::Barrier::new(POOL_SIZE * 3);
        std::thread::scope(|s| {
            let (client, barrier) = (&client, &barrier);
            let calls: Vec<_> = (0..(POOL_SIZE * 3) as u64)
                .map(|id| {
                    s.spawn(move || {
                        barrier.wait();
                        one_call(client, id, &Request::Status)
                    })
                })
                .collect();
            for c in calls {
                assert_eq!(c.join().unwrap().unwrap(), Response::Ok);
            }
        });
        assert!(client.pooled() <= POOL_SIZE);
        let s = client.stats();
        assert_eq!(s.dials.get() + s.reuses.get(), (POOL_SIZE * 3) as u64);
        // Every healthy connection either sits in the pool or was
        // evicted over capacity.
        assert_eq!(s.dials.get(), client.pooled() as u64 + s.evicted.get());
    }

    /// A black hole: accepts TCP, reads forever, never replies.
    fn spawn_black_hole() -> (SocketAddr, Acceptor) {
        spawn_server(|mut sock| {
            let mut buf = [0u8; 1024];
            while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
        })
    }

    fn tight_timeouts() -> Timeouts {
        Timeouts { rpc: Duration::from_millis(50), op_budget: Duration::from_millis(500) }
    }

    #[test]
    fn black_holed_peer_times_out_within_deadline() {
        let (addr, _server) = spawn_black_hole();
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let started = Instant::now();
        let err = one_call(&client, 1, &Request::Status).unwrap_err();
        assert_eq!(err, ClusterError::Timeout("rpc"));
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(client.stats().timeouts.get(), 1);
        // The half-sent connection was dropped, never pooled.
        assert_eq!(client.pooled(), 0);
    }

    #[test]
    fn a_trickling_peer_cannot_stretch_a_call_past_its_limit() {
        // One byte of a valid reply every tick: each read succeeds long
        // before any per-read timeout, so only a deadline re-armed
        // before every read ends the call on time (the whole reply
        // would take 20+ ticks).
        const TICK: Duration = Duration::from_millis(50);
        let (addr, _server) = spawn_server(|mut sock| {
            let Ok(Some((id, _, _))) = read_frame(&mut sock) else { return };
            let mut reply = Vec::new();
            write_frame(&mut reply, id, 0, &Response::Ok.encode()).unwrap();
            for byte in reply {
                if sock.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(TICK);
            }
        });
        let client = PeerClient::new(addr);
        let limit = Duration::from_millis(200);
        let started = Instant::now();
        let err = client.call(1, &Request::Status, 1, Deadline::within(limit)).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, ClusterError::Timeout("rpc"));
        assert!(elapsed >= limit, "gave up early: {elapsed:?}");
        assert!(elapsed < limit + TICK, "held for {elapsed:?}, limit {limit:?}");
        assert_eq!(client.stats().timeouts.get(), 1);
        assert_eq!(client.pooled(), 0);
    }

    #[test]
    fn breaker_fast_fails_after_consecutive_timeouts() {
        let (addr, _server) = spawn_black_hole();
        let cfg = BreakerConfig { failure_threshold: 3, cooldown: Duration::from_secs(30) };
        let client = PeerClient::with_policies(addr, tight_timeouts(), cfg);
        for id in 0..3 {
            assert_eq!(
                one_call(&client, id, &Request::Status).unwrap_err(),
                ClusterError::Timeout("rpc")
            );
        }
        assert_eq!(client.breaker.opens.get(), 1);
        assert!(!client.breaker.healthy());
        // The fourth call never touches the network.
        let started = Instant::now();
        let err = one_call(&client, 99, &Request::Status).unwrap_err();
        assert_eq!(err, ClusterError::PeerUnhealthy);
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(client.stats().timeouts.get(), 3);
        assert!(client.breaker.fast_fails.get() >= 1);
    }

    #[test]
    fn call_retries_with_backoff_then_gives_up() {
        // Unreachable port: every attempt fails fast with ECONNREFUSED.
        let client =
            PeerClient::with_policies(dead_port(), tight_timeouts(), BreakerConfig::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let err = client.call(7, &Request::Status, 3, deadline).unwrap_err();
        assert!(matches!(err, ClusterError::Io(_)), "{err}");
        assert_eq!(client.stats().dials.get(), 3);
        assert_eq!(client.stats().retries.get(), 2);
    }

    #[test]
    fn call_succeeds_after_transient_failure() {
        // The first connection is dropped on sight (the client sees
        // EOF); the retry lands on a healthy accept.
        let accepted = Arc::new(AtomicUsize::new(0));
        let (addr, _server) = spawn_server(move |mut sock| {
            if accepted.fetch_add(1, Ordering::SeqCst) > 0 {
                answer_one(&mut sock, &Response::Ok, 0);
            }
        });
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let (resp, _) = client.call(7, &Request::Status, 3, deadline).unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(client.stats().retries.get(), 1);
    }

    #[test]
    fn exhausted_deadline_fails_without_touching_network() {
        let (addr, _server) = spawn_black_hole();
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let err =
            client.call(1, &Request::Status, 1, Deadline::within(Duration::ZERO)).unwrap_err();
        assert_eq!(err, ClusterError::Timeout("op-budget"));
        assert_eq!(client.stats().dials.get(), 0);
    }

    #[test]
    fn robustness_totals_are_summed_across_peers() {
        let book = PeerBook::new(Timeouts::default(), BreakerConfig::default());
        let a = book.client(0, "127.0.0.1:1").unwrap();
        let b = book.client(1, "127.0.0.1:2").unwrap();
        let c = book.client(2, "127.0.0.1:3").unwrap();
        a.stats().timeouts.add(2);
        b.stats().timeouts.add(3);
        b.stats().retries.inc();
        a.breaker.opens.inc();
        b.breaker.fast_fails.add(4);
        for (peer, failed) in [(&a, 1), (&b, 2), (&c, 4)] {
            peer.stats().dial_failures.add(failed);
        }
        // A client dropped from its book keeps counting: member 0 leaves,
        // and id 2 is re-addressed to another server.
        let view = Membership::from_parts(2, vec![(1, "127.0.0.1:2".into()), (2, "x".into())]);
        assert_eq!(book.prune(&view), 1);
        assert!(!Arc::ptr_eq(&c, &book.client(2, "127.0.0.1:4").unwrap()));
        let mut s = MetricsSnapshot::new();
        book.push_robustness(&mut s);
        assert_eq!(s.counter("pls_rpc_timeouts_total"), Some(5));
        assert_eq!(s.counter("pls_rpc_retries_total"), Some(1));
        assert_eq!(s.counter("pls_breaker_opens_total"), Some(1));
        assert_eq!(s.counter("pls_breaker_fast_fails_total"), Some(4));
        assert_eq!(book.totals().dial_failures, 7);
    }
}
