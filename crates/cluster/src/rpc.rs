//! Pooled per-peer RPC connections.
//!
//! Each [`PeerClient`] keeps a small pool of TCP connections to one peer.
//! A call takes a connection out of the pool (or dials a new one),
//! performs a single request/response exchange, and returns the
//! connection. Crucially, **no lock is held while a response is
//! awaited**: concurrent calls to the same peer simply use different
//! connections. A single mutually-exclusive connection would deadlock
//! the round-robin migration protocol, whose RPC graph contains cycles
//! (coordinator → holder → head server → holder).
//!
//! Ordering: messages whose relative order matters (a coordinator's
//! `Reset` before its `RrStore`s, a head server's `MigrateRep` before its
//! `RrRemoveAt`) are sent *sequentially from one task*, each awaited
//! before the next is issued — so they are ordered by causality, not by
//! connection.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use pls_telemetry::{Counter, MetricsSnapshot};
use tokio::net::TcpStream;

use crate::error::ClusterError;
use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, Response};
use crate::retry::{Breaker, BreakerConfig, Deadline, RetryPolicy, Timeouts};

/// Connections kept per peer; extras beyond this are closed on return.
const POOL_SIZE: usize = 4;

/// Pool accounting for one [`PeerClient`]: how connections are
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
    /// Attempts re-issued by [`PeerClient::call_retry`] after a
    /// retryable failure.
    pub retries: Counter,
}

/// Performs one request/response exchange on an established stream,
/// stamping the outgoing frame with `request_id`, and returns the
/// response together with the **service time** the server echoed in
/// the reply frame (microseconds the server spent handling the
/// request; zero from servers that don't stamp it). The response frame
/// must echo the same id — a mismatch means the stream is answering
/// some other request (desynchronized) and is a protocol error.
pub async fn exchange_timed(
    stream: &mut TcpStream,
    request_id: u64,
    req: &Request,
) -> Result<(Response, u64), ClusterError> {
    write_frame(stream, request_id, 0, &req.encode()).await?;
    let (echoed_id, service_us, payload) = read_frame(stream)
        .await?
        .ok_or_else(|| ClusterError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    if echoed_id != request_id {
        return Err(ClusterError::Decode("response id"));
    }
    Ok((Response::decode(&payload)?, service_us))
}

/// A lazily-connected pool of RPC connections to one peer address.
///
/// Every call is **time-bounded** ([`Timeouts`]): dials are capped by
/// the connect timeout, whole attempts by the per-RPC deadline. A
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

    /// The peer's address.
    #[allow(dead_code)] // kept for diagnostics
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This client's pool accounting.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// This client's circuit breaker.
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// This client's time bounds.
    pub fn timeouts(&self) -> &Timeouts {
        &self.timeouts
    }

    /// Whether the peer currently looks healthy (no failure streak, no
    /// open circuit). Probe orders sort unhealthy peers to the tail.
    pub fn healthy(&self) -> bool {
        self.breaker.healthy()
    }

    /// Forgets this peer's accumulated health state: the breaker closes
    /// and the failure streak clears, so probe orders stop demoting it.
    /// Called when membership changes re-scope the peer — a departed
    /// server must stop consuming half-open trials and retry budget,
    /// and a rejoining one starts with a clean slate. (Pooled
    /// connections are left alone; a stale one is discarded and
    /// redialed on its next use anyway.)
    pub fn reset_health(&self) {
        self.breaker.reset();
    }

    /// Connections currently idle in the pool.
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

    /// Sends `req` stamped with `request_id` and awaits the response,
    /// bounded by the configured per-RPC deadline and guarded by the
    /// peer's circuit breaker.
    ///
    /// # Errors
    ///
    /// I/O errors (peer unreachable / connection torn mid-exchange);
    /// [`ClusterError::Timeout`] when the dial or the exchange runs out
    /// of time; [`ClusterError::PeerUnhealthy`] when the breaker is
    /// open; decode errors (including a response whose frame id does
    /// not echo `request_id`); any [`Response::Error`] is surfaced as
    /// [`ClusterError::Remote`].
    pub async fn call(&self, request_id: u64, req: &Request) -> Result<Response, ClusterError> {
        self.call_bounded(request_id, req, self.timeouts.rpc).await
    }

    /// [`PeerClient::call`], also returning the service time the peer
    /// echoed in its reply frame (microseconds of server-side work).
    pub async fn call_timed(
        &self,
        request_id: u64,
        req: &Request,
    ) -> Result<(Response, u64), ClusterError> {
        self.call_bounded_timed(request_id, req, self.timeouts.rpc).await
    }

    /// [`PeerClient::call`] with an explicit attempt deadline — the
    /// per-RPC deadline already capped to an operation's remaining
    /// budget by the caller.
    pub async fn call_bounded(
        &self,
        request_id: u64,
        req: &Request,
        limit: Duration,
    ) -> Result<Response, ClusterError> {
        Ok(self.call_bounded_timed(request_id, req, limit).await?.0)
    }

    /// [`PeerClient::call_bounded`], also returning the echoed service
    /// time from the reply frame.
    pub async fn call_bounded_timed(
        &self,
        request_id: u64,
        req: &Request,
        limit: Duration,
    ) -> Result<(Response, u64), ClusterError> {
        if limit.is_zero() {
            // The operation's budget is already spent.
            return Err(ClusterError::Timeout("op-budget"));
        }
        if !self.breaker.admit() {
            return Err(ClusterError::PeerUnhealthy);
        }
        let result = match tokio::time::timeout(limit, self.call_once(request_id, req)).await {
            Ok(res) => res,
            Err(_elapsed) => {
                // The in-flight connection was dropped with the future:
                // it may still answer later and must never be re-pooled.
                self.stats.timeouts.inc();
                pls_telemetry::debug!(
                    "rpc_timeout",
                    req = request_id,
                    addr = self.addr,
                    limit_ms = limit.as_millis()
                );
                Err(ClusterError::Timeout("rpc"))
            }
        };
        match &result {
            // A well-formed reply — even an application-level error or
            // an "I don't implement that opcode" refusal — proves the
            // peer alive; anything else feeds its breaker.
            Ok(_) | Err(ClusterError::Remote(_)) | Err(ClusterError::Unsupported(_)) => {
                self.breaker.record_success()
            }
            Err(_) => self.breaker.record_failure(),
        }
        result
    }

    /// [`PeerClient::call_bounded`] with bounded, jittered retries:
    /// attempts are re-issued on unavailability errors (I/O, timeout)
    /// until `policy.max_attempts` or `deadline` runs out, sleeping a
    /// full-jitter backoff between attempts. A breaker fast-fail is
    /// *not* retried — the breaker exists to stop exactly that traffic.
    pub async fn call_retry(
        &self,
        request_id: u64,
        req: &Request,
        policy: &RetryPolicy,
        deadline: Deadline,
    ) -> Result<Response, ClusterError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let limit = deadline.cap(self.timeouts.rpc);
            match self.call_bounded(request_id, req, limit).await {
                Ok(resp) => return Ok(resp),
                Err(err)
                    if err.is_unavailable()
                        && !matches!(err, ClusterError::PeerUnhealthy)
                        && attempt < policy.max_attempts
                        && !deadline.expired() =>
                {
                    self.stats.retries.inc();
                    pls_telemetry::debug!(
                        "rpc_retry",
                        req = request_id,
                        addr = self.addr,
                        attempt = attempt,
                        err = err
                    );
                    let pause =
                        deadline.cap(policy.delay(attempt, request_id ^ u64::from(attempt)));
                    tokio::time::sleep(pause).await;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// One attempt on a pooled or fresh connection. A stale pooled
    /// connection is retried once with a fresh dial; a connection that
    /// errors in any way is discarded, never returned to the pool.
    async fn call_once(
        &self,
        request_id: u64,
        req: &Request,
    ) -> Result<(Response, u64), ClusterError> {
        if let Some(mut stream) = self.take() {
            self.stats.reuses.inc();
            match exchange_timed(&mut stream, request_id, req).await {
                Ok(resp) => {
                    self.put_back(stream);
                    return ok_or_remote(resp);
                }
                Err(ClusterError::Io(_)) => {
                    // Stale pooled connection: drop it and retry once on
                    // a fresh dial.
                    self.stats.discarded.inc();
                }
                Err(other) => {
                    // Protocol violation mid-exchange: the stream may be
                    // desynchronized — poison it (drop, don't re-pool).
                    self.stats.discarded.inc();
                    return Err(other);
                }
            }
        }
        self.stats.dials.inc();
        pls_telemetry::event!(
            pls_telemetry::Level::Trace,
            "peer_dial",
            req = request_id,
            addr = self.addr
        );
        let dialed = tokio::time::timeout(self.timeouts.connect, TcpStream::connect(self.addr));
        let mut stream = match dialed.await {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => {
                self.stats.dial_failures.inc();
                return Err(e.into());
            }
            Err(_elapsed) => {
                self.stats.dial_failures.inc();
                self.stats.timeouts.inc();
                return Err(ClusterError::Timeout("connect"));
            }
        };
        match exchange_timed(&mut stream, request_id, req).await {
            Ok(resp) => {
                self.put_back(stream);
                ok_or_remote(resp)
            }
            Err(err) => {
                self.stats.discarded.inc();
                Err(err)
            }
        }
    }
}

/// The error-frame prefix an older server uses to refuse an opcode it
/// does not implement (see `serve_connection`); recognized here so the
/// caller gets a typed [`ClusterError::Unsupported`] back instead of a
/// generic remote error.
pub(crate) const UNSUPPORTED_PREFIX: &str = "unsupported request opcode ";

fn ok_or_remote((resp, service_us): (Response, u64)) -> Result<(Response, u64), ClusterError> {
    match resp {
        Response::Error(msg) => {
            if let Some(op) = msg
                .strip_prefix(UNSUPPORTED_PREFIX)
                .and_then(|rest| rest.strip_prefix("0x"))
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            {
                return Err(ClusterError::Unsupported(op));
            }
            Err(ClusterError::Remote(msg))
        }
        other => Ok((other, service_us)),
    }
}

/// Appends the robustness totals of a set of peer clients to a metrics
/// snapshot: RPC timeouts and retries (from [`PoolStats`]) and circuit
/// breaker opens / fast-fails, summed over every peer. Used by both the
/// server's metrics collection and the client's snapshot, so
/// `pls_rpc_timeouts_total` means the same thing everywhere.
pub(crate) fn push_peer_robustness<'a>(
    s: &mut MetricsSnapshot,
    peers: impl IntoIterator<Item = &'a PeerClient>,
) {
    let (mut timeouts, mut retries, mut opens, mut fast_fails) = (0u64, 0u64, 0u64, 0u64);
    for peer in peers {
        timeouts += peer.stats().timeouts.get();
        retries += peer.stats().retries.get();
        opens += peer.breaker().opens.get();
        fast_fails += peer.breaker().fast_fails.get();
    }
    s.push_counter("pls_rpc_timeouts_total", timeouts);
    s.push_counter("pls_rpc_retries_total", retries);
    s.push_counter("pls_breaker_opens_total", opens);
    s.push_counter("pls_breaker_fast_fails_total", fast_fails);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::AsyncReadExt;
    use tokio::net::TcpListener;

    /// A toy server answering every request with `Ok`, echoing ids.
    async fn spawn_ok_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            loop {
                let (mut sock, _) = match listener.accept().await {
                    Ok(x) => x,
                    Err(_) => return,
                };
                tokio::spawn(async move {
                    while let Ok(Some((id, _, payload))) = read_frame(&mut sock).await {
                        let _ = Request::decode(&payload);
                        if write_frame(&mut sock, id, 0, &Response::Ok.encode()).await.is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[tokio::test]
    async fn call_roundtrip_and_reuse() {
        let addr = spawn_ok_server().await;
        let client = PeerClient::new(addr);
        for id in 0..5 {
            let resp = client.call(id, &Request::Status).await.unwrap();
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

    #[tokio::test]
    async fn concurrent_calls_use_separate_connections() {
        let addr = spawn_ok_server().await;
        let client = std::sync::Arc::new(PeerClient::new(addr));
        let mut tasks = Vec::new();
        for id in 0..8 {
            let c = std::sync::Arc::clone(&client);
            tasks.push(tokio::spawn(async move { c.call(id, &Request::Status).await }));
        }
        for t in tasks {
            assert_eq!(t.await.unwrap().unwrap(), Response::Ok);
        }
        // Pool is capped.
        assert!(client.pool.lock().unwrap().len() <= POOL_SIZE);
    }

    #[tokio::test]
    async fn call_timed_surfaces_echoed_service_time() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            let (id, _, _) = read_frame(&mut sock).await.unwrap().unwrap();
            write_frame(&mut sock, id, 4321, &Response::Ok.encode()).await.unwrap();
        });
        let client = PeerClient::new(addr);
        let (resp, service_us) = client.call_timed(1, &Request::Status).await.unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(service_us, 4321);
    }

    #[tokio::test]
    async fn remote_error_is_surfaced() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            let (id, _, _) = read_frame(&mut sock).await.unwrap().unwrap();
            write_frame(&mut sock, id, 0, &Response::Error("nope".into()).encode()).await.unwrap();
        });
        let client = PeerClient::new(addr);
        let err = client.call(1, &Request::Status).await.unwrap_err();
        assert_eq!(err, ClusterError::Remote("nope".into()));
    }

    #[tokio::test]
    async fn unsupported_refusal_keeps_connection_and_breaker_healthy() {
        // An "old server" that predates the membership RPCs: any frame
        // carrying opcode 0x0D gets the clean refusal frame, everything
        // else is answered normally — all on the same connection, the
        // mixed-version rollout contract.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            while let Ok(Some((id, _, payload))) = read_frame(&mut sock).await {
                let resp = if payload.first() == Some(&0x0D) {
                    Response::Error(format!("{UNSUPPORTED_PREFIX}{:#04x}", 0x0D))
                } else {
                    Response::Ok
                };
                if write_frame(&mut sock, id, 0, &resp.encode()).await.is_err() {
                    return;
                }
            }
        });
        let client = PeerClient::new(addr);
        // A membership fetch against the old server: the refusal comes
        // back as a *typed* Unsupported, not a generic remote error.
        let err = client
            .call(9, &Request::Membership { epoch: 0, members: Vec::new() })
            .await
            .unwrap_err();
        assert_eq!(err, ClusterError::Unsupported(0x0D));
        // The exchange completed cleanly, so the connection went back to
        // the pool (not poisoned) and the breaker saw proof of life.
        assert_eq!(client.pooled(), 1);
        assert_eq!(client.stats().discarded.get(), 0);
        assert!(client.healthy());
        // The very same connection keeps serving ordinary requests.
        assert_eq!(client.call(10, &Request::Status).await.unwrap(), Response::Ok);
        assert_eq!(client.stats().dials.get(), 1);
        assert_eq!(client.stats().reuses.get(), 1);
        // A remote error that is not the refusal shape stays Remote.
        let generic = ok_or_remote((Response::Error("kaput".into()), 0));
        assert_eq!(generic.unwrap_err(), ClusterError::Remote("kaput".into()));
    }

    #[tokio::test]
    async fn reset_health_closes_an_open_breaker() {
        let addr = spawn_black_hole().await;
        let cfg = BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(3600) };
        let client = PeerClient::with_policies(addr, tight_timeouts(), cfg);
        let _ = client.call(1, &Request::Status).await;
        assert!(!client.healthy());
        assert_eq!(
            client.call(2, &Request::Status).await.unwrap_err(),
            ClusterError::PeerUnhealthy
        );
        client.reset_health();
        assert!(client.healthy(), "membership change must clear the breaker");
        // The next call reaches the network again (and times out there,
        // not in the breaker).
        assert_eq!(
            client.call(3, &Request::Status).await.unwrap_err(),
            ClusterError::Timeout("rpc")
        );
    }

    #[tokio::test]
    async fn reconnects_after_peer_drops_connection() {
        // A server that closes each connection after one exchange.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            loop {
                let (mut sock, _) = match listener.accept().await {
                    Ok(x) => x,
                    Err(_) => return,
                };
                if let Ok(Some((id, _, _))) = read_frame(&mut sock).await {
                    let _ = write_frame(&mut sock, id, 0, &Response::Ok.encode()).await;
                }
                // Drop the socket: next call must reconnect.
            }
        });
        let client = PeerClient::new(addr);
        assert_eq!(client.call(1, &Request::Status).await.unwrap(), Response::Ok);
        assert_eq!(client.call(2, &Request::Status).await.unwrap(), Response::Ok);
    }

    #[tokio::test]
    async fn unreachable_peer_errors() {
        // Bind-then-drop to get a (very likely) dead port.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let client = PeerClient::new(addr);
        assert!(matches!(client.call(1, &Request::Status).await, Err(ClusterError::Io(_))));
    }

    #[tokio::test]
    async fn garbage_response_is_decode_error() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            let mut buf = [0u8; 64];
            let _ = sock.read(&mut buf).await;
            // A valid frame echoing id 7, with an invalid opcode.
            write_frame(&mut sock, 7, 0, &[0x33]).await.unwrap();
        });
        let client = PeerClient::new(addr);
        assert!(matches!(client.call(7, &Request::Status).await, Err(ClusterError::Decode(_))));
        // The desynchronized connection is poisoned: dropped, not
        // returned to the pool.
        assert_eq!(client.pooled(), 0);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[tokio::test]
    async fn mismatched_response_id_is_rejected_and_poisons_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            let _ = read_frame(&mut sock).await;
            // Answer with a valid `Ok` frame stamped with the wrong id.
            write_frame(&mut sock, 999, 0, &Response::Ok.encode()).await.unwrap();
        });
        let client = PeerClient::new(addr);
        let err = client.call(5, &Request::Status).await.unwrap_err();
        assert_eq!(err, ClusterError::Decode("response id"));
        assert_eq!(client.pooled(), 0);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[tokio::test]
    async fn stale_pooled_connection_is_discarded_and_redialed() {
        // A server that closes each connection after one exchange: the
        // second call finds a dead pooled connection, discards it, and
        // succeeds on a fresh dial.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            loop {
                let (mut sock, _) = match listener.accept().await {
                    Ok(x) => x,
                    Err(_) => return,
                };
                if let Ok(Some((id, _, _))) = read_frame(&mut sock).await {
                    let _ = write_frame(&mut sock, id, 0, &Response::Ok.encode()).await;
                }
            }
        });
        let client = PeerClient::new(addr);
        assert_eq!(client.call(1, &Request::Status).await.unwrap(), Response::Ok);
        assert_eq!(client.call(2, &Request::Status).await.unwrap(), Response::Ok);
        assert_eq!(client.stats().dials.get(), 2);
        assert_eq!(client.stats().reuses.get(), 1);
        assert_eq!(client.stats().discarded.get(), 1);
    }

    #[tokio::test]
    async fn failed_dial_is_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let client = PeerClient::new(addr);
        assert!(client.call(1, &Request::Status).await.is_err());
        assert_eq!(client.stats().dials.get(), 1);
        assert_eq!(client.stats().dial_failures.get(), 1);
        assert_eq!(client.pooled(), 0);
    }

    #[tokio::test]
    async fn pool_eviction_over_capacity_is_counted() {
        let addr = spawn_ok_server().await;
        let client = std::sync::Arc::new(PeerClient::new(addr));
        // Far more concurrent calls than POOL_SIZE: every call dials (the
        // pool starts empty and all calls are in flight together), and
        // only POOL_SIZE connections fit back.
        let mut tasks = Vec::new();
        let barrier = std::sync::Arc::new(tokio::sync::Barrier::new(POOL_SIZE * 3));
        for id in 0..(POOL_SIZE * 3) as u64 {
            let c = std::sync::Arc::clone(&client);
            let b = std::sync::Arc::clone(&barrier);
            tasks.push(tokio::spawn(async move {
                b.wait().await;
                c.call(id, &Request::Status).await
            }));
        }
        for t in tasks {
            assert_eq!(t.await.unwrap().unwrap(), Response::Ok);
        }
        assert!(client.pooled() <= POOL_SIZE);
        let s = client.stats();
        assert_eq!(s.dials.get() + s.reuses.get(), (POOL_SIZE * 3) as u64);
        // Every healthy connection either sits in the pool or was
        // evicted over capacity.
        assert_eq!(s.dials.get(), client.pooled() as u64 + s.evicted.get());
    }

    /// A black hole: accepts TCP, reads forever, never replies.
    async fn spawn_black_hole() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            loop {
                let (mut sock, _) = match listener.accept().await {
                    Ok(x) => x,
                    Err(_) => return,
                };
                tokio::spawn(async move {
                    let mut buf = [0u8; 1024];
                    while matches!(sock.read(&mut buf).await, Ok(n) if n > 0) {}
                });
            }
        });
        addr
    }

    fn tight_timeouts() -> Timeouts {
        Timeouts::default().with_connect_ms(200).with_rpc_ms(50).with_op_budget_ms(500)
    }

    #[tokio::test]
    async fn black_holed_peer_times_out_within_deadline() {
        let addr = spawn_black_hole().await;
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let started = std::time::Instant::now();
        let err = client.call(1, &Request::Status).await.unwrap_err();
        assert_eq!(err, ClusterError::Timeout("rpc"));
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(client.stats().timeouts.get(), 1);
        // The half-sent connection was dropped, never pooled.
        assert_eq!(client.pooled(), 0);
    }

    #[tokio::test]
    async fn breaker_fast_fails_after_consecutive_timeouts() {
        let addr = spawn_black_hole().await;
        let cfg = BreakerConfig { failure_threshold: 3, cooldown: Duration::from_secs(30) };
        let client = PeerClient::with_policies(addr, tight_timeouts(), cfg);
        for id in 0..3 {
            assert_eq!(
                client.call(id, &Request::Status).await.unwrap_err(),
                ClusterError::Timeout("rpc")
            );
        }
        assert_eq!(client.breaker().opens.get(), 1);
        assert!(!client.healthy());
        // The fourth call never touches the network.
        let started = std::time::Instant::now();
        let err = client.call(99, &Request::Status).await.unwrap_err();
        assert_eq!(err, ClusterError::PeerUnhealthy);
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(client.stats().timeouts.get(), 3);
        assert!(client.breaker().fast_fails.get() >= 1);
    }

    #[tokio::test]
    async fn call_retry_retries_with_backoff_then_gives_up() {
        // Unreachable port: every attempt fails fast with ECONNREFUSED.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let deadline = Deadline::within(Duration::from_secs(5));
        let err = client.call_retry(7, &Request::Status, &policy, deadline).await.unwrap_err();
        assert!(matches!(err, ClusterError::Io(_)), "{err}");
        assert_eq!(client.stats().dials.get(), 3);
        assert_eq!(client.stats().retries.get(), 2);
    }

    #[tokio::test]
    async fn call_retry_succeeds_after_transient_failure() {
        // First exchange is cut mid-frame; the retry lands on a healthy
        // accept.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            // First connection: drop immediately (client sees EOF).
            let (sock, _) = listener.accept().await.unwrap();
            drop(sock);
            // Second connection: answer properly.
            let (mut sock, _) = listener.accept().await.unwrap();
            if let Ok(Some((id, _, _))) = read_frame(&mut sock).await {
                let _ = write_frame(&mut sock, id, 0, &Response::Ok.encode()).await;
            }
        });
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let deadline = Deadline::within(Duration::from_secs(5));
        let resp = client.call_retry(7, &Request::Status, &policy, deadline).await.unwrap();
        assert_eq!(resp, Response::Ok);
        assert_eq!(client.stats().retries.get(), 1);
    }

    #[tokio::test]
    async fn exhausted_deadline_fails_without_touching_network() {
        let addr = spawn_black_hole().await;
        let client = PeerClient::with_policies(addr, tight_timeouts(), BreakerConfig::default());
        let err = client.call_bounded(1, &Request::Status, Duration::ZERO).await.unwrap_err();
        assert_eq!(err, ClusterError::Timeout("op-budget"));
        assert_eq!(client.stats().dials.get(), 0);
    }

    #[test]
    fn robustness_totals_are_summed_across_peers() {
        let a = PeerClient::new("127.0.0.1:1".parse().unwrap());
        let b = PeerClient::new("127.0.0.1:2".parse().unwrap());
        a.stats().timeouts.add(2);
        b.stats().timeouts.add(3);
        b.stats().retries.inc();
        a.breaker().opens.inc();
        b.breaker().fast_fails.add(4);
        let mut s = MetricsSnapshot::new();
        push_peer_robustness(&mut s, [&a, &b]);
        assert_eq!(s.counter("pls_rpc_timeouts_total"), Some(5));
        assert_eq!(s.counter("pls_rpc_retries_total"), Some(1));
        assert_eq!(s.counter("pls_breaker_opens_total"), Some(1));
        assert_eq!(s.counter("pls_breaker_fast_fails_total"), Some(4));
    }
}
