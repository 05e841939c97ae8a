//! Fault-injecting chaos proxy for exercising the robustness layer.
//!
//! A [`ChaosPeer`] speaks the cluster's wire protocol on its listen
//! socket and misbehaves on purpose: per request it can **black-hole**
//! (read the request, never answer — the failure the paper's §4.4
//! "skip failed servers" rule must detect in bounded time), answer with
//! a **garbage** frame, **half-close** the connection, return an
//! application **error**, or **delay** before doing anything. Requests
//! that draw no fault are either forwarded to an optional upstream
//! server (making the proxy a drop-in stand-in for that server in a
//! peer list) or answered with [`Response::Ok`].
//!
//! Two connection-level modes model whole-process outages rather than
//! per-request misery: **refuse** closes every connection on sight (the
//! crashed-process signature — callers see resets/EOF instead of
//! silence), and **flap** alternates live and refusing time windows
//! (the restart-looping server that churn hardening must ride out).
//!
//! All knobs live in a shared [`ChaosConfig`] whose fields are atomics,
//! so a test can flip a healthy proxy to 100% black-hole mid-run
//! without restarting anything. Fault draws are deterministic in the
//! config's seed.
//!
//! Used by `tests/chaos.rs` and the `pls-chaos` binary.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pls_wire::error::ClusterError;
use pls_wire::proto::Response;
use pls_wire::retry::splitmix64;

use crate::frame::{read_frame, write_frame};
use crate::sock::Acceptor;

/// The fault (if any) drawn for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: forward (or ack) normally.
    Pass,
    /// Swallow the request and never answer; the connection stays open
    /// and silent, so only a deadline can unblock the caller.
    BlackHole,
    /// Answer with a syntactically framed but semantically garbage
    /// payload (an invalid opcode), provoking a decode error.
    Garbage,
    /// Shut down the write side of the connection; the caller sees EOF
    /// instead of a response.
    HalfClose,
    /// Answer with an application-level [`Response::Error`].
    Error,
}

/// Shared, atomically adjustable fault knobs for a [`ChaosPeer`].
///
/// Fault probabilities are stored per-mille (0..=1000) and drawn
/// *cumulatively* in the order black-hole, garbage, half-close, error:
/// with 300‰ black-hole and 300‰ error, 30% of requests are
/// black-holed, a disjoint 30% get errors, and the rest pass.
#[derive(Debug, Default)]
pub struct ChaosConfig {
    delay_ms: AtomicU64,
    black_hole_pm: AtomicU32,
    garbage_pm: AtomicU32,
    half_close_pm: AtomicU32,
    error_pm: AtomicU32,
    /// Connection-level: close every accepted connection immediately
    /// and kill established ones at their next request.
    refuse: AtomicBool,
    /// Flapping: alternate `flap_up_ms` of normal service with
    /// `flap_down_ms` of refusal. `flap_down_ms == 0` disables.
    flap_up_ms: AtomicU64,
    flap_down_ms: AtomicU64,
    /// Deterministic dice state, advanced per draw.
    seed: AtomicU64,
}

/// Milliseconds since the first chaos clock read in this process — the
/// shared time base every flapping proxy phases against.
fn chaos_clock_ms() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    let start = *START.get_or_init(std::time::Instant::now);
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

impl ChaosConfig {
    /// A no-fault config whose dice are seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosConfig { seed: AtomicU64::new(seed), ..Self::default() }
    }

    /// Sets the delay applied before handling every request.
    pub fn set_delay_ms(&self, ms: u64) {
        self.delay_ms.store(ms, Ordering::Relaxed);
    }

    /// Sets the black-hole probability (clamped to `0.0..=1.0`).
    pub fn set_black_hole(&self, p: f64) {
        self.black_hole_pm.store(per_mille(p), Ordering::Relaxed);
    }

    /// Sets the garbage-frame probability (clamped to `0.0..=1.0`).
    pub fn set_garbage(&self, p: f64) {
        self.garbage_pm.store(per_mille(p), Ordering::Relaxed);
    }

    /// Sets the half-close probability (clamped to `0.0..=1.0`).
    pub fn set_half_close(&self, p: f64) {
        self.half_close_pm.store(per_mille(p), Ordering::Relaxed);
    }

    /// Sets the error-response probability (clamped to `0.0..=1.0`).
    pub fn set_error(&self, p: f64) {
        self.error_pm.store(per_mille(p), Ordering::Relaxed);
    }

    /// Turns connection refusal on or off: while on, every accepted
    /// connection is closed immediately and established ones die at
    /// their next request — the crashed-process signature.
    pub fn set_refuse(&self, on: bool) {
        self.refuse.store(on, Ordering::Relaxed);
    }

    /// Makes the proxy flap: `up` of normal service, then `down` of
    /// refusal, repeating. A zero `down` disables flapping.
    pub fn set_flap(&self, up: Duration, down: Duration) {
        self.flap_up_ms.store(u64::try_from(up.as_millis()).unwrap_or(u64::MAX), Ordering::Relaxed);
        self.flap_down_ms
            .store(u64::try_from(down.as_millis()).unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// Whether connections should be refused right now, combining the
    /// static refuse switch with the flap schedule's current phase.
    pub fn refusing_now(&self) -> bool {
        if self.refuse.load(Ordering::Relaxed) {
            return true;
        }
        let down = self.flap_down_ms.load(Ordering::Relaxed);
        if down == 0 {
            return false;
        }
        let up = self.flap_up_ms.load(Ordering::Relaxed);
        let period = up.saturating_add(down).max(1);
        chaos_clock_ms() % period >= up
    }

    /// The delay currently applied before handling each request.
    pub fn delay(&self) -> Duration {
        Duration::from_millis(self.delay_ms.load(Ordering::Relaxed))
    }

    /// Draws the fault for one request, advancing the dice.
    pub fn roll(&self) -> Fault {
        // Weyl-increment the state so concurrent draws stay distinct,
        // then whiten; deterministic given the seed and draw order.
        let state = self.seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let dice = (splitmix64(state) % 1000) as u32;
        let mut threshold = self.black_hole_pm.load(Ordering::Relaxed);
        if dice < threshold {
            return Fault::BlackHole;
        }
        threshold = threshold.saturating_add(self.garbage_pm.load(Ordering::Relaxed));
        if dice < threshold {
            return Fault::Garbage;
        }
        threshold = threshold.saturating_add(self.half_close_pm.load(Ordering::Relaxed));
        if dice < threshold {
            return Fault::HalfClose;
        }
        threshold = threshold.saturating_add(self.error_pm.load(Ordering::Relaxed));
        if dice < threshold {
            return Fault::Error;
        }
        Fault::Pass
    }
}

fn per_mille(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1000.0).round() as u32
}

/// A running wire-protocol proxy that injects faults per
/// [`ChaosConfig`]: an accept thread and, like the real server, one
/// thread per connection. Dropping it stops the proxy and joins them (a
/// black-holed connection's thread parks on its socket until then).
///
/// With an upstream it impersonates that server: put the proxy's
/// address in a peer list where the upstream's would go, and fault-free
/// requests behave exactly as if the real server answered. Without an
/// upstream it acks every fault-free request with [`Response::Ok`] —
/// enough to exercise timeout, retry, and breaker paths that only need
/// *a* peer, not a correct one.
pub struct ChaosPeer {
    _acceptor: Acceptor,
}

impl ChaosPeer {
    /// Binds `127.0.0.1:0`, starts proxying and returns the proxy plus
    /// its address.
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn bind(
        upstream: Option<SocketAddr>,
        cfg: Arc<ChaosConfig>,
    ) -> std::io::Result<(ChaosPeer, SocketAddr)> {
        Self::bind_addr("127.0.0.1:0".parse().expect("literal addr"), upstream, cfg)
    }

    /// [`ChaosPeer::bind`] on an explicit listen address (port 0 picks
    /// an ephemeral one).
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn bind_addr(
        listen: SocketAddr,
        upstream: Option<SocketAddr>,
        cfg: Arc<ChaosConfig>,
    ) -> std::io::Result<(ChaosPeer, SocketAddr)> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let _acceptor = Acceptor::spawn(
            listener,
            addr,
            usize::MAX,
            move |socket| {
                // Refuse/flap-down: close on sight; callers see a reset
                // or EOF where a response should be. Faulted connections
                // end in torn frames and resets; that is the point, so
                // errors are not reported.
                if !cfg.refusing_now() {
                    let _ = serve_chaos(socket, upstream, &cfg);
                }
            },
            |_| {},
        );
        Ok((ChaosPeer { _acceptor }, addr))
    }
}

fn serve_chaos(
    mut downstream: &TcpStream,
    upstream: Option<SocketAddr>,
    cfg: &ChaosConfig,
) -> Result<(), ClusterError> {
    // Lazily dialed on the first forwarded request, redialed after
    // upstream failures.
    let mut up: Option<TcpStream> = None;
    while let Some((req_id, _, payload)) = read_frame(&mut downstream)? {
        if cfg.refusing_now() {
            // A flap window closed (or refuse flipped on) under an
            // established connection: die like the process did.
            return Ok(());
        }
        std::thread::sleep(cfg.delay());
        match cfg.roll() {
            Fault::Pass => {
                let (service_us, reply) = match upstream {
                    Some(addr) => forward(&mut up, addr, req_id, &payload),
                    None => (0, Response::Ok.encode()),
                };
                // Relay the upstream's echoed service time untouched:
                // the proxy adds network misery, not server work, so the
                // caller's RTT-minus-service decomposition attributes
                // the injected delay to the network side.
                write_frame(&mut downstream, req_id, service_us, &reply)?;
            }
            Fault::BlackHole => {
                // Silence the rest of the connection too: a caller that
                // timed out on this request abandons the connection, so
                // answering later frames would never be observed anyway.
                drain(&mut downstream);
                return Ok(());
            }
            Fault::Garbage => {
                // 0x77 is no opcode; decodes as a malformed frame.
                write_frame(&mut downstream, req_id, 0, &[0x77])?;
            }
            Fault::HalfClose => {
                let _ = downstream.shutdown(Shutdown::Write);
                drain(&mut downstream);
                return Ok(());
            }
            Fault::Error => {
                let reply = Response::Error("chaos: injected error".into()).encode();
                write_frame(&mut downstream, req_id, 0, &reply)?;
            }
        }
    }
    Ok(())
}

/// Forwards one request frame to the upstream server, returning its
/// reply's echoed service time and response payload, or a zero service
/// time and an encoded [`Response::Error`] when the upstream is
/// unreachable or answers garbage.
fn forward(
    up: &mut Option<TcpStream>,
    addr: SocketAddr,
    req_id: u64,
    payload: &[u8],
) -> (u64, Vec<u8>) {
    forward_once(up, addr, req_id, payload).unwrap_or_else(|_| {
        // Poison the upstream connection; the next request redials.
        *up = None;
        (0, Response::Error("chaos: upstream unreachable".into()).encode())
    })
}

fn forward_once(
    up: &mut Option<TcpStream>,
    addr: SocketAddr,
    req_id: u64,
    payload: &[u8],
) -> Result<(u64, Vec<u8>), ClusterError> {
    let stream = match up {
        Some(stream) => stream,
        None => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            up.insert(stream)
        }
    };
    write_frame(stream, req_id, 0, payload)?;
    match read_frame(stream)? {
        Some((_, service_us, reply)) => Ok((service_us, reply)),
        None => Err(ClusterError::Io(std::io::ErrorKind::UnexpectedEof.into())),
    }
}

/// Reads and discards frames until the peer gives up on the connection.
fn drain(stream: &mut &TcpStream) {
    while let Ok(Some(_)) = read_frame(stream) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::PeerClient;
    use pls_wire::proto::Request;
    use pls_wire::retry::{BreakerConfig, Deadline, Timeouts};

    /// One `Status` call, one attempt: the per-RPC deadline is the bound
    /// that bites.
    fn status(client: &PeerClient, id: u64) -> Result<Response, ClusterError> {
        let deadline = Deadline::within(Duration::from_secs(5));
        client.call(id, &Request::Status, 1, deadline).map(|(resp, _)| resp)
    }

    #[test]
    fn per_mille_clamps() {
        assert_eq!(per_mille(-0.5), 0);
        assert_eq!(per_mille(0.25), 250);
        assert_eq!(per_mille(7.0), 1000);
    }

    #[test]
    fn roll_is_cumulative_and_deterministic() {
        let cfg = ChaosConfig::new(42);
        cfg.set_black_hole(0.3);
        cfg.set_error(0.3);
        let draws: Vec<Fault> = (0..3000).map(|_| cfg.roll()).collect();
        let count = |f: Fault| draws.iter().filter(|&&d| d == f).count();
        // ~30% each, disjoint; generous bounds keep this deterministic
        // check loose enough for any seed.
        assert!((600..1200).contains(&count(Fault::BlackHole)));
        assert!((600..1200).contains(&count(Fault::Error)));
        assert_eq!(count(Fault::Garbage), 0);
        assert_eq!(count(Fault::HalfClose), 0);
        // Same seed, same sequence.
        let cfg2 = ChaosConfig::new(42);
        cfg2.set_black_hole(0.3);
        cfg2.set_error(0.3);
        let replay: Vec<Fault> = (0..3000).map(|_| cfg2.roll()).collect();
        assert_eq!(draws, replay);
    }

    #[test]
    fn faults_map_to_the_expected_client_errors() {
        let tight = Timeouts::default().with_connect_ms(500).with_rpc_ms(300);
        let lenient = BreakerConfig { failure_threshold: u32::MAX, ..BreakerConfig::default() };

        // Error fault → Remote.
        let cfg = Arc::new(ChaosConfig::new(1));
        cfg.set_error(1.0);
        let (_proxy, addr) = ChaosPeer::bind(None, Arc::clone(&cfg)).unwrap();
        let client = PeerClient::with_policies(addr, tight, lenient);
        let err = status(&client, 7).unwrap_err();
        assert!(matches!(err, ClusterError::Remote(msg) if msg.contains("chaos")));

        // Garbage fault → Decode.
        cfg.set_error(0.0);
        cfg.set_garbage(1.0);
        let err = status(&client, 8).unwrap_err();
        assert!(matches!(err, ClusterError::Decode(_)));

        // Black hole → rpc timeout.
        cfg.set_garbage(0.0);
        cfg.set_black_hole(1.0);
        let err = status(&client, 9).unwrap_err();
        assert_eq!(err, ClusterError::Timeout("rpc"));

        // Half close → I/O error (EOF instead of a response).
        cfg.set_black_hole(0.0);
        cfg.set_half_close(1.0);
        let err = status(&client, 10).unwrap_err();
        assert!(matches!(err, ClusterError::Io(_)));

        // All faults off, no upstream → Ok ack.
        cfg.set_half_close(0.0);
        let resp = status(&client, 11).unwrap();
        assert_eq!(resp, Response::Ok);
    }

    #[test]
    fn flap_schedule_phases_between_up_and_down() {
        let cfg = ChaosConfig::new(0);
        assert!(!cfg.refusing_now(), "no knobs set: serving");
        // All-down flap: refusing regardless of when it is asked.
        cfg.set_flap(Duration::ZERO, Duration::from_millis(50));
        assert!(cfg.refusing_now());
        // All-up flap: never refusing.
        cfg.set_flap(Duration::from_millis(50), Duration::ZERO);
        assert!(!cfg.refusing_now());
        // The static switch wins over any schedule.
        cfg.set_refuse(true);
        assert!(cfg.refusing_now());
        cfg.set_refuse(false);
        assert!(!cfg.refusing_now());
    }

    #[test]
    fn refuse_mode_kills_connections_and_recovers_when_lifted() {
        let tight = Timeouts::default().with_connect_ms(500).with_rpc_ms(300);
        let lenient = BreakerConfig { failure_threshold: u32::MAX, ..BreakerConfig::default() };
        let cfg = Arc::new(ChaosConfig::new(3));
        cfg.set_refuse(true);
        let (_proxy, addr) = ChaosPeer::bind(None, Arc::clone(&cfg)).unwrap();
        let client = PeerClient::with_policies(addr, tight, lenient);
        // Connections are accepted then dropped on sight: the call sees
        // a reset or EOF, never an answer.
        let err = status(&client, 20).unwrap_err();
        assert!(
            matches!(err, ClusterError::Io(_)) || err == ClusterError::Timeout("rpc"),
            "unexpected refusal error: {err:?}"
        );
        // Back up: the very next call succeeds (fresh dial).
        cfg.set_refuse(false);
        let resp = status(&client, 21).unwrap();
        assert_eq!(resp, Response::Ok);
    }
}
