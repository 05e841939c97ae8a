//! A minimal, dependency-free HTTP/1.1 debug/metrics endpoint.
//!
//! Serves a handful of read-only routes — `GET /metrics` (Prometheus
//! text exposition), `GET /trace?req=<id>` (one request's span
//! timeline as JSON), `GET /debug/recent` (the flight recorder's ring
//! and pin list as JSON) — so any scraper or `curl` can inspect a live
//! server without speaking the binary wire protocol. This is
//! deliberately not a web framework: a [`Router`] maps exact paths to
//! handlers (each choosing its own status and content type, with the
//! raw query string passed through), requests are parsed just enough
//! to route (`GET`/`HEAD`, 405 on other methods, 404 elsewhere, 400
//! for garbage), every response carries `Content-Length` and
//! `Connection: close`, and the connection is then dropped.
//!
//! The exporter is hardened against trickle-feed ("slowloris") abuse:
//! each connection gets [`ServeOptions::per_conn_timeout`] to complete
//! its whole request/response exchange, and at most
//! [`ServeOptions::max_connections`] are served concurrently — excess
//! connections are shed immediately rather than queued.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use pls_wire::retry::Deadline;

use crate::sock::{Acceptor, Bounded};

/// Most bytes of request head we are willing to buffer before calling
/// the request malformed.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Content type of the Prometheus text exposition format.
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Content type of the JSON debug routes.
pub const CONTENT_TYPE_JSON: &str = "application/json; charset=utf-8";

/// Abuse limits for the exporter.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Budget for one connection's whole exchange — a scraper that
    /// trickles header bytes (or never finishes reading the body) is
    /// cut off at this deadline instead of pinning a handler forever.
    pub per_conn_timeout: Duration,
    /// Concurrently served connections; further ones are dropped on
    /// accept until a slot frees up.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { per_conn_timeout: Duration::from_secs(10), max_connections: 64 }
    }
}

/// One route's rendered reply: status, content type, and body.
#[derive(Debug, Clone)]
pub struct RouteReply {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl RouteReply {
    /// A `200 OK` reply in the Prometheus text exposition format — the
    /// shape of the classic `/metrics` route.
    pub fn text(body: String) -> Self {
        RouteReply { status: 200, content_type: CONTENT_TYPE_PROMETHEUS, body }
    }

    /// A `200 OK` JSON reply.
    pub fn json(body: String) -> Self {
        RouteReply { status: 200, content_type: CONTENT_TYPE_JSON, body }
    }

    /// A `400 Bad Request` with a plain-text explanation.
    pub fn bad_request(msg: &str) -> Self {
        RouteReply { status: 400, content_type: CONTENT_TYPE_PROMETHEUS, body: format!("{msg}\n") }
    }
}

/// A route handler: receives the request's raw query string (the part
/// after `?`, undecoded, `None` when absent) and produces a reply. It
/// runs on the connection's thread and may block (the `/trace` route
/// asks every peer).
pub type Handler = Arc<dyn Fn(Option<&str>) -> RouteReply + Send + Sync>;

/// An exact-path router for the debug endpoint.
#[derive(Default)]
pub struct Router {
    routes: Vec<(&'static str, Handler)>,
}

impl Router {
    /// An empty router (every request 404s).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a handler for an exact path (queries are passed through,
    /// not matched on). Later routes never shadow earlier ones.
    #[must_use]
    pub fn route(mut self, path: &'static str, handler: Handler) -> Self {
        if !self.routes.iter().any(|(p, _)| *p == path) {
            self.routes.push((path, handler));
        }
        self
    }

    fn find(&self, path: &str) -> Option<&Handler> {
        self.routes.iter().find(|(p, _)| *p == path).map(|(_, h)| h)
    }
}

/// A running exporter: its accept thread and connection threads.
/// Dropping it stops the endpoint and joins them.
pub struct Exporter {
    _acceptor: Acceptor,
}

/// Serves a [`Router`] on `listener` with default [`ServeOptions`];
/// typically started next to [`Server::spawn`], over [`Server::router`].
///
/// # Errors
///
/// I/O errors from reading the listener's address.
///
/// [`Server::spawn`]: crate::server::Server::spawn
/// [`Server::router`]: crate::server::Server::router
pub fn serve_router(listener: TcpListener, router: Arc<Router>) -> std::io::Result<Exporter> {
    serve_router_with(listener, router, ServeOptions::default())
}

/// [`serve_router`] with explicit abuse limits: one thread per
/// connection, at most `max_connections` of them — a connection over
/// the cap is closed on accept (a scraper will retry; a flood will not
/// be queued) — and each cut off `per_conn_timeout` after it was
/// accepted.
///
/// # Errors
///
/// As [`serve_router`].
pub fn serve_router_with(
    listener: TcpListener,
    router: Arc<Router>,
    opts: ServeOptions,
) -> std::io::Result<Exporter> {
    let addr = listener.local_addr()?;
    let _acceptor = Acceptor::spawn(
        listener,
        addr,
        opts.max_connections.max(1),
        move |socket| {
            // Serve-and-close; errors (and deadline kills) are the
            // client's problem.
            let deadline = Deadline::within(opts.per_conn_timeout);
            let _ = serve_one(&mut Bounded { stream: socket, deadline }, &router);
        },
        |err| pls_telemetry::warn!("metrics_accept_error", err = err),
    );
    Ok(Exporter { _acceptor })
}

/// Reads one request head and writes the matching response.
fn serve_one(socket: &mut Bounded<'_>, router: &Router) -> std::io::Result<()> {
    let Some(head) = read_request_head(socket)? else {
        return respond(socket, 400, "bad request\n");
    };
    let Some((method, path, query)) = parse_request_line(&head) else {
        return respond(socket, 400, "bad request\n");
    };
    match router.find(path) {
        Some(handler) if method == "GET" || method == "HEAD" => {
            respond_reply(socket, &handler(query), method == "HEAD")
        }
        Some(_) => respond(socket, 405, "method not allowed\n"),
        None => respond(socket, 404, "not found\n"),
    }
}

/// Buffers up to the end of the request head (`\r\n\r\n`). Returns
/// `None` when the head never terminates within [`MAX_REQUEST_HEAD`]
/// bytes (or the peer hangs up first).
fn read_request_head(socket: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        let n = socket.read(&mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(Some(head));
        }
        if head.len() > MAX_REQUEST_HEAD {
            return Ok(None);
        }
    }
}

/// Splits the request line into method, path, and raw query string
/// (`None` when the target has no `?`); `None` overall if the line is
/// not plausibly HTTP/1.x.
fn parse_request_line(head: &[u8]) -> Option<(&str, &str, Option<&str>)> {
    let line_end = head.windows(2).position(|w| w == b"\r\n")?;
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return None;
    }
    // Route on the path; hand the query through to the handler.
    match target.split_once('?') {
        Some((path, query)) => Some((method, path, Some(query))),
        None => Some((method, target, None)),
    }
}

/// Extracts one `key=value` pair from a raw query string (no percent
/// decoding — the debug routes only take numeric parameters).
pub fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    }
}

fn respond(socket: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    let reply =
        RouteReply { status, content_type: CONTENT_TYPE_PROMETHEUS, body: body.to_string() };
    respond_reply(socket, &reply, false)
}

fn respond_reply(
    socket: &mut impl Write,
    reply: &RouteReply,
    head_only: bool,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reply.status,
        reason_for(reply.status),
        reply.content_type,
        reply.body.len()
    );
    socket.write_all(header.as_bytes())?;
    if !head_only {
        socket.write_all(reply.body.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics", None))
        );
        // Query strings are preserved and handed to the route handler.
        assert_eq!(
            parse_request_line(b"HEAD /metrics?ts=1 HTTP/1.0\r\n\r\n"),
            Some(("HEAD", "/metrics", Some("ts=1")))
        );
        assert_eq!(
            parse_request_line(b"GET /trace?req=42&x=y HTTP/1.1\r\n\r\n"),
            Some(("GET", "/trace", Some("req=42&x=y")))
        );
        assert_eq!(parse_request_line(b"GET /metrics\r\n\r\n"), None); // no version
        assert_eq!(parse_request_line(b"GET /metrics SPDY/3\r\n\r\n"), None);
        assert_eq!(parse_request_line(b"\xff\xfe oops HTTP/1.1\r\n\r\n"), None);
        assert_eq!(parse_request_line(b"no crlf"), None);
    }

    #[test]
    fn query_params_are_extracted_verbatim() {
        assert_eq!(query_param("req=42", "req"), Some("42"));
        assert_eq!(query_param("a=1&req=0xff&b=2", "req"), Some("0xff"));
        assert_eq!(query_param("a=1&b=2", "req"), None);
        assert_eq!(query_param("req", "req"), None); // no '='
        assert_eq!(query_param("", "req"), None);
    }

    fn bind() -> (TcpListener, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// A router whose one route, `/metrics`, serves `body`.
    fn metrics_only(body: &'static str) -> Arc<Router> {
        Arc::new(Router::new().route("/metrics", Arc::new(|_| RouteReply::text(body.to_string()))))
    }

    /// Sends `raw` and reads to EOF under a 5 s guard; `None` if the
    /// exporter never closed the connection.
    fn exchange(sock: &mut TcpStream, raw: &str) -> Option<Vec<u8>> {
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = sock.write_all(raw.as_bytes());
        let mut out = Vec::new();
        // A reset counts as closed.
        match sock.read_to_end(&mut out) {
            Err(e) if crate::sock::timed_out(&e) => None,
            _ => Some(out),
        }
    }

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut sock = TcpStream::connect(addr).unwrap();
        String::from_utf8(exchange(&mut sock, raw).expect("no response")).unwrap()
    }

    #[test]
    fn exporter_routes_and_closes() {
        let (listener, addr) = bind();
        let _exporter = serve_router_with(
            listener,
            metrics_only("# TYPE pls_live_coverage gauge\npls_live_coverage 1\n"),
            ServeOptions::default(),
        )
        .unwrap();

        let ok = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Content-Type: text/plain; version=0.0.4"), "{ok}");
        assert!(ok.contains("Connection: close"), "{ok}");
        assert!(ok.ends_with("pls_live_coverage 1\n"), "{ok}");
        let body_len = ok.split("\r\n\r\n").nth(1).unwrap().len();
        assert!(ok.contains(&format!("Content-Length: {body_len}\r\n")), "{ok}");

        let head = request(addr, "HEAD /metrics HTTP/1.1\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(!head.contains("pls_live_coverage"), "{head}");

        let missing = request(addr, "GET /other HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let wrong_method = request(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");

        let garbage = request(addr, "not http at all\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
    }

    #[test]
    fn router_serves_json_routes_with_query_passthrough() {
        let (listener, addr) = bind();
        let metrics: Handler = Arc::new(|_| RouteReply::text("m 1\n".to_string()));
        let router = Router::new().route("/metrics", metrics).route(
            "/trace",
            Arc::new(|query: Option<&str>| match query.and_then(|q| query_param(q, "req")) {
                Some(req) => RouteReply::json(format!("{{\"req\":{req}}}")),
                None => RouteReply::bad_request("missing req=<id>"),
            }),
        );
        let _exporter = serve_router(listener, Arc::new(router)).unwrap();

        let traced = request(addr, "GET /trace?req=42 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(traced.starts_with("HTTP/1.1 200 OK\r\n"), "{traced}");
        assert!(traced.contains("Content-Type: application/json"), "{traced}");
        assert!(traced.ends_with("{\"req\":42}"), "{traced}");

        let missing = request(addr, "GET /trace HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 400"), "{missing}");

        // The classic metrics route keeps its exposition content type.
        let metrics = request(addr, "GET /metrics?ignored=1 HTTP/1.1\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("Content-Type: text/plain; version=0.0.4"), "{metrics}");

        let unknown = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(unknown.starts_with("HTTP/1.1 404"), "{unknown}");
    }

    #[test]
    fn slowloris_connection_is_cut_off_at_the_deadline() {
        let (listener, addr) = bind();
        let opts = ServeOptions {
            per_conn_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        };
        let _exporter = serve_router_with(listener, metrics_only("x\n"), opts).unwrap();

        // Trickle one header byte, then stall: the server must hang up
        // at its deadline, not wait for the head to complete.
        let mut sock = TcpStream::connect(addr).unwrap();
        // EOF (possibly a reset) well before our own 5s guard: the
        // stalled connection was killed without an HTTP response.
        let out = exchange(&mut sock, "G").expect("exporter never closed the stalled connection");
        assert!(out.is_empty(), "unexpected response to a half-sent request");

        // The exporter still works afterwards.
        let ok = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    }

    #[test]
    fn excess_connections_are_shed_not_queued() {
        let (listener, addr) = bind();
        let opts = ServeOptions { per_conn_timeout: Duration::from_secs(1), max_connections: 1 };
        let _exporter = serve_router_with(listener, metrics_only("x\n"), opts).unwrap();

        // Occupy the single slot with a connection that never finishes
        // its request (connections are accepted in order, so it is being
        // served by the time the next one is looked at).
        let mut holder = TcpStream::connect(addr).unwrap();
        holder.write_all(b"G").unwrap();

        // The next connection is dropped without a response.
        let mut shed = TcpStream::connect(addr).unwrap();
        let out = exchange(&mut shed, "GET /metrics HTTP/1.1\r\n\r\n")
            .expect("shed connection was left hanging");
        assert!(out.is_empty(), "shed connection unexpectedly got a response: {out:?}");

        // Once the holder's deadline frees the slot, service resumes.
        drop(holder);
        let deadline = Deadline::within(Duration::from_secs(5));
        loop {
            let mut sock = TcpStream::connect(addr).unwrap();
            let out = exchange(&mut sock, "GET /metrics HTTP/1.1\r\n\r\n").unwrap_or_default();
            if out.starts_with(b"HTTP/1.1 200 OK\r\n") {
                break;
            }
            assert!(!deadline.expired(), "the freed slot was never served again");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
