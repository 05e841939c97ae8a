//! What several of the end-to-end test files need: listeners on
//! ephemeral ports, test entries, one raw wire exchange, one raw HTTP
//! `GET`, `pls-server` child processes and this process's thread and
//! socket counts.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use pls_cluster::frame::{read_frame, write_frame};
use pls_cluster::{ClusterError, Deadline};
use pls_wire::proto::{Request, Response};

/// Binds `n` listeners on ephemeral ports, so every server can be told
/// the final address list before any of them starts.
pub fn bind_all(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs = listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();
    (listeners, addrs)
}

/// Binds a just-killed server's address again (std sets `SO_REUSEADDR`;
/// `kill` has closed the old listener by the time it returns).
pub fn rebind(addr: SocketAddr) -> TcpListener {
    TcpListener::bind(addr).unwrap_or_else(|err| panic!("rebind {addr}: {err}"))
}

pub fn entries(range: std::ops::Range<u32>) -> Vec<Vec<u8>> {
    range.map(|i| format!("peer{i}:6699").into_bytes()).collect()
}

/// One request/response exchange on a connection of its own, bypassing
/// the client library; returns the echoed id and the response.
pub fn call_raw(addr: SocketAddr, id: u64, req: &Request) -> Result<(u64, Response), ClusterError> {
    let mut stream = TcpStream::connect(addr)?;
    exchange_raw(&mut stream, id, &req.encode())
}

/// One exchange of an already encoded payload on an open connection.
pub fn exchange_raw(
    stream: &mut TcpStream,
    id: u64,
    payload: &[u8],
) -> Result<(u64, Response), ClusterError> {
    write_frame(stream, id, 0, payload)?;
    let (echoed, _, payload) = read_frame(stream)?
        .ok_or_else(|| ClusterError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    Ok((echoed, Response::decode(&payload)?))
}

/// One raw `GET` against a debug endpoint; returns (status line,
/// headers, body).
pub fn http_get(addr: SocketAddr, target: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// `pls-server` child processes, killed and reaped on drop: on a failed
/// assertion as on a passing run.
pub struct Servers(pub Vec<Child>);

impl Servers {
    /// Starts one `pls-server` per address, one cluster under `strategy`,
    /// and waits until every one accepts. Each is a process of its own, so
    /// every thread and socket of this process is the test's.
    pub fn spawn(addrs: &[SocketAddr], strategy: &str) -> Servers {
        let peers = addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
        let mut servers = Servers(Vec::new());
        for index in 0..addrs.len() {
            let child = Command::new(env!("CARGO_BIN_EXE_pls-server"))
                .args(["--index", &index.to_string(), "--peers", &peers, "--strategy", strategy])
                .args(["--log", "warn"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("pls-server starts");
            servers.0.push(child);
        }
        let up = Deadline::within(Duration::from_secs(10));
        assert!(
            up.wait_until(|| addrs.iter().all(|a| TcpStream::connect(a).is_ok())),
            "servers up"
        );
        servers
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// This process's thread count, from `/proc/self/status`.
pub fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// The sockets this process holds open, from `/proc/self/fd`.
pub fn sockets() -> usize {
    let fds = std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd");
    let link = |fd: std::fs::DirEntry| std::fs::read_link(fd.path()).ok();
    fds.filter_map(|fd| link(fd.ok()?))
        .filter(|l| l.to_string_lossy().starts_with("socket:"))
        .count()
}
