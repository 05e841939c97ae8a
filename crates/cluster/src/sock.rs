//! The two things every socket owner here needs: a stream whose every
//! blocking call is capped by one [`Deadline`], and an accept loop with
//! one thread per connection that can be stopped and joined.

use std::collections::HashMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_wire::retry::Deadline;

/// A stream under a deadline: the socket's read or write timeout is
/// re-armed to the time left before every call, so a peer that trickles
/// one byte at a time cannot stretch the caller past the deadline. Past
/// it, every call fails with [`ErrorKind::TimedOut`].
pub(crate) struct Bounded<'a> {
    pub stream: &'a TcpStream,
    pub deadline: Deadline,
}

impl Bounded<'_> {
    fn left(&self) -> std::io::Result<Duration> {
        let left = self.deadline.remaining();
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(left)
    }

    /// Whether the peer starts to answer (a byte, an end of stream or an
    /// error) before `wake` or the deadline: a peek, under a socket timeout.
    /// A socket whose timeout cannot be armed counts as answering, so it
    /// is read in place under the deadline.
    pub fn answers_by(&self, wake: Instant) -> bool {
        let left = wake.saturating_duration_since(Instant::now()).min(self.deadline.remaining());
        !left.is_zero()
            && (self.stream.set_read_timeout(Some(left)).is_err()
                || !matches!(self.stream.peek(&mut [0]), Err(e) if timed_out(&e)))
    }
}

impl Read for Bounded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Bounded<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Whether an I/O error is a socket timeout (`SO_RCVTIMEO` /
/// `SO_SNDTIMEO` expiry reads as either kind, by platform).
pub(crate) fn timed_out(err: &std::io::Error) -> bool {
    matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// An accept thread plus one thread per accepted connection. Stopping
/// (or dropping) it closes the listener, shuts every live connection's
/// socket down — which releases a thread parked in a read — and joins
/// every thread it started.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The connections being served, by accept order.
    live: Arc<Mutex<HashMap<u64, Arc<TcpStream>>>>,
    accept: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Starts accepting on `listener`, which is bound to `addr`. Every
    /// connection gets `TCP_NODELAY` and a thread running `serve`, and is
    /// shut down when `serve` returns; while `max_live` connections are
    /// being served, further ones are closed on accept (never queued). A
    /// failed `accept` is handed to `accept_failed`.
    pub fn spawn(
        listener: TcpListener,
        addr: SocketAddr,
        max_live: usize,
        serve: impl Fn(&TcpStream) + Send + Sync + 'static,
        accept_failed: impl Fn(std::io::Error) + Send + 'static,
    ) -> Acceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(Mutex::new(HashMap::new()));
        let (stopped, open) = (Arc::clone(&stop), Arc::clone(&live));
        // The scope joins every connection thread before the accept
        // thread ends.
        let accept = std::thread::spawn(move || {
            std::thread::scope(|threads| {
                for id in 0u64.. {
                    let accepted = listener.accept();
                    if stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    let socket = match accepted {
                        Ok((socket, _)) => Arc::new(socket),
                        Err(err) => {
                            accept_failed(err);
                            continue;
                        }
                    };
                    let mut serving = open.lock().expect("live connections lock");
                    if serving.len() >= max_live {
                        pls_telemetry::warn!("connection_shed", live = serving.len());
                        continue;
                    }
                    let _ = socket.set_nodelay(true);
                    serving.insert(id, Arc::clone(&socket));
                    let (serve, open) = (&serve, &open);
                    threads.spawn(move || {
                        serve(&socket);
                        let _ = socket.shutdown(Shutdown::Both);
                        open.lock().expect("live connections lock").remove(&id);
                    });
                }
            });
        });
        Acceptor { addr, stop, live, accept: Some(accept) }
    }

    /// Stops accepting, cuts every live connection, and joins every
    /// thread. Idempotent.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        // SeqCst: the accept thread must see the flag on the wake-up
        // connection below.
        self.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout: wake it with a connection of our own
        // (to loopback when bound to the wildcard address).
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !accept.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(200));
            for socket in self.live.lock().expect("live connections lock").values() {
                let _ = socket.shutdown(Shutdown::Both);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if accept.join().is_err() {
            pls_telemetry::warn!("connection_thread_panicked");
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}
