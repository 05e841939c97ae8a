//! Reading and writing one frame on a socket.
//!
//! The layout — `u32` payload length, `u64` request id, `u64` service
//! time, payload — and its limits are [`pls_wire::wire`]'s; this module is
//! the only code that moves a frame through a [`Read`] or a [`Write`].

use std::io::{ErrorKind, IoSlice, Read, Write};

use pls_wire::error::ClusterError;
use pls_wire::wire::{FRAME_OVERHEAD, MAX_FRAME};

const HEADER: usize = FRAME_OVERHEAD as usize;

/// Writes one frame (length prefix + request id + service time +
/// payload) to a stream as one vectored write of the 20-byte header and
/// the payload (more only when the stream takes part of it).
/// `service_us` is zero on requests; replies carry the server's handling
/// time in microseconds.
///
/// # Errors
///
/// [`ClusterError::FrameTooLarge`] when the payload exceeds
/// [`MAX_FRAME`]; I/O errors otherwise.
pub fn write_frame<W: Write>(
    stream: &mut W,
    request_id: u64,
    service_us: u64,
    payload: &[u8],
) -> Result<(), ClusterError> {
    if payload.len() > MAX_FRAME {
        return Err(ClusterError::FrameTooLarge(payload.len()));
    }
    let mut header = [0u8; HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..12].copy_from_slice(&request_id.to_be_bytes());
    header[12..].copy_from_slice(&service_us.to_be_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(ClusterError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame from a stream, returning its request id, service
/// time, and payload. Returns `None` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// [`ClusterError::FrameTooLarge`] for oversized length prefixes; I/O
/// errors otherwise (including EOF mid-frame).
pub fn read_frame<R: Read>(stream: &mut R) -> Result<Option<(u64, u64, Vec<u8>)>, ClusterError> {
    let mut header = [0u8; HEADER];
    let mut filled = 0;
    while filled < HEADER {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ClusterError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(ClusterError::FrameTooLarge(len));
    }
    let request_id = u64::from_be_bytes(header[4..12].try_into().expect("8 bytes"));
    let service_us = u64::from_be_bytes(header[12..].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some((request_id, service_us, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory pipe: what was written is what is read, then EOF.
    /// Counts the `write` and `write_vectored` calls it saw.
    #[derive(Default)]
    struct Pipe {
        buf: std::collections::VecDeque<u8>,
        writes: usize,
    }

    impl Write for Pipe {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.buf.extend(data);
            Ok(data.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|buf| self.buf.extend(&buf[..]));
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for Pipe {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.buf.read(out)
        }
    }

    #[test]
    fn frame_roundtrip_over_duplex() {
        let mut pipe = Pipe::default();
        write_frame(&mut pipe, 42, 0, b"abc").unwrap();
        write_frame(&mut pipe, u64::MAX, 0, b"").unwrap();
        let (id1, _, f1) = read_frame(&mut pipe).unwrap().unwrap();
        assert_eq!(id1, 42);
        assert_eq!(f1, b"abc");
        let (id2, _, f2) = read_frame(&mut pipe).unwrap().unwrap();
        assert_eq!(id2, u64::MAX);
        assert!(f2.is_empty());
        assert!(read_frame(&mut pipe).unwrap().is_none());
    }

    #[test]
    fn service_time_roundtrips() {
        let mut pipe = Pipe::default();
        write_frame(&mut pipe, 7, 1234, b"reply").unwrap();
        write_frame(&mut pipe, 8, 0, b"req").unwrap();
        let (id, service_us, payload) = read_frame(&mut pipe).unwrap().unwrap();
        assert_eq!((id, service_us, &payload[..]), (7, 1234, &b"reply"[..]));
        let (id, service_us, payload) = read_frame(&mut pipe).unwrap().unwrap();
        assert_eq!((id, service_us, &payload[..]), (8, 0, &b"req"[..]));
        assert!(read_frame(&mut pipe).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected_on_write() {
        let mut pipe = Pipe::default();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(write_frame(&mut pipe, 1, 0, &big), Err(ClusterError::FrameTooLarge(_))));
        assert_eq!(pipe.writes, 0);
    }

    #[test]
    fn eof_inside_frame_header_is_an_error() {
        // Length says 3 bytes follow the id, but the writer dies after
        // the length prefix: the reader must not report a clean EOF.
        let mut pipe = Pipe::default();
        pipe.write_all(&3u32.to_be_bytes()).unwrap();
        assert!(read_frame(&mut pipe).is_err());
    }

    #[test]
    fn a_frame_is_one_write() {
        // One request/response exchange costs two vectored writes (one a
        // side); the header-then-payload writer it replaces issued four,
        // and the integer-at-a-time one before it eight and two flushes.
        let mut pipe = Pipe::default();
        write_frame(&mut pipe, 1, 0, &[0u8; 300]).unwrap();
        assert_eq!(pipe.writes, 1);
        write_frame(&mut pipe, 1, 9, &[0u8; 300]).unwrap();
        assert_eq!(pipe.writes, 2);
        let (id, service_us, payload) = read_frame(&mut pipe).unwrap().unwrap();
        assert_eq!((id, service_us, payload.len()), (1, 0, 300));
    }

    #[test]
    fn a_short_write_resumes_where_it_stopped() {
        // A stream that takes 7 bytes a call: the frame still arrives whole.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                let n = data.len().min(7);
                self.0.extend(&data[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut trickle = Trickle(Vec::new());
        write_frame(&mut trickle, 5, 6, b"a payload of some length").unwrap();
        let (id, service_us, payload) = read_frame(&mut &trickle.0[..]).unwrap().unwrap();
        assert_eq!((id, service_us, &payload[..]), (5, 6, &b"a payload of some length"[..]));
    }
}
