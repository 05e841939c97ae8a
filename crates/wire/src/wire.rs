//! The frame layout and the primitive encoding, on `&[u8]` and `Vec<u8>`.
//!
//! This module does no I/O: the caller reads a frame into a `Vec<u8>` and
//! hands the payload to a [`Reader`], or fills a [`Writer`] and sends what
//! [`Writer::into_payload`] returns (over TCP, `pls_cluster::frame`).
//!
//! Frames are a `u32` big-endian payload length, a `u64` big-endian
//! **request id**, a `u64` big-endian **service time** in microseconds,
//! and then that many payload bytes. The id travels in the frame header
//! — outside the request/response payloads — so every hop (client
//! call, internal fan-out, response) carries its originating request's
//! id without any message-type changes; servers echo the id of the
//! request they are answering. The service-time field is zero on
//! requests; on replies the server stamps how long it spent handling
//! the request (decode → strategy execution → encode), letting the
//! caller split each RPC's wall time into network RTT versus server
//! work. Inside a payload, the primitives are:
//!
//! * `u8` / `u32` / `u64` — fixed-width big-endian;
//! * `bytes` — `u32` length + raw bytes;
//! * `list<T>` — `u32` count + each element.
//!
//! A hard frame-size limit ([`MAX_FRAME`]) guards both sides against
//! garbage lengths.

use crate::error::ClusterError;

/// Maximum frame payload accepted or produced (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes a frame occupies on the wire beyond its payload: the `u32`
/// length prefix, the `u64` request id, and the `u64` service time.
pub const FRAME_OVERHEAD: u64 = 20;

/// Decoding cursor over a frame payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ClusterError> {
        if self.buf.len() < n {
            return Err(ClusterError::Decode(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ClusterError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ClusterError> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().expect("took 4 bytes")))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ClusterError> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().expect("took 8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, ClusterError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads a list of byte strings.
    pub fn bytes_list(&mut self, what: &'static str) -> Result<Vec<Vec<u8>>, ClusterError> {
        let count = self.u32(what)? as usize;
        if count > MAX_FRAME / 4 {
            return Err(ClusterError::Decode(what));
        }
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(self.bytes(what)?);
        }
        Ok(out)
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self, what: &'static str) -> Result<(), ClusterError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::Decode(what))
        }
    }
}

/// Encoding buffer for a frame payload.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty payload buffer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(64) }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a list of byte strings.
    pub fn bytes_list(&mut self, vs: &[Vec<u8>]) -> &mut Self {
        self.u32(vs.len() as u32);
        for v in vs {
            self.bytes(v);
        }
        self
    }

    /// Finalizes the payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).u32(1234).u64(u64::MAX).bytes(b"hello").bytes_list(&[b"a".to_vec(), b"".to_vec()]);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert_eq!(r.u8("x").unwrap(), 7);
        assert_eq!(r.u32("x").unwrap(), 1234);
        assert_eq!(r.u64("x").unwrap(), u64::MAX);
        assert_eq!(r.bytes("x").unwrap(), b"hello");
        assert_eq!(r.bytes_list("x").unwrap(), vec![b"a".to_vec(), b"".to_vec()]);
        r.finish("x").unwrap();
    }

    #[test]
    fn truncated_payload_is_a_decode_error() {
        let mut w = Writer::new();
        w.u32(10);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert_eq!(r.u64("field").unwrap_err(), ClusterError::Decode("field"));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        r.u8("x").unwrap();
        assert!(r.finish("x").is_err());
    }

    #[test]
    fn bogus_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // as a bytes length
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(r.bytes("field").is_err());
    }
}
