//! Reading and writing one frame on a socket.
//!
//! The layout — `u32` payload length, `u64` request id, `u64` service
//! time, payload — and its limits are [`crate::wire`]'s; this module is
//! the only code that moves a frame through tokio.

use tokio::io::{AsyncReadExt, AsyncWriteExt};

use crate::error::ClusterError;
use crate::wire::MAX_FRAME;

/// Writes one frame (length prefix + request id + service time +
/// payload) to a stream. `service_us` is zero on requests; replies
/// carry the server's handling time in microseconds.
///
/// # Errors
///
/// [`ClusterError::FrameTooLarge`] when the payload exceeds
/// [`MAX_FRAME`]; I/O errors otherwise.
pub async fn write_frame<W: AsyncWriteExt + Unpin>(
    stream: &mut W,
    request_id: u64,
    service_us: u64,
    payload: &[u8],
) -> Result<(), ClusterError> {
    if payload.len() > MAX_FRAME {
        return Err(ClusterError::FrameTooLarge(payload.len()));
    }
    stream.write_u32(payload.len() as u32).await?;
    stream.write_u64(request_id).await?;
    stream.write_u64(service_us).await?;
    stream.write_all(payload).await?;
    stream.flush().await?;
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
pub async fn read_frame<R: AsyncReadExt + Unpin>(
    stream: &mut R,
) -> Result<Option<(u64, u64, Vec<u8>)>, ClusterError> {
    let len = match stream.read_u32().await {
        Ok(len) => len as usize,
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if len > MAX_FRAME {
        return Err(ClusterError::FrameTooLarge(len));
    }
    let request_id = stream.read_u64().await?;
    let service_us = stream.read_u64().await?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).await?;
    Ok(Some((request_id, service_us, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn frame_roundtrip_over_duplex() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        write_frame(&mut a, 42, 0, b"abc").await.unwrap();
        write_frame(&mut a, u64::MAX, 0, b"").await.unwrap();
        let (id1, _, f1) = read_frame(&mut b).await.unwrap().unwrap();
        assert_eq!(id1, 42);
        assert_eq!(f1, b"abc");
        let (id2, _, f2) = read_frame(&mut b).await.unwrap().unwrap();
        assert_eq!(id2, u64::MAX);
        assert!(f2.is_empty());
        drop(a);
        assert!(read_frame(&mut b).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn service_time_roundtrips() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        write_frame(&mut a, 7, 1234, b"reply").await.unwrap();
        write_frame(&mut a, 8, 0, b"req").await.unwrap();
        let (id, service_us, payload) = read_frame(&mut b).await.unwrap().unwrap();
        assert_eq!((id, service_us, &payload[..]), (7, 1234, &b"reply"[..]));
        let (id, service_us, payload) = read_frame(&mut b).await.unwrap().unwrap();
        assert_eq!((id, service_us, &payload[..]), (8, 0, &b"req"[..]));
        drop(a);
        assert!(read_frame(&mut b).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn oversized_frame_rejected_on_write() {
        let (mut a, _b) = tokio::io::duplex(64);
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut a, 1, 0, &big).await,
            Err(ClusterError::FrameTooLarge(_))
        ));
    }

    #[tokio::test]
    async fn eof_inside_frame_header_is_an_error() {
        // Length says 3 bytes follow the id, but the writer dies after
        // the length prefix: the reader must not report a clean EOF.
        let (mut a, mut b) = tokio::io::duplex(64);
        a.write_u32(3).await.unwrap();
        drop(a);
        assert!(read_frame(&mut b).await.is_err());
    }
}
