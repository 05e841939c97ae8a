//! Errors of the networked deployment.

use std::error::Error;
use std::fmt;

/// Anything that can go wrong talking to (or serving) the cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// A frame exceeded the protocol's size limit.
    FrameTooLarge(usize),
    /// A payload failed to decode; names the offending field.
    Decode(&'static str),
    /// The remote answered with an application-level error.
    Remote(String),
    /// A deadline elapsed; names the phase that ran out of time
    /// (`"connect"`, `"rpc"`, `"op-budget"`).
    Timeout(&'static str),
    /// The peer's circuit breaker is open: recent consecutive failures
    /// mean calls fast-fail without touching the network until the
    /// breaker's cooldown admits a half-open trial.
    PeerUnhealthy,
    /// No server could be reached for the operation.
    NoServerAvailable,
    /// The service-level operation failed (e.g. invalid strategy config).
    Service(pls_core::ServiceError),
    /// Configuration was invalid.
    Config(pls_core::ConfigError),
}

impl PartialEq for ClusterError {
    fn eq(&self, other: &Self) -> bool {
        use ClusterError as E;
        match (self, other) {
            (E::Io(a), E::Io(b)) => a.kind() == b.kind(),
            (E::FrameTooLarge(a), E::FrameTooLarge(b)) => a == b,
            (E::Decode(a), E::Decode(b)) => a == b,
            (E::Remote(a), E::Remote(b)) => a == b,
            (E::Timeout(a), E::Timeout(b)) => a == b,
            (E::PeerUnhealthy, E::PeerUnhealthy) => true,
            (E::NoServerAvailable, E::NoServerAvailable) => true,
            (E::Service(a), E::Service(b)) => a == b,
            (E::Config(a), E::Config(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            ClusterError::Decode(what) => write!(f, "malformed frame while decoding {what}"),
            ClusterError::Remote(msg) => write!(f, "remote error: {msg}"),
            ClusterError::Timeout(phase) => write!(f, "{phase} deadline exceeded"),
            ClusterError::PeerUnhealthy => write!(f, "peer circuit breaker open"),
            ClusterError::NoServerAvailable => write!(f, "no server available"),
            ClusterError::Service(e) => write!(f, "service error: {e}"),
            ClusterError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            ClusterError::Service(e) => Some(e),
            ClusterError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl ClusterError {
    /// Whether the peer looked *unavailable* — unreachable, silent past
    /// its deadline, or fast-failed by its circuit breaker. These are
    /// the errors worth retrying on another attempt or another server;
    /// they are also what feeds a peer's breaker.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, ClusterError::Io(_) | ClusterError::Timeout(_) | ClusterError::PeerUnhealthy)
    }

    /// Whether the error is attributable to the probed peer (down,
    /// slow, byzantine, or answering with an error) rather than to the
    /// request itself. Lookup procedures skip such a server and move on
    /// — the §3.1 "keep on selecting another server" rule extended from
    /// crashed peers to slow and misbehaving ones.
    pub fn is_peer_fault(&self) -> bool {
        self.is_unavailable()
            || matches!(
                self,
                ClusterError::Decode(_) | ClusterError::FrameTooLarge(_) | ClusterError::Remote(_)
            )
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<pls_core::ServiceError> for ClusterError {
    fn from(e: pls_core::ServiceError) -> Self {
        ClusterError::Service(e)
    }
}

impl From<pls_core::ConfigError> for ClusterError {
    fn from(e: pls_core::ConfigError) -> Self {
        ClusterError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(ClusterError::Decode("key").to_string(), "malformed frame while decoding key");
        assert_eq!(ClusterError::NoServerAvailable.to_string(), "no server available");
        assert_eq!(ClusterError::Remote("boom".into()).to_string(), "remote error: boom");
    }

    #[test]
    fn timeout_display_and_classification() {
        assert_eq!(ClusterError::Timeout("rpc").to_string(), "rpc deadline exceeded");
        assert_eq!(ClusterError::PeerUnhealthy.to_string(), "peer circuit breaker open");
        assert_eq!(ClusterError::Timeout("rpc"), ClusterError::Timeout("rpc"));
        assert_ne!(ClusterError::Timeout("rpc"), ClusterError::Timeout("connect"));

        assert!(ClusterError::Timeout("rpc").is_unavailable());
        assert!(ClusterError::PeerUnhealthy.is_unavailable());
        assert!(ClusterError::Io(std::io::ErrorKind::ConnectionRefused.into()).is_unavailable());
        assert!(!ClusterError::Remote("x".into()).is_unavailable());

        assert!(ClusterError::Remote("x".into()).is_peer_fault());
        assert!(ClusterError::Decode("field").is_peer_fault());
        assert!(ClusterError::FrameTooLarge(99).is_peer_fault());
        assert!(!ClusterError::NoServerAvailable.is_peer_fault());
        assert!(!ClusterError::Service(pls_core::ServiceError::ZeroTarget).is_peer_fault());
    }

    #[test]
    fn equality_by_kind() {
        let a = ClusterError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "x"));
        let b = ClusterError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "y"));
        assert_eq!(a, b);
        assert_ne!(a, ClusterError::NoServerAvailable);
    }
}
