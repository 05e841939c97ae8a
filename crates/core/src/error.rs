//! Errors surfaced by the service interface.

use std::error::Error;
use std::fmt;

use crate::ConfigError;

/// Error performing a service operation (`place`, `add`, `delete`,
/// `partial_lookup`).
///
/// Note that retrieving *fewer than `t`* entries is **not** an error: the
/// paper treats it as a lookup *failure metric* (e.g. the cushion
/// experiment of Fig. 12) and the client still receives whatever was found
/// — check [`LookupResult::is_satisfied`]. An error is returned only when
/// the operation could not run at all.
///
/// [`LookupResult::is_satisfied`]: crate::LookupResult::is_satisfied
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Every server in the cluster has failed; there is nobody to ask.
    AllServersFailed,
    /// A lookup with `t == 0` was requested; the target answer size must
    /// be positive.
    ZeroTarget,
    /// A Round-Robin-y update was requested while the dedicated
    /// coordinator server (server 0, which holds the `head`/`tail`
    /// counters of Fig. 10) is down — the single-point-of-failure
    /// drawback the paper calls out in §5.4.
    CoordinatorUnavailable,
    /// The strategy assigned to this key is invalid for this many servers
    /// (per-key strategies are validated when the key is first used).
    /// The servers are fine; other keys keep working.
    InvalidStrategy(ConfigError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::AllServersFailed => write!(f, "all servers have failed"),
            ServiceError::ZeroTarget => write!(f, "target answer size must be positive"),
            ServiceError::CoordinatorUnavailable => {
                write!(f, "round-robin coordinator server is down")
            }
            ServiceError::InvalidStrategy(e) => write!(f, "invalid strategy for this key: {e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::InvalidStrategy(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        assert_eq!(ServiceError::AllServersFailed.to_string(), "all servers have failed");
        assert_eq!(ServiceError::ZeroTarget.to_string(), "target answer size must be positive");
        assert_eq!(
            ServiceError::CoordinatorUnavailable.to_string(),
            "round-robin coordinator server is down"
        );
        let bad =
            ServiceError::InvalidStrategy(ConfigError::InvalidParameter("y must be positive"));
        assert_eq!(
            bad.to_string(),
            "invalid strategy for this key: invalid parameter: y must be positive"
        );
        assert!(bad.source().is_some());
    }

    #[test]
    fn is_error_send_sync() {
        fn assert_good_error<E: Error + Send + Sync + 'static>() {}
        assert_good_error::<ServiceError>();
    }
}
