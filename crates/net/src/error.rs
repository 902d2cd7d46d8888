//! Error types for the network substrate.

use std::fmt;

/// Result alias used throughout the crate.
pub type NetResult<T> = Result<T, NetError>;

/// Errors a simulated network operation can produce.
///
/// These mirror the failure modes a real measurement crawler meets in the
/// wild: DNS-style resolution failures, timeouts, connection resets,
/// protocol errors, and policy refusals (robots, Tor-only hosts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The host is not registered on the fabric (NXDOMAIN equivalent).
    HostUnreachable(String),
    /// The request exceeded its deadline (virtual-time timeout).
    /// Timeout.
    Timeout {
        /// Host the request was talking to.
        host: String,
        /// Virtual microseconds elapsed before giving up.
        after_us: u64,
    },
    /// The connection was reset mid-flight by fault injection.
    ConnectionReset(String),
    /// The URL could not be parsed.
    BadUrl(String),
    /// A `.onion` host was contacted without a Tor circuit.
    TorRequired(String),
    /// The client refused to fetch the URL because robots.txt disallows it.
    RobotsDisallowed(String),
    /// Too many redirects were followed.
    TooManyRedirects(String),
    /// A response could not be decoded (bad framing, invalid UTF-8 body when
    /// text was required, ...).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::HostUnreachable(h) => write!(f, "host unreachable: {h}"),
            NetError::Timeout { host, after_us } => {
                write!(f, "timeout talking to {host} after {after_us}us")
            }
            NetError::ConnectionReset(h) => write!(f, "connection reset by {h}"),
            NetError::BadUrl(u) => write!(f, "bad url: {u}"),
            NetError::TorRequired(h) => write!(f, "{h} is an onion service; a Tor circuit is required"),
            NetError::RobotsDisallowed(u) => write!(f, "robots.txt disallows {u}"),
            NetError::TooManyRedirects(u) => write!(f, "too many redirects from {u}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::Timeout { host: "x.com".into(), after_us: 5000 };
        let s = e.to_string();
        assert!(s.contains("x.com"));
        assert!(s.contains("5000"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            NetError::HostUnreachable("a".into()),
            NetError::HostUnreachable("a".into())
        );
        assert_ne!(
            NetError::HostUnreachable("a".into()),
            NetError::ConnectionReset("a".into())
        );
    }
}
