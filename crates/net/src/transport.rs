//! Pluggable request transport behind [`crate::client::Client`].
//!
//! The paper's collection ran over real HTTP; the reproduction's studies
//! run over the deterministic [`crate::sim::SimNet`] fabric. This module
//! is the seam that lets the *same* client — and therefore the same
//! crawler, resolver, and campaign code — do both:
//!
//! * **sim** (the default, no [`Transport`] installed): requests are
//!   dispatched in-process through the fabric with virtual-clock latency
//!   accounting — byte-identical artifacts, exactly as before;
//! * **loopback** (`acctrade-httpd`'s `LoopbackTransport`): requests are
//!   serialized to HTTP/1.1 wire bytes and sent over real TCP sockets to
//!   a real server, with real concurrency and real backpressure.
//!
//! A transport answers three questions the client otherwise asks the
//! fabric: *send this request*, *what does this host's robots.txt say*,
//! and *what time is it* (for stamping `collected_unix` on records —
//! wall time on a real transport, so deterministic comparisons strip
//! it; see `crawler::merge::normalize_for_parity`).

use crate::error::NetResult;
use crate::http::{Request, Response};
use crate::robots::RobotsPolicy;

/// A way to get a [`Request`] to a server and a [`Response`] back.
///
/// Implementations must be `Send + Sync`: the sharded crawl engine
/// shares one transport across all worker threads
/// ([`crate::client::Client::fork_for_shard`] clones the handle).
pub trait Transport: Send + Sync {
    /// Short mode name (e.g. "loopback").
    fn mode(&self) -> &'static str;

    /// Send one request and wait for the response. Transport-level
    /// failures (refused, reset, deadline) map onto the same
    /// [`crate::error::NetError`] vocabulary the fabric uses, so retry
    /// and error-handling paths above the client are mode-agnostic.
    fn send(&self, req: &Request) -> NetResult<Response>;

    /// The robots policy governing `host`, when the transport can
    /// produce one (a real transport fetches and caches
    /// `/robots.txt`). `None` falls back to the client's fabric
    /// registry.
    fn robots(&self, _host: &str) -> Option<RobotsPolicy> {
        None
    }

    /// The transport's notion of "now" in unix seconds, used to stamp
    /// collection timestamps on records. `None` means "use the virtual
    /// clock" (the sim fabric); a real transport returns wall time.
    fn now_unix(&self) -> Option<i64> {
        None
    }
}
