#![warn(missing_docs)]

//! # acctrade-net
//!
//! A deterministic, in-process network substrate for the `acctrade` workspace.
//!
//! The reproduced paper measured live web services: public marketplaces,
//! underground Tor forums, and the HTTP APIs of five social media platforms.
//! This crate provides the stand-in fabric those simulated services run on:
//!
//! * [`clock`] — a shared virtual clock; the whole study is a discrete-event
//!   simulation, so time is explicit and deterministic.
//! * [`url`] — a small, strict URL type (scheme/host/path/query) with `.onion`
//!   host awareness.
//! * [`http`] — request/response types, methods, status codes, headers, and
//!   wire framing on top of [`foundation::bytes::Bytes`].
//! * [`latency`] — seeded latency models (fixed, uniform, long-tailed) used by
//!   the fabric to charge virtual time per request.
//! * [`ratelimit`] — token-bucket rate limiting, used both by servers
//!   (throttling clients) and by the polite crawler (self-throttling).
//! * [`robots`] — a `robots.txt` subset (user-agent groups, allow/disallow,
//!   crawl-delay) honoured by the crawler.
//! * [`captcha`] — CAPTCHA challenge gates; automated clients never solve
//!   them (the paper's ethics constraint), manual sessions can.
//! * [`tor`] — an onion overlay: `.onion` hosts are only reachable through a
//!   [`tor::TorCircuit`], which adds multi-hop latency and strips client
//!   identity.
//! * [`server`] — the [`server::Service`] trait and a path-prefix
//!   [`server::Router`] for building simulated sites.
//! * [`client`] — a session-capable HTTP client (cookies, user-agent,
//!   redirects, politeness) that talks to the fabric.
//! * [`sim`] — [`sim::SimNet`], the fabric itself: host registry, per-host
//!   latency and rate limits, fault injection, request log.
//! * [`lane`] — deterministic per-shard execution lanes: a private RNG
//!   substream, virtual-time cursor, and buffered request log that let the
//!   parallel crawl engine run shards on worker threads without scheduling
//!   order ever leaking into the simulation.
//!
//! Everything is synchronous by design: the workload is CPU-bound
//! simulation, for which the async-runtime guides explicitly recommend
//! *not* reaching for an async runtime. Determinism comes from a single
//! seed threaded through `foundation::rng`; parallel crawls keep it by
//! confining each shard to its own [`lane::Lane`].
//!
//! ## Example
//!
//! ```
//! use acctrade_net::prelude::*;
//!
//! // A trivial service.
//! struct Hello;
//! impl Service for Hello {
//!     fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Response {
//!         Response::ok().with_text(format!("hello from {}", req.url.path()))
//!     }
//! }
//!
//! let net = SimNet::new(7);
//! net.register("example.com", Hello);
//! let client = Client::new(&net, "acctrade-crawler/0.1");
//! let resp = client.get("http://example.com/index").unwrap();
//! assert_eq!(resp.status, Status::Ok);
//! assert!(resp.text().contains("hello"));
//! ```

pub mod captcha;
pub mod clock;
pub mod client;
pub mod error;
pub mod http;
pub mod lane;
pub mod latency;
pub mod ratelimit;
pub mod robots;
pub mod server;
pub mod sim;
pub mod tor;
pub mod transport;
pub mod url;

/// Convenience re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::client::Client;
    pub use crate::clock::SimClock;
    pub use crate::error::{NetError, NetResult};
    pub use crate::http::{Method, Request, Response, Status};
    pub use crate::server::{RequestCtx, Router, Service};
    pub use crate::sim::SimNet;
    pub use crate::url::Url;
}

pub use client::Client;
pub use clock::SimClock;
pub use error::{NetError, NetResult};
pub use http::{Method, Request, Response, Status};
pub use server::{RequestCtx, Router, Service};
pub use sim::SimNet;
pub use transport::Transport;
pub use url::Url;
