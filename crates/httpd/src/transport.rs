//! [`Transport`] over real loopback TCP.
//!
//! `LoopbackTransport` is the client half of the serving layer: it
//! serializes fabric [`Request`]s with [`http::encode_request`], sends
//! them to an [`crate::HttpServer`] over real sockets, and decodes the
//! wire bytes back into fabric [`Response`]s. Idle connections are kept
//! alive in a shared pool (so a crawl campaign exercises the server's
//! keep-alive path); a request that fails on a pooled connection —
//! typically because the server idle-timed it out between uses — is
//! retried exactly once on a fresh connection.
//!
//! Like [`crate::server`], this module legitimately touches wall time:
//! [`Transport::now_unix`] stamps real collection timestamps so
//! loopback artifacts are honest about when they were gathered;
//! deterministic comparisons strip them (see
//! `crawler::merge::normalize_for_parity`).

use acctrade_net::error::{NetError, NetResult};
use acctrade_net::http::{self, Request, Response};
use acctrade_net::robots::RobotsPolicy;
use acctrade_net::transport::Transport;
use acctrade_net::url::Url;
use foundation::sync::Mutex;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Ceiling on a decoded response (head + body) in bytes.
const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// A client-side transport speaking HTTP/1.1 to a loopback server.
pub struct LoopbackTransport {
    addr: SocketAddr,
    timeout: Duration,
    pool: Mutex<Vec<TcpStream>>,
    robots_cache: Mutex<BTreeMap<String, Option<RobotsPolicy>>>,
}

impl LoopbackTransport {
    /// Transport aimed at `addr` with a 2s per-request deadline.
    pub fn new(addr: SocketAddr) -> LoopbackTransport {
        LoopbackTransport::with_timeout(addr, Duration::from_secs(2))
    }

    /// Transport with an explicit per-request deadline (connect, write,
    /// and full-response read each get this budget).
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> LoopbackTransport {
        LoopbackTransport {
            addr,
            timeout,
            pool: Mutex::new(Vec::new()),
            robots_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Idle pooled connections (diagnostic, used by keep-alive tests).
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }

    fn connect(&self, host: &str) -> NetResult<TcpStream> {
        let conn = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| io_to_net(host, self.timeout, &e))?;
        let _ = conn.set_nodelay(true);
        let _ = conn.set_read_timeout(Some(self.timeout));
        let _ = conn.set_write_timeout(Some(self.timeout));
        Ok(conn)
    }

    /// One request/response exchange on `conn`. `Err` means the
    /// connection is unusable (the caller decides whether to retry).
    fn exchange(&self, conn: &mut TcpStream, req: &Request) -> std::io::Result<Vec<u8>> {
        conn.write_all(&http::encode_request(req))?;
        read_full_response(conn)
    }

    fn send_inner(&self, req: &Request) -> NetResult<Response> {
        let host = req.url.host().to_string();
        // First attempt on a pooled connection, if any; a pooled socket
        // may have been idle-closed by the server, so a failure here is
        // retried once on a fresh connection rather than surfaced.
        // (Guard dropped before the attempt: `finish` re-locks the pool.)
        let pooled = self.pool.lock().pop();
        if let Some(mut conn) = pooled {
            if let Ok(wire) = self.exchange(&mut conn, req) {
                return self.finish(conn, &wire);
            }
        }
        let mut conn = self.connect(&host)?;
        let wire =
            self.exchange(&mut conn, req).map_err(|e| io_to_net(&host, self.timeout, &e))?;
        self.finish(conn, &wire)
    }

    /// Decode the wire bytes; return the connection to the pool unless
    /// the server asked to close.
    fn finish(&self, conn: TcpStream, wire: &[u8]) -> NetResult<Response> {
        let resp = http::decode_response(wire)?;
        let close = resp
            .headers
            .get("connection")
            .map(|c| c.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        if !close {
            self.pool.lock().push(conn);
        }
        Ok(resp)
    }
}

impl Transport for LoopbackTransport {
    fn mode(&self) -> &'static str {
        "loopback"
    }

    fn send(&self, req: &Request) -> NetResult<Response> {
        self.send_inner(req)
    }

    /// Fetch and cache `http://<host>/robots.txt` over the wire, like a
    /// real crawler. A non-200 (or transport failure) caches as `None`,
    /// letting the client fall back to its fabric-side registry.
    fn robots(&self, host: &str) -> Option<RobotsPolicy> {
        if let Some(cached) = self.robots_cache.lock().get(host) {
            return cached.clone();
        }
        let fetched = Url::parse(&format!("http://{host}/robots.txt"))
            .ok()
            .and_then(|url| self.send_inner(&Request::get(url)).ok())
            .filter(|resp| resp.status.code() == 200)
            .map(|resp| RobotsPolicy::parse(&resp.text()));
        self.robots_cache.lock().insert(host.to_string(), fetched.clone());
        fetched
    }

    fn now_unix(&self) -> Option<i64> {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .map(|d| d.as_secs() as i64)
    }
}

/// Read one complete `content-length`-framed response.
fn read_full_response(conn: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let invalid = |msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut wire = Vec::with_capacity(1024);
    let mut buf = [0u8; 8192];
    let mut need: Option<usize> = None;
    loop {
        if let Some(total) = need {
            if wire.len() >= total {
                return Ok(wire);
            }
        } else if let Some(head_end) = wire.windows(4).position(|w| w == b"\r\n\r\n") {
            let body_len =
                content_length(&wire[..head_end]).ok_or_else(|| invalid("unframed response"))?;
            // The declared length is the peer's word: refuse it before
            // adding, so no length can overflow the total.
            if body_len > MAX_RESPONSE_BYTES {
                return Err(invalid("response exceeds size ceiling"));
            }
            need = Some(head_end + 4 + body_len);
            continue;
        }
        if wire.len() > MAX_RESPONSE_BYTES {
            return Err(invalid("response exceeds size ceiling"));
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        wire.extend_from_slice(&buf[..n]);
    }
}

/// Pull `content-length` out of raw head bytes.
fn content_length(head: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(head).ok()?;
    for line in head.split("\r\n").skip(1) {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("content-length") {
            return value.trim().parse().ok();
        }
    }
    None
}

/// Map socket errors onto the fabric's error vocabulary so retry logic
/// above the client stays mode-agnostic.
fn io_to_net(host: &str, timeout: Duration, e: &std::io::Error) -> NetError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout {
            host: host.to_string(),
            after_us: timeout.as_micros() as u64,
        },
        std::io::ErrorKind::InvalidData => NetError::Protocol(e.to_string()),
        _ => NetError::ConnectionReset(host.to_string()),
    }
}
