//! The HTTP/1.1 server: acceptor, worker pool, serve loop, shutdown.
//!
//! One acceptor thread blocks on [`std::net::TcpListener::accept`] and
//! pushes sockets onto the bounded [`crate::pool::ConnQueue`]; `workers`
//! threads pop connections and run the serve loop — incremental parse,
//! virtual-host dispatch into the mounted
//! [`acctrade_net::server::Service`]s, keep-alive with idle timeout,
//! pipelining, per-connection read/write deadlines. [`HttpServer::shutdown`]
//! drains gracefully: the acceptor stops, queued connections are still
//! served, in-flight requests complete and are answered with
//! `connection: close`, then all threads are joined.
//!
//! This module (with [`crate::transport`]) is the workspace's sole
//! legitimate user of real sockets and wall time — see the crate docs
//! for the conformance allowlist that scopes it.

// conformance: reactor-path — no blocking calls; the accept loop/parsers must never stall a lane

// conformance: atomics(relaxed, acquire, release) — shutdown flag is release-published, acquire-observed; stats are relaxed

use crate::ops::{OpsPlane, OpsService, OPS_HOST};
use crate::parser::RequestParser;
use crate::pool::ConnQueue;
use crate::stats::ServerStats;
use acctrade_net::clock::SimClock;
use acctrade_net::http::{self, Method, Response, Status};
use acctrade_net::server::{RequestCtx, Service};
use acctrade_net::sim::SimNet;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the serve loop gets `RequestCtx::now_us` from.
///
/// `Virtual` shares the study's [`SimClock`] handle, so loopback-served
/// responses see the same virtual timeline as sim-dispatched ones —
/// this is what makes sim/loopback parity possible. `Wall` stamps real
/// time (demo `--serve` mode).
#[derive(Clone)]
pub enum TimeSource {
    /// Share a study's virtual clock.
    Virtual(SimClock),
    /// Wall clock (unix microseconds).
    Wall,
}

impl TimeSource {
    fn now_us(&self) -> u64 {
        match self {
            TimeSource::Virtual(clock) => clock.now_us(),
            TimeSource::Wall => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
        }
    }
}

/// Virtual-host routing table: hostname → mounted service.
///
/// Services are `Arc`-shared, so a table built from a live
/// [`SimNet`] observes the same mutable site state (market churn,
/// account registries) as sim-mode dispatch.
#[derive(Clone, Default)]
pub struct HostTable {
    hosts: BTreeMap<String, Arc<dyn Service>>,
}

impl HostTable {
    /// Empty table.
    pub fn new() -> HostTable {
        HostTable::default()
    }

    /// Mount every service currently deployed on a [`SimNet`], sharing
    /// the fabric's `Arc`s (not copies).
    pub fn from_sim(net: &SimNet) -> HostTable {
        let mut table = HostTable::new();
        for (host, svc) in net.services() {
            table.hosts.insert(host, svc);
        }
        table
    }

    /// Mount a single service under `host`, builder-style.
    pub fn with_service(mut self, host: &str, svc: Arc<dyn Service>) -> HostTable {
        self.hosts.insert(host.to_ascii_lowercase(), svc);
        self
    }

    /// Hostnames currently mounted, sorted.
    pub fn hosts(&self) -> Vec<String> {
        self.hosts.keys().cloned().collect()
    }

    fn lookup(&self, host: &str) -> Option<&Arc<dyn Service>> {
        self.hosts.get(host)
    }
}

/// Tunables for one [`HttpServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded connection-queue capacity; beyond it the acceptor sheds.
    pub queue_capacity: usize,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Deadline for reading one full request once its first byte arrived.
    pub read_timeout: Duration,
    /// Socket write timeout for one response.
    pub write_timeout: Duration,
    /// Where `RequestCtx::now_us` comes from.
    pub time: TimeSource,
    /// Optional live ops plane: mounts the [`OPS_HOST`] virtual host
    /// (`/metrics`, `/healthz`, `/statz`, `/tracez`) and turns on
    /// per-request phase spans (parse/route/handle/write) feeding its
    /// server recorder and trace ring. `None` (the default) serves with
    /// zero instrumentation overhead.
    pub ops: Option<OpsPlane>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            idle_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            time: TimeSource::Wall,
            ops: None,
        }
    }
}

/// A running server: acceptor + workers, stoppable via [`Self::shutdown`].
pub struct HttpServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    queue: Arc<ConnQueue<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`), spawn the acceptor and worker
    /// threads, and start serving `hosts`.
    pub fn bind(addr: &str, hosts: HostTable, config: ServerConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(config.queue_capacity.max(1)));
        // Mount the ops virtual host when a plane is configured, and
        // hand it the live stats + queue so /statz sees this server.
        let hosts = match &config.ops {
            Some(plane) => {
                plane.attach_server(Arc::clone(&stats), Arc::clone(&queue));
                hosts.with_service(OPS_HOST, Arc::new(OpsService::new(plane.clone())))
            }
            None => hosts,
        };
        let hosts = Arc::new(hosts);

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let hosts = Arc::clone(&hosts);
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        serve_connection(conn, &hosts, &config, &stats, &shutdown);
                    }
                })
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    match queue.push(conn) {
                        Ok(depth) => stats.observe_queue_depth(depth as u64),
                        Err(conn) => {
                            // Shed load: refuse politely rather than
                            // leaving the client to hang.
                            stats.queue_rejected.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::status(Status::ServiceUnavailable)
                                .with_text("server overloaded")
                                .with_header("connection", "close");
                            let mut conn = conn;
                            let _ = conn.write_all(&http::encode_response(&resp));
                            let _ = conn.shutdown(Shutdown::Both);
                        }
                    }
                }
            })
        };

        Ok(HttpServer { addr, stats, shutdown, queue, acceptor: Some(acceptor), workers })
    }

    /// The bound socket address (query the OS-assigned port after
    /// binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// queued, let in-flight requests complete (they are answered with
    /// `connection: close`), join all threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        self.queue.close();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Outcome of one bounded read attempt.
enum ReadOutcome {
    /// `n` fresh bytes.
    Data(usize),
    /// Peer closed its write side.
    Eof,
    /// The deadline elapsed with no data.
    TimedOut,
    /// Shutdown was requested while waiting.
    ShutdownRequested,
    /// Hard socket error.
    Failed,
}

/// Read with a deadline, polling in short slices so both the deadline
/// and the shutdown flag are honored promptly even while blocked.
fn read_bounded(
    conn: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    shutdown: &AtomicBool,
) -> ReadOutcome {
    const SLICE: Duration = Duration::from_millis(15);
    loop {
        if shutdown.load(Ordering::Acquire) {
            return ReadOutcome::ShutdownRequested;
        }
        let now = Instant::now();
        if now >= deadline {
            return ReadOutcome::TimedOut;
        }
        let _ = conn.set_read_timeout(Some(SLICE.min(deadline - now)));
        match conn.read(buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => return ReadOutcome::Data(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Failed,
        }
    }
}

/// Serve one connection to completion: parse, dispatch, keep-alive.
fn serve_connection(
    mut conn: TcpStream,
    hosts: &HostTable,
    config: &ServerConfig,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_write_timeout(Some(config.write_timeout));
    let peer = conn.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());

    let mut parser = RequestParser::new();
    let mut buf = [0u8; 8192];
    let mut served_on_conn: u64 = 0;

    'conn: loop {
        // Drain everything already buffered (pipelining) before
        // touching the socket again.
        loop {
            let parse_started = Instant::now();
            match parser.next_request() {
                Ok(Some(req)) => {
                    let parse_us = parse_started.elapsed().as_micros() as u64;
                    let (resp, phases) = dispatch(&req, hosts, config, &peer);
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    served_on_conn += 1;
                    if served_on_conn > 1 {
                        stats.keepalive_reuse.fetch_add(1, Ordering::Relaxed);
                    }
                    // Honor the draining contract: during shutdown the
                    // request is still answered, but the connection is
                    // told this is the last exchange.
                    let draining = shutdown.load(Ordering::Acquire);
                    let keep = req.keep_alive && !draining;
                    let mut resp =
                        resp.with_header("connection", if keep { "keep-alive" } else { "close" });
                    if req.method == Method::Head {
                        resp.body.clear();
                    }
                    let write_started = Instant::now();
                    let write_ok = conn.write_all(&http::encode_response(&resp)).is_ok();
                    if let Some(ops) = &config.ops {
                        let write_us = write_started.elapsed().as_micros() as u64;
                        record_request_span(
                            ops,
                            &req,
                            resp.status,
                            parse_started,
                            [parse_us, phases.route_us, phases.handle_us, write_us],
                            phases.now_us,
                        );
                    }
                    if !write_ok {
                        break 'conn;
                    }
                    if !keep {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    stats.parse_rejects.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::status(Status::BadRequest)
                        .with_text(format!("bad request: {err}"))
                        .with_header("connection", "close");
                    let _ = conn.write_all(&http::encode_response(&resp));
                    break 'conn;
                }
            }
        }

        // Mid-request reads get the (short) read deadline; waiting for
        // the next request on an idle keep-alive connection gets the
        // idle deadline.
        let deadline = if parser.buffered() > 0 {
            Instant::now() + config.read_timeout
        } else {
            Instant::now() + config.idle_timeout
        };
        match read_bounded(&mut conn, &mut buf, deadline, shutdown) {
            ReadOutcome::Data(n) => parser.feed(&buf[..n]),
            ReadOutcome::Eof => break,
            ReadOutcome::TimedOut => {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            ReadOutcome::ShutdownRequested => {
                // Nothing in flight (we only get here between
                // requests); close the idle connection.
                break;
            }
            ReadOutcome::Failed => break,
        }
    }
    let _ = conn.shutdown(Shutdown::Both);
}

/// Per-request phase timings measured by [`dispatch`].
struct PhaseTimes {
    /// Host lookup + request-target parse, µs.
    route_us: u64,
    /// Service handler, µs.
    handle_us: u64,
    /// The `RequestCtx` timestamp handed to the handler.
    now_us: u64,
}

/// Route a parsed request to the mounted service and produce a
/// response, timing the route and handle phases.
fn dispatch(
    req: &crate::parser::ParsedRequest,
    hosts: &HostTable,
    config: &ServerConfig,
    peer: &str,
) -> (Response, PhaseTimes) {
    let route_started = Instant::now();
    let now_us = config.time.now_us();
    let mut phases = PhaseTimes { route_us: 0, handle_us: 0, now_us };
    let Some(svc) = hosts.lookup(&req.host) else {
        phases.route_us = route_started.elapsed().as_micros() as u64;
        return (Response::not_found(&format!("no such host: {}", req.host)), phases);
    };
    let Some(net_req) = req.to_request() else {
        phases.route_us = route_started.elapsed().as_micros() as u64;
        return (
            Response::status(Status::BadRequest).with_text("unroutable request target"),
            phases,
        );
    };
    phases.route_us = route_started.elapsed().as_micros() as u64;
    let ctx = RequestCtx { now_us, peer: peer.to_string(), via_tor: false };
    let handle_started = Instant::now();
    let resp = svc.handle(&net_req, &ctx);
    phases.handle_us = handle_started.elapsed().as_micros() as u64;
    (resp, phases)
}

/// Feed one served request into the ops plane: phase histograms and a
/// per-status tally in the server recorder, plus a completed
/// `http.request` span in the trace ring (and, over the threshold, the
/// slow-request log).
fn record_request_span(
    ops: &OpsPlane,
    req: &crate::parser::ParsedRequest,
    status: Status,
    request_started: Instant,
    phase_us: [u64; 4],
    virtual_us: u64,
) {
    let rec = ops.server_recorder();
    let [parse_us, route_us, handle_us, write_us] = phase_us;
    for (phase, us) in
        [("parse", parse_us), ("route", route_us), ("handle", handle_us), ("write", write_us)]
    {
        rec.observe("httpd.phase_us", &[("phase", phase)], us);
    }
    let code = status.code().to_string();
    rec.incr("httpd.requests", &[("host", &req.host), ("status", &code)], 1);
    let total_us = request_started.elapsed().as_micros() as u64;
    let tracer = ops.tracer();
    tracer.record_complete(
        "http.request",
        telemetry::TraceCat::Http,
        tracer.wall_now_us().saturating_sub(total_us),
        total_us,
        virtual_us,
        0,
        format!("{} {} -> {}", req.host, req.target, code),
    );
}
