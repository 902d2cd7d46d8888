//! Integration tests: real sockets against the loopback server.

use acctrade_httpd::{HostTable, HttpServer, LoopbackTransport, ServerConfig, TimeSource};
use acctrade_net::error::NetError;
use acctrade_net::http::{Request, Status};
use acctrade_net::server::Router;
use acctrade_net::transport::Transport;
use acctrade_net::url::Url;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A small echo-ish site mounted for every test.
fn test_hosts() -> HostTable {
    let site = Router::new()
        .route("/hello", |_req, _ctx| {
            acctrade_net::http::Response::ok().with_text("hi there")
        })
        .route("/echo", |req: &Request, _ctx| {
            acctrade_net::http::Response::ok().with_text(format!(
                "{} {}",
                req.method,
                String::from_utf8_lossy(&req.body)
            ))
        });
    HostTable::new().with_service("test.example", Arc::new(site))
}

fn start(config: ServerConfig) -> HttpServer {
    HttpServer::bind("127.0.0.1:0", test_hosts(), config).expect("bind loopback")
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_millis(400),
        time: TimeSource::Virtual(acctrade_net::clock::SimClock::zero()),
        ..ServerConfig::default()
    }
}

/// Read exactly one content-length-framed response off a raw socket.
/// `carry` holds surplus bytes between calls (pipelined responses can
/// arrive in one segment). `Ok(None)` = clean EOF before any response
/// byte.
fn read_framed(
    conn: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut buf = [0u8; 4096];
    let mut need = None;
    loop {
        if let Some(total) = need {
            if carry.len() >= total {
                let rest = carry.split_off(total);
                return Ok(Some(std::mem::replace(carry, rest)));
            }
        } else if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..end]).to_string();
            let len: usize = head
                .split("\r\n")
                .find_map(|l| l.strip_prefix("content-length:"))
                .map(|v| v.trim().parse().expect("framed length"))
                .expect("response carries content-length");
            need = Some(end + 4 + len);
            continue;
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            if carry.is_empty() {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "partial response",
            ));
        }
        carry.extend_from_slice(&buf[..n]);
    }
}

/// [`read_framed`] for connections that never pipeline.
fn read_response(conn: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    read_framed(conn, &mut Vec::new())
}

fn status_of(wire: &[u8]) -> u16 {
    let line = String::from_utf8_lossy(&wire[..wire.len().min(32)]).to_string();
    line.split(' ').nth(1).and_then(|c| c.parse().ok()).expect("status line")
}

#[test]
fn serves_and_reuses_keepalive_connections() {
    let server = start(quick_config());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    for i in 0..3 {
        conn.write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
        let wire = read_response(&mut conn).unwrap().expect("response");
        assert_eq!(status_of(&wire), 200, "request {i}");
        assert!(wire.ends_with(b"hi there"));
    }
    drop(conn);
    server.shutdown();
}

#[test]
fn stats_count_accepts_requests_and_reuse() {
    let server = start(quick_config());
    let stats = server.stats();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    for _ in 0..3 {
        conn.write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
        read_response(&mut conn).unwrap().expect("response");
    }
    drop(conn);
    server.shutdown();
    let snap = stats.snapshot();
    assert_eq!(snap.accepted, 1);
    assert_eq!(snap.requests, 3);
    assert_eq!(snap.keepalive_reuse, 2);
}

#[test]
fn pipelined_requests_get_ordered_responses() {
    let server = start(quick_config());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(
        b"POST /echo HTTP/1.1\r\nhost: test.example\r\ncontent-length: 5\r\n\r\nfirst\
          GET /hello HTTP/1.1\r\nhost: test.example\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    let mut carry = Vec::new();
    let first = read_framed(&mut conn, &mut carry).unwrap().expect("first response");
    assert!(first.ends_with(b"POST first"), "got {:?}", String::from_utf8_lossy(&first));
    let second = read_framed(&mut conn, &mut carry).unwrap().expect("second response");
    assert!(second.ends_with(b"hi there"));
    // `connection: close` honored: the stream now EOFs.
    assert!(read_framed(&mut conn, &mut carry).unwrap().is_none());
    server.shutdown();
}

#[test]
fn malformed_request_gets_400_and_close() {
    let server = start(quick_config());
    let stats = server.stats();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"BREW /pot HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
    let wire = read_response(&mut conn).unwrap().expect("error response");
    assert_eq!(status_of(&wire), 400);
    assert!(read_response(&mut conn).unwrap().is_none(), "connection closed after 400");
    server.shutdown();
    assert_eq!(stats.snapshot().parse_rejects, 1);
}

#[test]
fn unknown_host_is_404_not_teardown() {
    let server = start(quick_config());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET /hello HTTP/1.1\r\nhost: nowhere.example\r\n\r\n").unwrap();
    let wire = read_response(&mut conn).unwrap().expect("response");
    assert_eq!(status_of(&wire), 404);
    // The connection survives: virtual-host misses are not protocol errors.
    conn.write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
    assert_eq!(status_of(&read_response(&mut conn).unwrap().expect("second")), 200);
    server.shutdown();
}

#[test]
fn idle_keepalive_connection_is_torn_down() {
    let mut config = quick_config();
    config.idle_timeout = Duration::from_millis(120);
    let server = start(config);
    let stats = server.stats();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
    read_response(&mut conn).unwrap().expect("response");
    // Sit idle past the timeout; the server must close the connection.
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(conn.read(&mut buf).unwrap(), 0, "server closed the idle connection");
    server.shutdown();
    assert_eq!(stats.snapshot().timeouts, 1);
}

#[test]
fn head_request_returns_no_body() {
    let server = start(quick_config());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"HEAD /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
    let wire = read_response(&mut conn).unwrap().expect("response");
    assert_eq!(status_of(&wire), 200);
    assert!(wire.ends_with(b"\r\n\r\n"), "no body bytes after the head");
    server.shutdown();
}

#[test]
fn loopback_transport_round_trips_and_pools() {
    let server = start(quick_config());
    let transport = LoopbackTransport::new(server.addr());
    assert_eq!(transport.mode(), "loopback");
    for _ in 0..3 {
        let req = Request::get(Url::http("test.example", "/hello"));
        let resp = transport.send(&req).expect("loopback send");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.text(), "hi there");
    }
    assert_eq!(transport.pooled(), 1, "keep-alive connection returned to the pool");
    assert!(transport.now_unix().is_some(), "loopback stamps wall time");
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.snapshot().accepted, 1);
}

/// A peer's `content-length` is its word, not a size the client trusts:
/// one past any buffer is a protocol error, not an overflow.
#[test]
fn loopback_transport_refuses_an_oversized_content_length() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let transport = LoopbackTransport::new(listener.local_addr().unwrap());
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut request = Vec::new();
        let mut buf = [0u8; 1024];
        while !request.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = conn.read(&mut buf).expect("read the request");
            assert!(n > 0, "the client hung up mid-request");
            request.extend_from_slice(&buf[..n]);
        }
        conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n")
            .expect("answer");
    });
    let err = transport.send(&Request::get(Url::http("test.example", "/hello"))).unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
    peer.join().expect("peer thread");
}

/// A peer that streams a head past the response ceiling without ever
/// ending it is refused as a protocol error. The client resumes its scan
/// for the head's end after each read, so the refusal costs time linear
/// in the ceiling.
#[test]
fn loopback_transport_refuses_an_unterminated_head_past_the_ceiling() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let transport = LoopbackTransport::new(listener.local_addr().unwrap());
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut request = Vec::new();
        let mut buf = [0u8; 1024];
        while !request.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = conn.read(&mut buf).expect("read the request");
            assert!(n > 0, "the client hung up mid-request");
            request.extend_from_slice(&buf[..n]);
        }
        // One header line that never ends, 9 MiB against the 8 MiB
        // ceiling; the client hangs up once it refuses, so writes may fail.
        let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nx-filler: ");
        let chunk = [b'a'; 64 * 1024];
        for _ in 0..(9 * 16) {
            if conn.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let err = transport.send(&Request::get(Url::http("test.example", "/hello"))).unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
    peer.join().expect("peer thread");
}

/// The drain guarantee: once a client has a served connection, shutdown
/// never leaves it with a *partial* response. Ends at a clean boundary
/// (full response or EOF between requests) for every client.
#[test]
fn graceful_shutdown_drains_inflight_connections() {
    let mut config = quick_config();
    config.workers = 4;
    let server = start(config);
    let addr = server.addr();
    let stats = server.stats();

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let completed = Arc::new(AtomicUsize::new(0));
    let partial = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let completed = Arc::clone(&completed);
            let partial = Arc::clone(&partial);
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                // Prove the connection is accepted and serving before
                // shutdown starts.
                conn.write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n").unwrap();
                read_response(&mut conn).unwrap().expect("warm-up response");
                barrier.wait();
                // Hammer the connection while the server shuts down.
                loop {
                    if conn
                        .write_all(b"GET /hello HTTP/1.1\r\nhost: test.example\r\n\r\n")
                        .is_err()
                    {
                        break; // server finished closing between requests — clean
                    }
                    match read_response(&mut conn) {
                        Ok(Some(wire)) => {
                            assert_eq!(status_of(&wire), 200);
                            completed.fetch_add(1, Ordering::Relaxed);
                            let head = String::from_utf8_lossy(&wire);
                            if head.contains("connection: close") {
                                break; // served, then told to go away — the drain path
                            }
                        }
                        Ok(None) => break, // clean EOF between requests
                        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                            partial.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(_) => break, // reset between requests — no partial bytes seen
                    }
                }
            })
        })
        .collect();

    barrier.wait();
    // Let the clients get requests in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    for h in handles {
        h.join().expect("client thread");
    }

    assert_eq!(partial.load(Ordering::Relaxed), 0, "a client saw a torn response");
    let snap = stats.snapshot();
    assert_eq!(snap.accepted, CLIENTS as u64);
    // Warm-ups plus whatever landed mid-shutdown all got full answers.
    assert!(snap.requests >= CLIENTS as u64);
    assert_eq!(snap.requests, CLIENTS as u64 + completed.load(Ordering::Relaxed) as u64);
}
