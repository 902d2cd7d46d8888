//! Serving-layer benches: request-parser throughput through the
//! standard harness, plus a keep-alive load run against a real
//! loopback `HttpServer` recording req/s and latency percentiles into
//! `BENCH_report.json` (`httpd/keepalive_throughput`).
//!
//! Like every `foundation::bench` bench this runs in two modes: quick
//! (what `cargo test` sees — a handful of requests, smoke only) and
//! full (`cargo bench -- --bench` via `ci.sh` — enough volume for
//! stable percentiles).

use acctrade_httpd::{HostTable, HttpServer, RequestParser, ServerConfig, TimeSource};
use acctrade_net::server::Router;
use foundation::bench::{criterion_group, Criterion};
use foundation::json::Json;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REQUEST: &[u8] = b"GET /offers?page=1 HTTP/1.1\r\nhost: bench.example\r\n\r\n";

fn bench_parser(c: &mut Criterion) {
    let mut group = c.benchmark_group("httpd");
    group.bench_function("parse_request", |b| {
        b.iter(|| {
            let mut p = RequestParser::new();
            p.feed(black_box(REQUEST));
            black_box(p.next_request().unwrap().unwrap())
        })
    });
    // Torn-read worst case: one byte per feed.
    group.bench_function("parse_request_byte_torn", |b| {
        b.iter(|| {
            let mut p = RequestParser::new();
            for chunk in REQUEST.chunks(1) {
                p.feed(chunk);
            }
            black_box(p.next_request().unwrap().unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parser);

/// The benched server: a static small-body route, 4 workers.
fn bench_server() -> HttpServer {
    let site = Router::new().route("/offers", |_req, _ctx| {
        acctrade_net::http::Response::ok()
            .with_html("<html><body><ul><li>offer</li></ul></body></html>")
    });
    let hosts = HostTable::new().with_service("bench.example", Arc::new(site));
    let config = ServerConfig {
        workers: 4,
        queue_capacity: 256,
        idle_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        time: TimeSource::Wall,
        ..ServerConfig::default()
    };
    HttpServer::bind("127.0.0.1:0", hosts, config).expect("bind bench server")
}

/// Read one content-length-framed response; returns bytes consumed.
fn read_one(conn: &mut TcpStream, scratch: &mut Vec<u8>) -> usize {
    let mut buf = [0u8; 4096];
    let mut need = None;
    loop {
        if let Some(total) = need {
            if scratch.len() >= total {
                let surplus = scratch.len() - total;
                scratch.drain(..total);
                debug_assert_eq!(surplus, scratch.len());
                return total;
            }
        } else if let Some(end) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            let len: usize = std::str::from_utf8(&scratch[..end])
                .ok()
                .and_then(|head| {
                    head.split("\r\n")
                        .find_map(|l| l.strip_prefix("content-length:"))
                        .and_then(|v| v.trim().parse().ok())
                })
                .expect("framed response");
            need = Some(end + 4 + len);
            continue;
        }
        let n = conn.read(&mut buf).expect("bench read");
        assert!(n > 0, "server closed mid-bench");
        scratch.extend_from_slice(&buf[..n]);
    }
}

/// Drive `requests` keep-alive requests over one connection, recording
/// per-request latency (ns).
fn client_run(addr: std::net::SocketAddr, requests: usize) -> Vec<u64> {
    let mut conn = TcpStream::connect(addr).expect("bench connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut scratch = Vec::with_capacity(4096);
    let mut latencies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let start = Instant::now();
        conn.write_all(REQUEST).expect("bench write");
        read_one(&mut conn, &mut scratch);
        latencies.push(start.elapsed().as_nanos() as u64);
    }
    latencies
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// The keep-alive load run: `conns` concurrent connections, `per_conn`
/// requests each; merges `httpd/keepalive_throughput` into the report.
fn record_keepalive_throughput(full: bool) {
    let (conns, per_conn) = if full { (4, 25_000) } else { (2, 50) };
    let server = bench_server();
    let addr = server.addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|_| std::thread::spawn(move || client_run(addr, per_conn)))
        .collect();
    let mut latencies: Vec<u64> =
        handles.into_iter().flat_map(|h| h.join().expect("bench client")).collect();
    let elapsed = started.elapsed();
    let stats = server.stats();
    server.shutdown();

    latencies.sort_unstable();
    let total = conns * per_conn;
    let req_per_s = total as f64 / elapsed.as_secs_f64().max(1e-9);
    let p50 = percentile_us(&latencies, 0.50);
    let p99 = percentile_us(&latencies, 0.99);
    let snap = stats.snapshot();
    assert_eq!(snap.requests, total as u64, "server answered every request exactly once");
    eprintln!(
        "[httpd] keep-alive: {total} requests over {conns} conns in {:.2}s → \
         {req_per_s:.0} req/s, p50 {p50:.0} µs, p99 {p99:.0} µs",
        elapsed.as_secs_f64()
    );

    let fields: Vec<(String, Json)> = vec![
        ("req_per_s".into(), Json::Num(req_per_s)),
        ("p50_us".into(), Json::Num(p50)),
        ("p99_us".into(), Json::Num(p99)),
        ("requests".into(), Json::Num(total as f64)),
        ("connections".into(), Json::Num(conns as f64)),
        ("server_workers".into(), Json::Num(4.0)),
        ("keepalive_reuse".into(), Json::Num(snap.keepalive_reuse as f64)),
    ];
    let path = std::env::var("BENCH_REPORT_PATH")
        .unwrap_or_else(|_| "BENCH_report.json".to_string());
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(existing) => match Json::parse(&existing) {
            Ok(Json::Obj(f)) => f,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let id = "httpd/keepalive_throughput".to_string();
    let value = Json::Obj(fields);
    match entries.iter_mut().find(|(k, _)| *k == id) {
        Some(slot) => slot.1 = value,
        None => entries.push((id, value)),
    }
    if let Err(err) = std::fs::write(&path, Json::Obj(entries).render_pretty() + "\n") {
        eprintln!("[bench] could not write {path}: {err}");
    }
}

fn main() {
    benches();
    let full = std::env::args().any(|a| a == "--bench");
    record_keepalive_throughput(full);
}
