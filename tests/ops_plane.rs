//! The live ops plane, end to end: Prometheus exposition goldens, the
//! trace ring under concurrent producers, `/metrics`-vs-manifest
//! reconciliation over a real socket, and the virtual-time trace's
//! determinism contract.

use acctrade::core::{Study, StudyConfig};
use acctrade::httpd::{
    HostTable, HttpServer, LoopbackTransport, OpsPlane, OpsService, ServerConfig, TimeSource,
    OPS_HOST,
};
use acctrade::net::http::Request;
use acctrade::net::server::{RequestCtx, Service};
use acctrade::net::transport::Transport;
use acctrade::net::url::Url;
use acctrade::telemetry;
use foundation::json::Json;

/// The exposition renderer is a golden format: sorted families, sorted
/// sample lines, `# TYPE` headers, summary-style histograms. Pin the
/// exact bytes so a formatting drift (which would silently break every
/// scrape consumer and the reconciliation join) fails loudly.
#[test]
fn prometheus_exposition_matches_golden() {
    let rec = telemetry::Recorder::new();
    rec.incr("crawl.pages", &[("marketplace", "Accsmarket")], 12);
    rec.incr("net.requests", &[], 70);
    rec.gauge_set("crawl.frontier_peak", &[], 17.5);
    rec.observe("net.latency_us", &[], 300);
    rec.observe("net.latency_us", &[], 700);
    let golden = "\
# TYPE crawl_frontier_peak gauge
crawl_frontier_peak{source=\"campaign\"} 17.5
# TYPE crawl_pages counter
crawl_pages{marketplace=\"Accsmarket\",source=\"campaign\"} 12
# TYPE net_latency_us summary
net_latency_us_count{source=\"campaign\"} 2
net_latency_us_max{source=\"campaign\"} 700
net_latency_us_min{source=\"campaign\"} 300
net_latency_us_sum{source=\"campaign\"} 1000
net_latency_us{quantile=\"0.5\",source=\"campaign\"} 511
net_latency_us{quantile=\"0.9\",source=\"campaign\"} 700
net_latency_us{quantile=\"0.99\",source=\"campaign\"} 700
# TYPE net_requests counter
net_requests{source=\"campaign\"} 70
";
    let rendered = telemetry::render_prometheus(&[("campaign", &rec)]);
    assert_eq!(rendered, golden);
    // Same registry state, same bytes — the property mid-run scrapes
    // and the reconciliation gate both rest on.
    assert_eq!(telemetry::render_prometheus(&[("campaign", &rec)]), rendered);
}

fn ops_get(svc: &OpsService, path: &str) -> String {
    let url = Url::parse(&format!("http://{OPS_HOST}{path}")).unwrap();
    let resp = svc.handle(&Request::get(url), &RequestCtx::test());
    assert_eq!(resp.status.code(), 200, "GET {path}");
    resp.text()
}

/// Eight producer threads hammer the trace ring while `/tracez` is
/// served concurrently: the lock-free SPSC rings must neither lose the
/// accounting (drained + dropped == produced) nor wedge a reader.
#[test]
fn tracez_survives_eight_concurrent_producers() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 500;

    let plane = OpsPlane::new();
    plane.set_slow_threshold_us(1_000);
    let svc = OpsService::new(plane.clone());

    let producers: Vec<_> = (0..THREADS)
        .map(|t| {
            let tracer = plane.tracer().clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    tracer.record_complete(
                        "stress.span",
                        telemetry::TraceCat::Http,
                        i,
                        // Every 100th span crosses the slow threshold.
                        if i % 100 == 0 { 2_000 } else { 5 },
                        0,
                        0,
                        format!("thread {t} span {i}"),
                    );
                }
            })
        })
        .collect();

    // Read the endpoint while producers are live — this interleaves
    // ring drains with in-flight writes.
    for _ in 0..50 {
        let doc = Json::parse(&ops_get(&svc, "/tracez")).expect("tracez JSON");
        assert!(doc.get("recent").and_then(Json::as_arr).is_some());
    }
    for p in producers {
        p.join().unwrap();
    }

    let doc = Json::parse(&ops_get(&svc, "/tracez")).expect("tracez JSON");
    let tracer = plane.tracer();
    tracer.drain();
    let produced = (THREADS as u64) * PER_THREAD;
    let accounted = tracer.retained_len() as u64 + tracer.dropped();
    assert_eq!(accounted, produced, "drained + dropped must equal produced");
    assert_eq!(tracer.threads(), THREADS);
    assert_eq!(doc.get("threads").and_then(Json::as_num), Some(THREADS as f64));
    let recent = doc.get("recent").and_then(Json::as_arr).unwrap();
    assert!(!recent.is_empty() && recent.len() <= 128);
    // 5 µs spans stay out of the slow log; the 2 ms ones land in it.
    assert!(!doc.get("slow").and_then(Json::as_arr).unwrap().is_empty());
}

/// The acceptance loop of the ops plane: run a persisted campaign with
/// the ops vhost mounted on a real socket, scrape `/metrics` over
/// loopback TCP, and reconcile every scraped `source="campaign"` counter
/// against the study's own `TELEMETRY_report.json` manifest — exactly,
/// except the `store.*` counters, which may run ahead.
#[test]
fn scraped_metrics_reconcile_with_manifest_over_real_socket() {
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();

    let plane = OpsPlane::new();
    plane.attach_campaign(rec.clone());
    rec.set_trace_sink(plane.tracer().clone());
    let server = HttpServer::bind(
        "127.0.0.1:0",
        HostTable::new(),
        ServerConfig {
            workers: 2,
            time: TimeSource::Wall,
            ops: Some(plane),
            ..ServerConfig::default()
        },
    )
    .expect("bind ops server");
    let transport = LoopbackTransport::new(server.addr());
    let scrape = |path: &str| {
        let url = Url::parse(&format!("http://{OPS_HOST}{path}")).unwrap();
        let resp = transport.send(&Request::get(url)).expect("ops scrape");
        assert_eq!(resp.status.code(), 200);
        resp.text()
    };
    // The plane is live before the study starts …
    assert!(scrape("/healthz").starts_with("ok"));

    let config = StudyConfig { seed: 606, scale: 0.01, iterations: 2, scam: Default::default() };
    let dir = std::env::temp_dir().join(format!("acctrade-ops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = Study::new(config).run_persisted(&dir).expect("persisted run");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = &report.telemetry;
    assert!(manifest.validate().is_ok());
    assert!(manifest.counters.iter().any(|c| c.key.starts_with("store.")));

    // … and the final scrape agrees with the exported manifest, counter
    // by counter.
    let mismatches = telemetry::reconcile_metrics(&scrape("/metrics"), manifest);
    assert!(mismatches.is_empty(), "/metrics disagrees with the manifest: {mismatches:?}");
    // The recorder's stage spans flowed into the trace ring too.
    let statz = Json::parse(&scrape("/statz")).expect("statz JSON");
    assert!(statz.get("requests").and_then(Json::as_num).unwrap_or(0.0) >= 2.0);
    let tracez = Json::parse(&scrape("/tracez")).expect("tracez JSON");
    assert!(!tracez.get("recent").and_then(Json::as_arr).unwrap().is_empty());
    server.shutdown();
}

/// The virtual-time Chrome trace is a pure function of the manifest's
/// deterministic view: byte-identical across a same-seed double run and
/// across 1 vs 4 crawl workers, and schema-valid.
#[test]
fn virtual_trace_is_byte_identical_across_runs_and_workers() {
    let config = StudyConfig { seed: 1213, scale: 0.01, iterations: 2, scam: Default::default() };
    let render = |workers: usize| {
        let manifest = Study::new(config).with_workers(workers).run().telemetry;
        telemetry::virtual_trace(&manifest).render_pretty() + "\n"
    };
    let a = render(1);
    assert_eq!(a, render(1), "same-seed double run must serialize identically");
    assert_eq!(a, render(4), "worker count must not leak into the virtual trace");
    let summary = telemetry::validate_trace(&a).expect("virtual trace validates");
    assert!(summary.starts_with("mode=virtual"));
}
