//! `loopback-crawl`: the crawl campaign alone, through
//! `LoopbackTransport` against an `HttpServer` serving
//! `HostTable::from_sim` — the one workload where the httpd request
//! path, the wire codec and real sockets do the work. It bypasses
//! `SimNet::dispatch`, the resolver, the text pipeline and the store.

use crate::layers::{self, Layers, CRAWLER_RATE, CRAWLER_UA};
use crate::{digest, quantile, sys, timed, Digest, Ops, Opts, Rep};
use acctrade_crawler::merge::normalize_for_parity;
use acctrade_crawler::record::{Dataset, OfferRecord};
use acctrade_crawler::CrawlCampaign;
use acctrade_httpd::{HostTable, HttpServer, LoopbackTransport, ServerConfig, TimeSource};
use acctrade_net::error::NetResult;
use acctrade_net::http::{Request, Response};
use acctrade_net::robots::RobotsPolicy;
use acctrade_net::transport::Transport;
use acctrade_net::{Client, SimNet};
use acctrade_workload::world::{World, WorldParams};
use foundation::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::Recorder;

/// A transport owned by the benchmark that wraps `LoopbackTransport`
/// and passes every method through, counting sends and errors; when
/// traced it also keeps each send's latency and the total busy time.
struct Probe {
    inner: LoopbackTransport,
    traced: bool,
    sends: AtomicU64,
    errors: AtomicU64,
    busy_ns: AtomicU64,
    latencies_us: Mutex<Vec<f64>>,
}

impl Transport for Probe {
    fn mode(&self) -> &'static str {
        self.inner.mode()
    }

    fn send(&self, req: &Request) -> NetResult<Response> {
        let start = self.traced.then(Instant::now);
        let resp = self.inner.send(req);
        self.sends.fetch_add(1, Ordering::Relaxed);
        if resp.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            self.busy_ns.fetch_add(ns, Ordering::Relaxed);
            self.latencies_us.lock().push(ns as f64 / 1e3);
        }
        resp
    }

    fn robots(&self, host: &str) -> Option<RobotsPolicy> {
        self.inner.robots(host)
    }

    fn now_unix(&self) -> Option<i64> {
        self.inner.now_unix()
    }
}

/// A world deployed on a fabric and mounted on a bound loopback server.
struct Served {
    world: World,
    net: Arc<SimNet>,
    server: HttpServer,
    generate_s: f64,
    deploy_s: f64,
    bind_s: f64,
}

/// Generate, deploy and bind. Call with the run's recorder entered, so
/// the fabric installs its virtual clock into it.
fn serve(opts: &Opts) -> Served {
    let (world, generate_s) = timed(|| {
        World::generate(WorldParams {
            seed: opts.seed,
            scale: opts.plan.scale,
        })
    });
    let (net, deploy_s) = timed(|| {
        let net = SimNet::new(opts.seed);
        world.deploy(&net);
        net
    });
    let (server, bind_s) = timed(|| {
        let config = ServerConfig {
            workers: opts.plan.workers,
            time: TimeSource::Virtual(net.clock().clone()),
            ..ServerConfig::default()
        };
        HttpServer::bind("127.0.0.1:0", HostTable::from_sim(&net), config)
            .expect("bind a loopback port") // a benchmark that cannot bind cannot measure anything
    });
    Served {
        world,
        net,
        server,
        generate_s,
        deploy_s,
        bind_s,
    }
}

/// One set-up sample: generate, deploy and bind, then shut down.
pub(crate) fn setup_sample(opts: &Opts) -> f64 {
    let rec = Recorder::new();
    let _scope = rec.enter();
    let served = serve(opts);
    let s = served.generate_s + served.deploy_s + served.bind_s;
    served.server.shutdown();
    s
}

fn parity_digest(offers: Vec<OfferRecord>) -> String {
    digest(
        &Dataset {
            offers: normalize_for_parity(offers),
            ..Dataset::default()
        }
        .to_json(),
    )
}

pub(crate) fn execute(opts: &Opts, traced: bool) -> Rep {
    let plan = &opts.plan;
    let rec = Recorder::new();
    let scope = rec.enter();
    let Served {
        mut world,
        net,
        server,
        generate_s,
        deploy_s,
        bind_s: _,
    } = serve(opts);
    let probe = Arc::new(Probe {
        inner: LoopbackTransport::new(server.addr()),
        traced,
        sends: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
        latencies_us: Mutex::new(Vec::new()),
    });
    let client = Client::new(&net, CRAWLER_UA)
        .with_politeness(CRAWLER_RATE.0, CRAWLER_RATE.1)
        .with_transport(Arc::clone(&probe) as Arc<dyn Transport>);
    let mut campaign = CrawlCampaign::new(&client);
    campaign.workers = plan.workers;

    let before = sys::usage();
    let ((dataset, snapshots), study_s) = timed(|| campaign.run(&mut world, plan.iterations));
    let cpu_s = sys::usage().cpu_s - before.cpu_s;
    let stats = server.stats().snapshot();
    server.shutdown();
    drop(scope);
    let manifest = rec.manifest("loopback-crawl", opts.seed, "0000000000000000");

    let mut problems = Vec::new();
    if snapshots.len() != plan.iterations {
        problems.push(format!(
            "{} iteration snapshots, not {}",
            snapshots.len(),
            plan.iterations
        ));
    }
    if dataset.offers.is_empty() || stats.requests == 0 {
        problems.push("the loopback campaign collected nothing".into());
    }
    let sends = probe.sends.load(Ordering::Relaxed);
    let send_errors = probe.errors.load(Ordering::Relaxed);
    let crawl = layers::manifest_ops(&manifest);
    let ops = Ops {
        attempted: crawl.attempted + sends,
        failed: crawl.failed
            + send_errors
            + stats.parse_rejects
            + stats.timeouts
            + stats.queue_rejected,
    };

    let mut layers = Layers::default();
    if traced {
        let mut replay = layers::fresh_world(opts);
        layers::setup_layers(
            &mut layers,
            &[(generate_s, deploy_s), (replay.generate_s, replay.deploy_s)],
        );
        layers.manifest_counts(&manifest);
        layers.set("crawler.pages_per_s", layers.get("crawler.pages") / study_s);
        layers::replay_layers(&mut layers, &replay, &dataset.offers, plan.replay_offers);
        layers::recorder_layers(&mut layers, &rec, opts.seed);
        layers::telemetry_cost_layers(&mut layers, &mut replay, opts);
        layers::dataset_layers(&mut layers, &dataset);
        layers.set("httpd.requests", stats.requests as f64);
        layers.set("httpd.accepted", stats.accepted as f64);
        layers.set(
            "httpd.keepalive_reuse_ratio",
            stats.keepalive_reuse as f64 / stats.requests.max(1) as f64,
        );
        layers.set("httpd.parse_rejects", stats.parse_rejects as f64);
        layers.set("httpd.timeouts", stats.timeouts as f64);
        layers.set("httpd.queue_rejected", stats.queue_rejected as f64);
        layers.set("httpd.queue_high_water", stats.queue_high_water as f64);
        let latencies = probe.latencies_us.lock().clone();
        layers.set("transport.send_us_p50", quantile(&latencies, 0.50));
        layers.set("transport.send_us_p99", quantile(&latencies, 0.99));
        let busy_s = probe.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        layers.set(
            "transport.busy_share",
            busy_s / (plan.workers as f64 * study_s),
        );
    }
    let digests: Vec<Digest> = vec![("offers", parity_digest(dataset.offers))];
    Rep {
        study_s,
        cpu_s,
        ops,
        digests,
        problems,
        layers,
    }
}

/// The sim-fabric crawl of the same seed, normalized for parity.
pub(crate) fn reference(opts: &Opts) -> Vec<Digest> {
    let rec = Recorder::new();
    let _scope = rec.enter();
    let mut world = World::generate(WorldParams {
        seed: opts.seed,
        scale: opts.plan.scale,
    });
    let net = SimNet::new(opts.seed);
    world.deploy(&net);
    let client = Client::new(&net, CRAWLER_UA).with_politeness(CRAWLER_RATE.0, CRAWLER_RATE.1);
    let mut campaign = CrawlCampaign::new(&client);
    campaign.workers = opts.plan.workers;
    let (dataset, _) = campaign.run(&mut world, opts.plan.iterations);
    vec![("offers", parity_digest(dataset.offers))]
}
