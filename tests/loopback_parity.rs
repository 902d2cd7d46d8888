//! Transport parity: a crawl over real loopback TCP must surface the
//! same offers as the same crawl run on the simulated fabric.
//!
//! The loopback leg is the serving layer end-to-end: the seeded world's
//! sites are mounted on an `acctrade-httpd` server behind a virtual-host
//! table, and the parallel campaign engine (4 workers) crawls them
//! through `LoopbackTransport` — real sockets, real concurrency, real
//! keep-alive. Loopback records carry wall-clock `collected_unix`
//! stamps, so both sides are normalized with
//! `crawler::merge::normalize_for_parity` (timestamps zeroed, canonical
//! merge-key order) before comparison.

use acctrade::crawler::merge::normalize_for_parity;
use acctrade::crawler::record::OfferRecord;
use acctrade::crawler::CrawlCampaign;
use acctrade::httpd::{HostTable, HttpServer, LoopbackTransport, ServerConfig, TimeSource};
use acctrade::net::transport::Transport;
use acctrade::net::{Client, SimNet};
use acctrade::workload::world::{World, WorldParams};
use std::sync::Arc;

const SEED: u64 = 4242;
const SCALE: f64 = 0.01;
const ITERATIONS: usize = 2;

enum Mode {
    Sim,
    Loopback,
}

/// Run the crawl campaign over the chosen transport and return its
/// parity-normalized offer records.
fn campaign_offers(mode: Mode) -> Vec<OfferRecord> {
    let rec = acctrade::telemetry::Recorder::new();
    let _scope = rec.enter();

    let mut world = World::generate(WorldParams { seed: SEED, scale: SCALE });
    let net = SimNet::new(SEED);
    world.deploy(&net);

    let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
    let (client, server, workers) = match mode {
        Mode::Sim => (client, None, 1),
        Mode::Loopback => {
            // Mount the live fabric services (shared Arcs — world churn
            // between iterations propagates) on a real server that
            // shares the study's virtual clock.
            let config = ServerConfig {
                workers: 4,
                time: TimeSource::Virtual(net.clock().clone()),
                ..ServerConfig::default()
            };
            let server = HttpServer::bind("127.0.0.1:0", HostTable::from_sim(&net), config)
                .expect("bind loopback server");
            let transport: Arc<dyn Transport> = Arc::new(LoopbackTransport::new(server.addr()));
            (client.with_transport(transport), Some(server), 4)
        }
    };

    let mut campaign = CrawlCampaign::new(&client);
    campaign.workers = workers;
    let (dataset, snapshots) = campaign.run(&mut world, ITERATIONS);
    assert_eq!(snapshots.len(), ITERATIONS);
    assert!(!dataset.offers.is_empty(), "campaign collected nothing");

    if let Some(server) = server {
        let stats = server.stats();
        server.shutdown();
        let snap = stats.snapshot();
        assert!(snap.requests > 0, "loopback campaign never touched the server");
        assert_eq!(snap.parse_rejects, 0, "crawler sent malformed requests");
    }
    normalize_for_parity(dataset.offers)
}

#[test]
fn loopback_campaign_matches_sim_campaign() {
    let sim = campaign_offers(Mode::Sim);
    let loopback = campaign_offers(Mode::Loopback);

    assert_eq!(
        sim.len(),
        loopback.len(),
        "offer counts diverge between transports: sim={} loopback={}",
        sim.len(),
        loopback.len()
    );
    for (i, (s, l)) in sim.iter().zip(&loopback).enumerate() {
        assert_eq!(s, l, "offer {i} diverges between transports");
    }
}
