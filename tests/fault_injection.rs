//! Fault injection: the crawler on a lossy network.
//!
//! Real measurement campaigns ride flaky residential connections and
//! overloaded marketplaces. The fabric injects connection resets and
//! timeouts; the retrying client must still collect the full inventory.

use acctrade::crawler::MarketplaceCrawler;
use acctrade::market::config::MarketplaceId;
use acctrade::net::sim::FaultPlan;
use acctrade::net::{Client, SimNet};
use acctrade::workload::world::{World, WorldParams};

fn lossy_world(seed: u64, reset_prob: f64, timeout_prob: f64) -> (World, std::sync::Arc<SimNet>) {
    let world = World::generate(WorldParams { seed, scale: 0.01 });
    let net = SimNet::new(seed);
    world.deploy(&net);
    net.set_faults(FaultPlan { reset_prob, timeout_prob, deadline_us: 5_000_000 });
    (world, net)
}

#[test]
fn retrying_crawler_survives_10pct_resets() {
    let (world, net) = lossy_world(71, 0.10, 0.0);
    let client = Client::new(&net, "acctrade-crawler/0.1").with_retries(4);
    let market = MarketplaceId::Accsmarket;
    let mut crawler = MarketplaceCrawler::new(&client, market);
    let (offers, stats) = crawler.crawl(0);
    let active = world.markets[&market].read().active_count();
    // With 4 retries at 10% loss, the chance of losing any page is
    // ~1e-5 per page; the inventory must be complete.
    assert_eq!(offers.len(), active, "lost offers under faults: {stats:?}");
    assert_eq!(stats.fetch_errors, 0);
}

#[test]
fn non_retrying_crawler_loses_coverage() {
    let (world, net) = lossy_world(72, 0.15, 0.05);
    let client = Client::new(&net, "acctrade-crawler/0.1"); // no retries
    let market = MarketplaceId::FameSwap;
    let mut crawler = MarketplaceCrawler::new(&client, market);
    let (offers, stats) = crawler.crawl(0);
    let active = world.markets[&market].read().active_count();
    assert!(
        offers.len() < active,
        "expected losses without retries ({} of {active})",
        offers.len()
    );
    assert!(stats.fetch_errors > 0);
}

#[test]
fn faults_cost_virtual_time() {
    let (_world, net) = lossy_world(73, 0.2, 0.0);
    let client = Client::new(&net, "acctrade-crawler/0.1").with_retries(3);
    let t0 = net.clock().now_us();
    let mut crawler = MarketplaceCrawler::new(&client, MarketplaceId::SurgeGram);
    let (_offers, _stats) = crawler.crawl(0);
    // Retried requests pay latency plus backoff; the clock must have
    // moved well past the fault-free cost.
    assert!(net.clock().now_us() > t0);
}

/// The telemetry fault counters must agree *exactly* with what the site
/// served and the fabric counted: every request the marketplace answered
/// shows up once in `net.requests`, every other request the fabric
/// routed (an injected reset or timeout) once in `net.faults`, and the
/// crawler's error counter mirrors its returned stats.
#[test]
fn telemetry_counters_match_injected_fault_counts() {
    let rec = acctrade::telemetry::Recorder::new();
    let _scope = rec.enter();

    let (_world, net) = lossy_world(74, 0.10, 0.05);
    let client = Client::new(&net, "acctrade-crawler/0.1").with_retries(3);
    let market = MarketplaceId::Accsmarket;
    let mut crawler = MarketplaceCrawler::new(&client, market);
    let (_offers, stats) = crawler.crawl(0);

    let served = rec.counter_total("market.pages_served");
    let faults = net.request_count() as u64 - served;

    let counted_faults = rec.counter("net.faults", &[("kind", "reset")])
        + rec.counter("net.faults", &[("kind", "timeout")])
        + rec.counter("net.faults", &[("kind", "unreachable")]);
    assert!(counted_faults > 0, "lossy run must inject faults");
    assert_eq!(counted_faults, faults, "fault counters vs unanswered requests");
    assert_eq!(rec.counter_total("net.requests"), served, "request counters vs pages served");
    // Every transparent client retry burned one fault.
    assert_eq!(rec.counter_total("net.retries") + stats.fetch_errors as u64, faults);
    // The crawler's own stats mirror into the crawl.* counters.
    assert_eq!(
        rec.counter("crawl.fetch_errors", &[("marketplace", market.name())]),
        stats.fetch_errors as u64
    );
    assert_eq!(
        rec.counter("crawl.pages", &[("marketplace", market.name())]),
        stats.pages_fetched as u64
    );
}

/// Eight threads hammering one recorder through scoped handles: the
/// sharded registry must conserve every increment and histogram sample.
#[test]
fn concurrent_recording_conserves_totals() {
    const THREADS: u64 = 8;
    const OPS: u64 = 2_000;
    let rec = acctrade::telemetry::Recorder::new();
    foundation::sync::scope(|s| {
        for t in 0..THREADS {
            let rec = rec.clone();
            s.spawn(move || {
                let _scope = rec.enter();
                let label = t.to_string();
                for i in 0..OPS {
                    acctrade::telemetry::with_recorder(|r| {
                        r.incr("stress.ops", &[("thread", &label)], 1);
                        r.incr("stress.shared", &[], 1);
                        r.observe("stress.val", &[], i);
                    });
                }
            });
        }
    });
    assert_eq!(rec.counter_total("stress.ops"), THREADS * OPS);
    assert_eq!(rec.counter("stress.shared", &[]), THREADS * OPS);
    for t in 0..THREADS {
        assert_eq!(rec.counter("stress.ops", &[("thread", &t.to_string())]), OPS);
    }
    let hists = rec.histograms();
    let (_, hist) = hists
        .iter()
        .find(|(k, _)| k.name == "stress.val")
        .expect("histogram recorded");
    assert_eq!(hist.count(), THREADS * OPS);
    assert_eq!(hist.max(), OPS - 1);
}
