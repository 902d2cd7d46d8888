//! The marketplace crawler (§3.2).
//!
//! One [`MarketplaceCrawler`] per marketplace: it fetches the storefront,
//! seeds the frontier with every platform's listing index, walks pages
//! depth-first, opens every offer, and extracts an [`OfferRecord`]. The
//! crawler is polite (client-side token bucket), robots-respecting (the
//! [`acctrade_net::client::Client`] enforces that), and never interacts
//! with the offers — the paper's passive-collection constraint.

use crate::extract;
use crate::frontier::{CrawlOrder, Frontier};
use crate::record::OfferRecord;
use acctrade_market::config::MarketplaceId;
use acctrade_net::client::Client;
use acctrade_net::http::Status;
use acctrade_net::url::Url;

/// Statistics of one marketplace crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Pages fetched.
    pub pages_fetched: usize,
    /// Offers collected.
    pub offers_collected: usize,
    /// Fetch errors.
    pub fetch_errors: usize,
    /// Gone offers.
    pub gone_offers: usize,
}

/// Crawler for one public marketplace.
pub struct MarketplaceCrawler<'a> {
    client: &'a Client,
    market: MarketplaceId,
    frontier: Frontier,
}

impl<'a> MarketplaceCrawler<'a> {
    /// Create a crawler bound to a client and marketplace (depth-first,
    /// the paper's strategy).
    pub fn new(client: &'a Client, market: MarketplaceId) -> MarketplaceCrawler<'a> {
        MarketplaceCrawler { client, market, frontier: Frontier::new() }
    }

    /// Create a crawler with an explicit visit order (the ablation knob).
    pub fn with_order(
        client: &'a Client,
        market: MarketplaceId,
        order: CrawlOrder,
    ) -> MarketplaceCrawler<'a> {
        MarketplaceCrawler { client, market, frontier: Frontier::with_order(order) }
    }

    /// The marketplace this crawler covers.
    pub fn market(&self) -> MarketplaceId {
        self.market
    }

    /// Crawl the whole marketplace once. `iteration` stamps the records.
    pub fn crawl(&mut self, iteration: usize) -> (Vec<OfferRecord>, CrawlStats) {
        let mut stats = CrawlStats::default();
        let seeds = self.storefront(&mut stats);
        self.frontier.push_all(seeds);
        let records = self.drain_frontier(iteration, &mut stats);
        self.record_stats(&stats);
        (records, stats)
    }

    /// Fetch the storefront only and return the seed listing URLs, one
    /// per platform chain. The parallel engine runs this discovery phase
    /// sequentially on the coordinator, then crawls each chain as its
    /// own shard via [`MarketplaceCrawler::crawl_chain`].
    pub fn discover(&mut self) -> Vec<String> {
        let mut stats = CrawlStats::default();
        let seeds = self.storefront(&mut stats);
        self.record_stats(&stats);
        seeds
    }

    /// Crawl one platform listing chain starting from `seed_url` (a URL
    /// returned by [`MarketplaceCrawler::discover`]). Walks the chain's
    /// pagination and every offer it links, exactly as the whole-market
    /// crawl would have.
    pub fn crawl_chain(&mut self, seed_url: &str, iteration: usize) -> Vec<OfferRecord> {
        let mut stats = CrawlStats::default();
        self.frontier.push(seed_url.to_string());
        let records = self.drain_frontier(iteration, &mut stats);
        self.record_stats(&stats);
        records
    }

    /// Seed: the storefront's platform listing links (the paper's
    /// manually identified seed URLs), as absolute URLs.
    fn storefront(&self, stats: &mut CrawlStats) -> Vec<String> {
        let host = self.market.host();
        let Ok(front) = self.client.get_url(&Url::http(host, "/")) else {
            stats.fetch_errors += 1;
            return Vec::new();
        };
        stats.pages_fetched += 1;
        extract::parse_storefront(&front.text())
            .into_iter()
            .map(|path| format!("http://{host}{path}"))
            .collect()
    }

    /// DFS over listing pages and offers until the frontier is empty.
    fn drain_frontier(&mut self, iteration: usize, stats: &mut CrawlStats) -> Vec<OfferRecord> {
        let host = self.market.host();
        let mut records = Vec::new();
        while let Some(url) = self.frontier.pop() {
            telemetry::with_recorder(|r| {
                r.observe("crawl.frontier_depth", &[], self.frontier.pending() as u64);
            });
            let resp = match self.client.get(&url) {
                Ok(r) => r,
                Err(_) => {
                    stats.fetch_errors += 1;
                    continue;
                }
            };
            stats.pages_fetched += 1;
            if resp.status == Status::Gone {
                stats.gone_offers += 1;
                continue;
            }
            if resp.status != Status::Ok {
                continue;
            }
            let is_offer = url.contains("/offer/");
            if is_offer {
                let mut record = extract::parse_offer(self.market, &resp.text());
                record.offer_url = url.clone();
                record.collected_unix = self.client.virtual_now_unix();
                record.iteration = iteration;
                records.push(record);
                stats.offers_collected += 1;
            } else {
                let page = extract::parse_index(&resp.text());
                // DFS: push the next listing page first so offers on the
                // current page are drained before moving on.
                if let Some(next) = page.next_path {
                    self.frontier.push(format!("http://{host}{next}"));
                }
                for offer in page.offer_paths {
                    self.frontier.push(format!("http://{host}{offer}"));
                }
            }
        }
        records
    }

    /// Mirror one crawl's stats into the current telemetry recorder, keyed
    /// by marketplace — the `crawl` section of the run manifest.
    fn record_stats(&self, stats: &CrawlStats) {
        telemetry::with_recorder(|r| {
            let market = self.market.name();
            let labels = [("marketplace", market)];
            r.incr("crawl.pages", &labels, stats.pages_fetched as u64);
            r.incr("crawl.offers", &labels, stats.offers_collected as u64);
            r.incr("crawl.fetch_errors", &labels, stats.fetch_errors as u64);
            r.incr("crawl.gone_offers", &labels, stats.gone_offers as u64);
        });
    }

    /// Forget visit history (between iterations we re-visit everything;
    /// the campaign layer dedups offers by URL).
    pub fn reset(&mut self) {
        self.frontier.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_net::sim::SimNet;
    use acctrade_workload::world::{World, WorldParams};

    #[test]
    fn crawls_every_active_offer_of_a_marketplace() {
        let world = World::generate(WorldParams { seed: 5, scale: 0.01 });
        let net = SimNet::new(5);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);

        let market = MarketplaceId::Accsmarket;
        let mut crawler = MarketplaceCrawler::new(&client, market);
        let (records, stats) = crawler.crawl(0);

        let active = world.markets[&market].read().active_count();
        assert_eq!(records.len(), active, "must collect every active offer");
        assert_eq!(stats.offers_collected, active);
        assert_eq!(stats.fetch_errors, 0);
        // Every record parsed a price and platform.
        assert!(records.iter().all(|r| r.price_usd.is_some()));
        assert!(records.iter().all(|r| r.platform.is_some()));
    }

    #[test]
    fn visible_records_carry_handles() {
        let world = World::generate(WorldParams { seed: 6, scale: 0.02 });
        let net = SimNet::new(6);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1");
        let mut crawler = MarketplaceCrawler::new(&client, MarketplaceId::FameSwap);
        let (records, _) = crawler.crawl(0);
        let visible: Vec<_> = records.iter().filter(|r| r.is_visible()).collect();
        assert!(!visible.is_empty(), "some offers must link profiles");
        for v in &visible {
            assert!(v.handle.is_some(), "visible offer without handle: {}", v.offer_url);
        }
        // Roughly the platform-weighted share of ~30%/visible-fraction.
        let frac = visible.len() as f64 / records.len() as f64;
        assert!((0.1..0.75).contains(&frac), "visible fraction {frac}");
    }

    #[test]
    fn second_crawl_after_reset_sees_churned_market() {
        let mut world = World::generate(WorldParams { seed: 7, scale: 0.01 });
        let net = SimNet::new(7);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1");
        let market = MarketplaceId::Z2U;
        let mut crawler = MarketplaceCrawler::new(&client, market);
        let (first, _) = crawler.crawl(0);
        world.step_iteration(net.clock().now_unix());
        crawler.reset();
        let (second, _) = crawler.crawl(1);
        // Churn + replenishment must change the active set.
        let first_urls: std::collections::HashSet<_> =
            first.iter().map(|r| r.offer_url.clone()).collect();
        let new_offers = second.iter().filter(|r| !first_urls.contains(&r.offer_url)).count();
        assert!(new_offers > 0, "replenished offers must appear");
    }

    #[test]
    fn hidden_seller_market_yields_no_sellers() {
        let world = World::generate(WorldParams { seed: 8, scale: 0.02 });
        let net = SimNet::new(8);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1");
        let mut crawler = MarketplaceCrawler::new(&client, MarketplaceId::SocialTradia);
        let (records, _) = crawler.crawl(0);
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.seller.is_none()));
    }
}
