//! The sharded parallel crawl engine.
//!
//! One campaign iteration is split into **shards**: the unit of work is
//! a (marketplace, platform listing chain) pair, discovered by fetching
//! each marketplace's storefront. Shards run on `workers` OS threads
//! that pull from one shared queue in shard order. Marketplaces come in
//! [`ALL_MARKETPLACES`] order, which is Table 1 size descending, so the
//! largest chains start first and the skewed chain sizes still balance.
//!
//! ## Why this stays deterministic
//!
//! Parallelism never touches the simulation's shared RNG or clock:
//!
//! 1. **Discovery is sequential.** The coordinator fetches every
//!    storefront on a per-marketplace [`acctrade_net::lane::Lane`]
//!    whose salt depends only on (host, iteration). The seed URLs a
//!    storefront yields depend only on world state.
//! 2. **Each chain shard gets its own lane**, salted by (host,
//!    iteration, seed URL) and starting at its market's discovery-lane
//!    end. A shard's entire behaviour — latency draws, politeness
//!    waits, robots delays, record timestamps — is a pure function of
//!    (fabric seed, salt, start time), independent of which worker runs
//!    it or when.
//! 3. **Results merge canonically.** Lanes fold back into the fabric in
//!    fixed shard order ([`acctrade_net::sim::SimNet::absorb_lane`]);
//!    records sort by [`crate::merge::merge_key`], never arrival order.
//!
//! Pull/completion order therefore shows up nowhere in the results.
//! Workers record only commutative counters and histograms, into the
//! caller's recorder; they open no spans, whose start ordinals would
//! follow the schedule.
//!
//! ## Why this stays polite
//!
//! `k` chains on one host crawl concurrently in *virtual* time, so each
//! shard client is forked with `host_share = k`: its token bucket gets
//! `rate / k` and its robots crawl-delay is stretched `k×`
//! ([`acctrade_net::client::Client::fork_for_shard`]). The aggregate
//! request density against any host never exceeds what one sequential
//! polite crawler would have produced.

use crate::crawl::MarketplaceCrawler;
use crate::record::OfferRecord;
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_net::client::Client;
use acctrade_net::lane::Lane;
use foundation::sync::{scope, Mutex};
use std::sync::Arc;

/// One unit of parallel work: crawl a single platform listing chain.
#[derive(Debug)]
pub struct ShardJob {
    /// Stable shard index (position in the canonical shard order).
    pub index: usize,
    /// Marketplace the chain belongs to.
    pub market: MarketplaceId,
    /// 1-based chain index within the marketplace (0 is reserved for
    /// the discovery pseudo-shard in checkpoint cursors).
    pub chain: usize,
    /// The chain's seed listing URL.
    pub seed_url: String,
    /// How many sibling chains share this host (politeness divisor).
    pub host_share: u32,
    /// The shard's private execution lane.
    pub lane: Arc<Lane>,
}

/// The result of crawling one shard.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Stable shard index (matches [`ShardJob::index`]).
    pub index: usize,
    /// Marketplace.
    pub market: MarketplaceId,
    /// 1-based chain index within the marketplace.
    pub chain: usize,
    /// Records collected, stamped with lane virtual time.
    pub records: Vec<OfferRecord>,
    /// The shard's lane (folded into the fabric by the campaign).
    pub lane: Arc<Lane>,
}

/// Everything one parallel iteration produced.
#[derive(Debug)]
pub struct IterationRun {
    /// Per-marketplace discovery lanes, in canonical marketplace order.
    pub discovery: Vec<(MarketplaceId, Arc<Lane>)>,
    /// Shard outcomes sorted by stable shard index. When `killed`, only
    /// the shards completed before the kill are present.
    pub outcomes: Vec<ShardOutcome>,
    /// Total shards planned for the iteration.
    pub shards_total: usize,
    /// Whether a `kill_after_shards` hook fired mid-iteration.
    pub killed: bool,
}

/// FNV-1a over a label string: the stable lane salt. Depends only on
/// the label bytes, so shard substreams are identical across runs and
/// across worker counts.
fn salt(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one campaign iteration across all marketplaces on `workers`
/// threads. `kill_after_shards` is the crash-injection hook: after that
/// many shard completions the queue is emptied, and the engine returns
/// with `killed = true` (simulating a process death mid-parallel-crawl;
/// nothing is persisted by this layer, so the caller can abandon the
/// iteration exactly as a real crash would).
pub fn run_iteration(
    client: &Client,
    iteration: usize,
    workers: usize,
    kill_after_shards: Option<usize>,
) -> IterationRun {
    let workers = workers.max(1);
    let net = client.net();

    // Phase A — sequential discovery on the coordinator: one lane per
    // marketplace, all starting at the iteration's shared-clock time.
    let mut discovery = Vec::new();
    let mut jobs: Vec<ShardJob> = Vec::new();
    for market in ALL_MARKETPLACES {
        let host = market.host();
        let lane = net.lane(salt(&format!("discover:{host}:{iteration}")));
        let shard_client = client.fork_for_shard(Arc::clone(&lane), 1);
        let mut crawler = MarketplaceCrawler::new(&shard_client, market);
        let seeds = crawler.discover();
        let share = seeds.len().max(1) as u32;
        for (chain0, seed_url) in seeds.into_iter().enumerate() {
            let chain_lane = net.lane_starting_at(
                salt(&format!("chain:{host}:{iteration}:{seed_url}")),
                lane.clock().now_us(),
            );
            jobs.push(ShardJob {
                index: jobs.len(),
                market,
                chain: chain0 + 1,
                seed_url,
                host_share: share,
                lane: chain_lane,
            });
        }
        discovery.push((market, lane));
    }
    let shards_total = jobs.len();

    // Phase B — one queue, pulled in shard order by every worker.
    let queue = Mutex::new(jobs.into_iter());
    let outcomes: Mutex<Vec<ShardOutcome>> = Mutex::new(Vec::new());
    let ambient = telemetry::recorder();

    scope(|s| {
        for _ in 0..workers {
            let (queue, outcomes) = (&queue, &outcomes);
            let ambient = ambient.clone();
            s.spawn(move || {
                // Only commutative counters and histograms are recorded
                // from workers, so the shared ambient recorder stays
                // independent of the schedule.
                let _scope = ambient.enter();
                loop {
                    // The queue guard is a temporary: it is released
                    // before the shard runs, so workers crawl in parallel.
                    let Some(job) = queue.lock().next() else { break };
                    let shard_client =
                        client.fork_for_shard(Arc::clone(&job.lane), job.host_share);
                    let mut crawler = MarketplaceCrawler::new(&shard_client, job.market);
                    let records = crawler.crawl_chain(&job.seed_url, iteration);
                    let done = {
                        let mut outcomes = outcomes.lock();
                        outcomes.push(ShardOutcome {
                            index: job.index,
                            market: job.market,
                            chain: job.chain,
                            records,
                            lane: job.lane,
                        });
                        outcomes.len()
                    };
                    if kill_after_shards.is_some_and(|k| done >= k) {
                        *queue.lock() = Vec::new().into_iter();
                    }
                }
            });
        }
    });

    let mut outcomes = outcomes.into_inner();
    outcomes.sort_by_key(|o| o.index);
    let killed = kill_after_shards.is_some_and(|k| outcomes.len() >= k);
    IterationRun { discovery, outcomes, shards_total, killed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_net::sim::SimNet;
    use acctrade_workload::world::{World, WorldParams};

    fn setup(seed: u64) -> (World, std::sync::Arc<SimNet>) {
        let world = World::generate(WorldParams { seed, scale: 0.01 });
        let net = SimNet::new(seed);
        world.deploy(&net);
        (world, net)
    }

    #[test]
    fn every_shard_is_processed_exactly_once() {
        let (_world, net) = setup(31);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let run = run_iteration(&client, 0, 4, None);
        assert!(!run.killed);
        assert_eq!(run.outcomes.len(), run.shards_total);
        let mut indexes: Vec<usize> = run.outcomes.iter().map(|o| o.index).collect();
        indexes.dedup();
        assert_eq!(indexes, (0..run.shards_total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree_on_merged_records() {
        let (_w1, net1) = setup(32);
        let (_w8, net8) = setup(32);
        let c1 = Client::new(&net1, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let c8 = Client::new(&net8, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let r1 = run_iteration(&c1, 0, 1, None);
        let r8 = run_iteration(&c8, 0, 8, None);
        let m1 = crate::merge::merge_shards(r1.outcomes.into_iter().map(|o| o.records).collect());
        let m8 = crate::merge::merge_shards(r8.outcomes.into_iter().map(|o| o.records).collect());
        assert!(!m1.is_empty());
        assert_eq!(m1, m8, "merged stream must not depend on worker count");
    }

    #[test]
    fn kill_hook_stops_the_iteration_early() {
        let (_world, net) = setup(33);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let run = run_iteration(&client, 0, 2, Some(3));
        assert!(run.killed);
        assert!(run.outcomes.len() < run.shards_total);
        assert!(run.outcomes.len() >= 3, "kill fires only after 3 completions");

        // The edges of the post-join rule: a kill at the last completion
        // still counts as a kill, one past it never fires.
        let total = run.shards_total;
        let (_world, net) = setup(33);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let run = run_iteration(&client, 0, 2, Some(total));
        assert!(run.killed, "k == shards_total fires at the last completion");
        assert_eq!(run.outcomes.len(), total, "every shard is present");
        let (_world, net) = setup(33);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(50.0, 10.0);
        let run = run_iteration(&client, 0, 2, Some(total + 1));
        assert!(!run.killed, "k > shards_total never fires");
        assert_eq!(run.outcomes.len(), total);
    }
}
