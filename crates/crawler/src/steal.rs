//! The sharded, work-stealing parallel crawl engine.
//!
//! One campaign iteration is split into **shards**: the unit of work is
//! a (marketplace, platform listing chain) pair, discovered by fetching
//! each marketplace's storefront. Shards run on `workers` OS threads
//! coordinated by per-worker [`foundation::sync::StealDeque`]s — a
//! worker drains its own deque LIFO and steals FIFO from its neighbours
//! when idle — so the load balances even though chain sizes are skewed.
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
//! Steal/completion order therefore only shows up in the per-worker
//! [`WorkerReport`] diagnostics, which are deliberately kept out of the
//! deterministic artifacts. Workers record only commutative counters and
//! histograms, into the caller's recorder; they open no spans, whose
//! start ordinals would follow the schedule.
//!
//! ## Why this stays polite
//!
//! `k` chains on one host crawl concurrently in *virtual* time, so each
//! shard client is forked with `host_share = k`: its token bucket gets
//! `rate / k` and its robots crawl-delay is stretched `k×`
//! ([`acctrade_net::client::Client::fork_for_shard`]). The aggregate
//! request density against any host never exceeds what one sequential
//! polite crawler would have produced.

// conformance: atomics(acquire, release, acqrel) — Chase-Lev deque protocol orderings

use crate::crawl::{CrawlStats, MarketplaceCrawler};
use crate::record::OfferRecord;
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_net::client::Client;
use acctrade_net::lane::Lane;
use foundation::sync::{scope, Mutex, StealDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// Fetch statistics.
    pub stats: CrawlStats,
    /// The shard's lane (folded into the fabric by the campaign).
    pub lane: Arc<Lane>,
    /// Which worker executed the shard (diagnostic; schedule-dependent).
    pub worker: usize,
    /// Whether the shard was stolen rather than run by its home worker
    /// (diagnostic; schedule-dependent).
    pub stolen: bool,
}

/// Per-worker execution diagnostics. Schedule-dependent by nature, so
/// these are reported to the caller but never merged into the
/// deterministic run manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Shards this worker executed.
    pub shards_run: usize,
    /// Of those, how many it stole from another worker's deque.
    pub shards_stolen: usize,
    /// Total virtual time spent inside shards (µs).
    pub busy_virtual_us: u64,
}

/// Everything one parallel iteration produced.
#[derive(Debug)]
pub struct IterationRun {
    /// Per-marketplace discovery lanes, in canonical marketplace order.
    pub discovery: Vec<(MarketplaceId, Arc<Lane>)>,
    /// Shard outcomes sorted by stable shard index. When `killed`, only
    /// the shards completed before the kill are present.
    pub outcomes: Vec<ShardOutcome>,
    /// Per-worker diagnostics (schedule-dependent).
    pub reports: Vec<WorkerReport>,
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
/// many shard completions the engine stops pulling work and returns
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
        let (seeds, _stats) = crawler.discover();
        let share = seeds.len().max(1) as u32;
        for (chain0, seed_url) in seeds.into_iter().enumerate() {
            let chain_lane = net.lane_starting_at(
                salt(&format!("chain:{host}:{iteration}:{seed_url}")),
                lane.now_us(),
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

    // Phase B — work-stealing execution. Jobs are dealt round-robin so
    // every worker starts with a slice of every marketplace.
    let deques: Vec<StealDeque<ShardJob>> = (0..workers).map(|_| StealDeque::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % workers].push(job);
    }

    let outcomes: Mutex<Vec<ShardOutcome>> = Mutex::new(Vec::new());
    let reports: Mutex<Vec<WorkerReport>> = Mutex::new(Vec::new());
    let completions = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    let ambient = telemetry::recorder();

    scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let outcomes = &outcomes;
            let reports = &reports;
            let completions = &completions;
            let killed = &killed;
            let ambient = ambient.clone();
            s.spawn(move || {
                // Only commutative counters and histograms are recorded
                // from workers, so the shared ambient recorder stays
                // independent of the schedule.
                let _scope = ambient.enter();
                let mut report = WorkerReport { worker: w, ..WorkerReport::default() };
                while !killed.load(Ordering::Acquire) {
                    let (job, stolen) = match next_job(deques, w) {
                        Some(pair) => pair,
                        None => break,
                    };
                    let shard_client =
                        client.fork_for_shard(Arc::clone(&job.lane), job.host_share);
                    let mut crawler = MarketplaceCrawler::new(&shard_client, job.market);
                    let (records, stats) = crawler.crawl_chain(&job.seed_url, iteration);
                    report.shards_run += 1;
                    report.shards_stolen += usize::from(stolen);
                    report.busy_virtual_us += job.lane.now_us() - job.lane.start_us();
                    outcomes.lock().push(ShardOutcome {
                        index: job.index,
                        market: job.market,
                        chain: job.chain,
                        records,
                        stats,
                        lane: job.lane,
                        worker: w,
                        stolen,
                    });
                    let done = completions.fetch_add(1, Ordering::AcqRel) + 1;
                    if kill_after_shards.is_some_and(|k| done >= k) {
                        killed.store(true, Ordering::Release);
                    }
                }
                reports.lock().push(report);
            });
        }
    });

    let mut outcomes = outcomes.into_inner();
    outcomes.sort_by_key(|o| o.index);
    let mut reports = reports.into_inner();
    reports.sort_by_key(|r| r.worker);
    IterationRun {
        discovery,
        outcomes,
        reports,
        shards_total,
        killed: killed.load(Ordering::Acquire),
    }
}

/// Pop from the worker's own deque (LIFO), else steal FIFO from the
/// nearest non-empty neighbour. Returns the job and whether it was
/// stolen.
fn next_job(deques: &[StealDeque<ShardJob>], w: usize) -> Option<(ShardJob, bool)> {
    if let Some(job) = deques[w].pop() {
        return Some((job, false));
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(job) = deques[(w + off) % n].steal() {
            return Some((job, true));
        }
    }
    None
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
        assert_eq!(
            run.reports.iter().map(|r| r.shards_run).sum::<usize>(),
            run.shards_total,
        );
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
    }
}
