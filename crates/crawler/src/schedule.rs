//! The collection campaign: iterations over the Feb–Jun 2024 window.
//!
//! The paper crawled the marketplaces repeatedly between February and June
//! 2024; Figure 2 plots cumulative vs active listings per iteration. A
//! [`CrawlCampaign`] runs the crawler over all eleven marketplaces once
//! per iteration, advances the virtual clock between iterations, lets the
//! world churn/replenish, and records one [`IterationSnapshot`] per pass.

use crate::merge;
use crate::persist::{CampaignStore, ShardCursor};
use crate::record::{Dataset, OfferRecord, PriceObservationRecord};
use crate::steal;
use acctrade_net::client::Client;
use acctrade_net::clock::DAY;
use acctrade_workload::world::World;
use economy::EconomySim;
use foundation::json_codec_struct;
use std::collections::{BTreeMap, BTreeSet};
use std::io;

/// One iteration's view of the market (Figure 2's two curves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationSnapshot {
    /// Iteration.
    pub iteration: usize,
    /// Virtual date of the pass (unix seconds at iteration start).
    pub at_unix: i64,
    /// Distinct offers seen so far across all passes (cumulative curve).
    pub cumulative_offers: usize,
    /// Offers live during this pass (active curve).
    pub active_offers: usize,
    /// Offers first seen in this pass.
    pub new_offers: usize,
}

json_codec_struct! {
    IterationSnapshot { iteration, at_unix, cumulative_offers, active_offers, new_offers }
}

/// Accumulated campaign state, carried across an interruption.
///
/// A fresh campaign starts from [`CampaignProgress::default`]; a resumed
/// campaign rebuilds it from the checkpoint plus the records replayed out
/// of the store, then [`CrawlCampaign::run_resumable`] continues at
/// `next_iteration` as if the interruption never happened.
#[derive(Debug, Clone, Default)]
pub struct CampaignProgress {
    /// Deduplicated offers in first-seen order.
    pub offers: Vec<OfferRecord>,
    /// Offer URLs already seen (the dedup set).
    pub seen: BTreeSet<String>,
    /// Per-iteration snapshots so far.
    pub snapshots: Vec<IterationSnapshot>,
    /// The next iteration to execute.
    pub next_iteration: usize,
    /// Virtual timestamps at which `world.step_iteration` already ran
    /// (replayed verbatim on resume so the world evolves identically).
    pub step_unixes: Vec<i64>,
    /// Per-shard lane cursors from the last completed iteration (folded
    /// into the checkpoint as parallel-crawl provenance).
    pub shard_cursors: Vec<ShardCursor>,
    /// Repricings observed on re-visited offers (only ever non-empty
    /// when a live economy reprices listings between iterations).
    pub price_obs: Vec<PriceObservationRecord>,
    /// Last price parsed per offer URL (the re-visit comparison basis).
    pub last_price: BTreeMap<String, f64>,
}

/// Virtual days between iterations (the paper's ~150-day Feb–Jun
/// window spread over ~10 passes).
pub const DAYS_BETWEEN: u64 = 15;

/// The full collection campaign.
pub struct CrawlCampaign<'a> {
    client: &'a Client,
    /// Worker threads for the sharded crawl engine. Any value produces
    /// byte-identical artifacts — shards run on deterministic lanes and
    /// merge canonically ([`crate::steal`], [`crate::merge`]) — so this
    /// knob only trades wall-clock time.
    pub workers: usize,
    /// Crash-injection hook: kill the process model after
    /// `(iteration, shards)` — i.e. once that many shards of that
    /// iteration completed — leaving the iteration unpersisted, exactly
    /// like a real mid-crawl death. Test-only plumbing.
    pub shard_kill: Option<(usize, usize)>,
}

impl<'a> CrawlCampaign<'a> {
    /// A campaign with the paper's spacing: [`DAYS_BETWEEN`] virtual
    /// days between passes.
    pub fn new(client: &'a Client) -> CrawlCampaign<'a> {
        CrawlCampaign { client, workers: 1, shard_kill: None }
    }

    /// Run `iterations` passes over all marketplaces, evolving `world`
    /// between passes. Returns the deduplicated offer dataset and the
    /// per-iteration snapshots.
    pub fn run(
        &self,
        world: &mut World,
        iterations: usize,
    ) -> (Dataset, Vec<IterationSnapshot>) {
        let mut progress = CampaignProgress::default();
        self.run_resumable(world, iterations, &mut progress, None, None, |_, _| Ok(true))
            .expect("in-memory campaign cannot fail"); // conformance: allow(panic-policy) — no store and no kill hook: infallible by construction
        let dataset = Dataset { offers: progress.offers, ..Dataset::default() };
        (dataset, progress.snapshots)
    }

    /// Run (or continue) the campaign, optionally streaming every newly
    /// seen offer into a durable [`CampaignStore`].
    ///
    /// The loop starts at `progress.next_iteration` and executes exactly
    /// the same work — in exactly the same telemetry order — as
    /// [`CrawlCampaign::run`]. After each iteration the store (when
    /// present) is synced and `after_iteration` runs; the caller uses it
    /// to write a checkpoint. Returning `Ok(false)` from the closure
    /// stops the campaign early (the crash-injection hook); the progress
    /// accumulated so far stays in `progress`.
    ///
    /// When an `economy` simulator is attached it is advanced — in the
    /// sequential section, after each inter-iteration `world` step — to
    /// the stepped timestamp, its freshly emitted events are streamed
    /// into the store (before the sync that commits the iteration), and
    /// offers whose re-parsed price changed since their first collection
    /// are recorded as [`PriceObservationRecord`]s. With no economy the
    /// byte stream written here is identical to the pre-economy code.
    pub fn run_resumable<F>(
        &self,
        world: &mut World,
        iterations: usize,
        progress: &mut CampaignProgress,
        mut store: Option<&mut CampaignStore>,
        mut economy: Option<&mut EconomySim>,
        mut after_iteration: F,
    ) -> io::Result<()>
    where
        F: FnMut(&CampaignProgress, &mut Option<&mut CampaignStore>) -> io::Result<bool>,
    {
        for iteration in progress.next_iteration..iterations {
            let at_unix = self.client.net().clock().now_unix();
            let kill = match self.shard_kill {
                Some((at, shards)) if at == iteration => Some(shards),
                _ => None,
            };
            let run = steal::run_iteration(self.client, iteration, self.workers, kill);
            if run.killed {
                // A mid-parallel death: lanes are discarded, nothing
                // was appended to the store, and `progress` still says
                // this iteration never ran — resume re-executes it from
                // the last checkpoint.
                return Ok(());
            }

            // Fold the shard lanes back into the fabric in canonical
            // shard order: the shared count and clock end up identical no
            // matter which workers ran which shards.
            let net = self.client.net();
            let mut cursors = Vec::new();
            for (market, lane) in &run.discovery {
                cursors.push(ShardCursor {
                    marketplace: market.name().to_string(),
                    chain: 0,
                    lane_end_us: lane.clock().now_us(),
                    lane_rng_words: lane.rng_word_position(),
                    records: 0,
                });
                net.absorb_lane(lane);
            }
            for outcome in &run.outcomes {
                cursors.push(ShardCursor {
                    marketplace: outcome.market.name().to_string(),
                    chain: outcome.chain,
                    lane_end_us: outcome.lane.clock().now_us(),
                    lane_rng_words: outcome.lane.rng_word_position(),
                    records: outcome.records.len() as u64,
                });
                net.absorb_lane(&outcome.lane);
            }
            cursors.sort_by(|a, b| (&a.marketplace, a.chain).cmp(&(&b.marketplace, b.chain)));
            progress.shard_cursors = cursors;

            // Deterministic merge: virtual-timestamp order with the
            // stable (marketplace, offer_url, iteration) tiebreak —
            // never completion order.
            let merged =
                merge::merge_shards(run.outcomes.into_iter().map(|o| o.records).collect());
            let active = merged.len();
            let mut fresh = 0usize;
            for record in merged {
                if progress.seen.insert(record.offer_url.clone()) {
                    fresh += 1;
                    if let Some(p) = record.price_usd {
                        progress.last_price.insert(record.offer_url.clone(), p);
                    }
                    if let Some(s) = store.as_deref_mut() {
                        s.append_offer(&record)?;
                    }
                    progress.offers.push(record);
                } else if let Some(price) = record.price_usd {
                    // Re-visit of a known offer: a changed parsed price
                    // is one observation of its price trajectory. Inert
                    // without a live economy — nothing ever reprices, so
                    // this branch appends nothing and baseline stores
                    // stay byte-identical.
                    let prev = progress.last_price.get(&record.offer_url).copied();
                    if let Some(prev) = prev {
                        if (price - prev).abs() > 0.005 {
                            let obs = PriceObservationRecord {
                                marketplace: record.marketplace.clone(),
                                offer_url: record.offer_url.clone(),
                                iteration,
                                collected_unix: record.collected_unix,
                                prev_price_usd: prev,
                                price_usd: price,
                            };
                            if let Some(s) = store.as_deref_mut() {
                                s.append_price_observation(&obs)?;
                            }
                            progress.price_obs.push(obs);
                            progress.last_price.insert(record.offer_url.clone(), price);
                            telemetry::with_recorder(|r| {
                                r.incr("campaign.price_observations", &[], 1)
                            });
                        }
                    } else {
                        progress.last_price.insert(record.offer_url.clone(), price);
                    }
                }
            }
            telemetry::with_recorder(|r| {
                r.event(
                    "campaign.iteration",
                    format!(
                        "iteration={iteration} active={active} new={fresh} cumulative={}",
                        progress.seen.len()
                    ),
                );
                r.gauge_set("campaign.cumulative_offers", &[], progress.seen.len() as f64);
                r.gauge_set("campaign.active_offers", &[], active as f64);
            });
            progress.snapshots.push(IterationSnapshot {
                iteration,
                at_unix,
                cumulative_offers: progress.seen.len(),
                active_offers: active,
                new_offers: fresh,
            });
            progress.next_iteration = iteration + 1;

            if iteration + 1 < iterations {
                // Advance the window and let the market evolve.
                self.client.net().clock().advance(DAYS_BETWEEN * DAY);
                let stepped_at = self.client.net().clock().now_unix();
                world.step_iteration(stepped_at);
                progress.step_unixes.push(stepped_at);
                if let Some(sim) = economy.as_deref_mut() {
                    // Sequential section: the economy's engines run to
                    // the stepped timestamp in their total event order,
                    // independent of how many workers crawled.
                    sim.advance_to(world, stepped_at);
                }
            }

            if let Some(sim) = economy.as_deref_mut() {
                // Stream fresh economy events ahead of the sync so the
                // checkpoint's committed_records covers them; a killed
                // run replays exactly the events its checkpoint saw.
                if let Some(s) = store.as_deref_mut() {
                    for event in sim.unpersisted() {
                        s.append_economy_event(event)?;
                    }
                    sim.mark_all_persisted();
                }
            }

            if let Some(s) = store.as_deref_mut() {
                s.sync()?;
            }
            if !after_iteration(progress, &mut store)? {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_net::sim::SimNet;
    use acctrade_workload::world::{World, WorldParams};

    #[test]
    fn campaign_reproduces_figure2_shape() {
        let mut world = World::generate(WorldParams { seed: 21, scale: 0.01 });
        let net = SimNet::new(21);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1");
        let campaign = CrawlCampaign::new(&client);
        let (dataset, snaps) = campaign.run(&mut world, 6);

        assert_eq!(snaps.len(), 6);
        // Cumulative listings grow monotonically.
        assert!(snaps.windows(2).all(|w| w[1].cumulative_offers >= w[0].cumulative_offers));
        // Churn eventually pushes active below cumulative.
        let last = snaps.last().unwrap();
        assert!(last.active_offers < last.cumulative_offers);
        // Replenishment adds new offers after the first pass.
        assert!(snaps[1..].iter().any(|s| s.new_offers > 0));
        // Dataset holds each offer exactly once.
        let urls: BTreeSet<_> = dataset.offers.iter().map(|o| &o.offer_url).collect();
        assert_eq!(urls.len(), dataset.offers.len());
        assert_eq!(dataset.offers.len(), last.cumulative_offers);
    }

    #[test]
    fn clock_advances_between_iterations() {
        let mut world = World::generate(WorldParams { seed: 22, scale: 0.005 });
        let net = SimNet::new(22);
        world.deploy(&net);
        let client = Client::new(&net, "acctrade-crawler/0.1");
        let campaign = CrawlCampaign::new(&client);
        let t0 = net.clock().now_unix();
        let (_, snaps) = campaign.run(&mut world, 3);
        let elapsed_days = (net.clock().now_unix() - t0) / 86_400;
        assert!(elapsed_days >= 30, "two 15-day gaps expected, got {elapsed_days}d");
        assert!(snaps[1].at_unix > snaps[0].at_unix);
    }
}
