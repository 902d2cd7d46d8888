//! The deterministic economy event loop.
//!
//! [`EconomySim`] owns a scheduled-action queue keyed by the total order
//! `(virtual_time, entity_id, schedule_seq)` — a `BTreeMap`, so draining
//! it is a canonical walk no matter how actions were inserted. All three
//! engines (escrow, pricing, bots) execute inside that single loop with
//! one seeded RNG substream (`seed ^ 0x0EC0_0EC0_0000_0001`, independent
//! of the fabric and world streams), which is what makes same-seed
//! economies byte-identical at any crawl worker count: the engines run
//! in the campaign's sequential section, never on worker threads.
//!
//! The loop is driven at crawl-iteration boundaries: the study calls
//! [`EconomySim::advance_to`] with the post-step virtual timestamp, the
//! sim drains every scheduled action up to it, and each mutation lands in
//! the append-only [`EconomyEvent`] stream (persisted through the
//! campaign WAL; replayable via [`crate::ledger`]).

use crate::config::EconomyConfig;
use crate::event::{
    EconomyEvent, EventKind, CAUSE_DRIFT, CAUSE_SHOCK_DISPUTE, CAUSE_SHOCK_SALE,
    CAUSE_STALE_DISCOUNT,
};
use crate::order::{OrderEvent, OrderState};
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_market::listing::{Listing, ListingId, ListingState};
use acctrade_market::payments::PaymentMethod;
use acctrade_market::seller::{Seller, SellerId};
use acctrade_social::platform::Platform;
use acctrade_workload::buyers::Buyer;
use acctrade_workload::prices;
use acctrade_workload::world::World;
use foundation::rng::{ChaCha8Rng, IndexedRandom, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const HOUR: i64 = 3_600;
const DAY_S: i64 = 86_400;

/// Entity-id namespaces for the scheduling order (disjoint, so the
/// `(time, entity, seq)` total order never collides across engines).
const ENTITY_BUYER: u64 = 1_000_000;
const ENTITY_ORDER: u64 = 2_000_000;
const ENTITY_SWEEP: u64 = 3_000_000;
const ENTITY_BOT: u64 = 4_000_000;

/// Scam-ad templates the bot operator cycles through (`(tag, body)`).
const BOT_TEMPLATES: [(&str, &str); 5] = [
    ("aged-stock", "Aged {platform} account, original email included, instant delivery after escrow."),
    ("bulk-verified", "Bulk {platform} accounts in stock, phone verified, replacement warranty."),
    ("monetized-ready", "Monetization-ready {platform} page, clean history, guided transfer."),
    ("cheap-flip", "Cheapest {platform} accounts online, trusted seller, vouches in profile."),
    ("premium-handle", "Premium short handle on {platform}, secure escrow only, serious buyers."),
];

/// A scheduled engine action.
#[derive(Debug, Clone)]
enum Action {
    /// A buyer shops for a listing and opens an order.
    BuyerArrive { buyer: usize },
    /// A scheduled order transition fires.
    OrderStep { order: u64, event: OrderEvent },
    /// The pricing engine sweeps one marketplace.
    PricingSweep { market: MarketplaceId },
    /// A bot posts a listing (fresh cadence post, or a restock of a
    /// sold one).
    BotPost { market: MarketplaceId, bot: usize, restock: bool },
}

/// A live (non-abandoned) order's context.
#[derive(Debug, Clone)]
struct LiveOrder {
    market: MarketplaceId,
    listing: ListingId,
    seller: SellerId,
    buyer_ix: usize,
    price_usd: f64,
    method: PaymentMethod,
    platform: Platform,
    state: OrderState,
}

/// One registered bot inventory account (its marketplace rides along in
/// every scheduled [`Action::BotPost`]).
#[derive(Debug, Clone)]
struct Bot {
    seller: SellerId,
    posts: usize,
}

/// The three-engine economy simulator. See the module docs.
pub struct EconomySim {
    cfg: EconomyConfig,
    seed: u64,
    rng: ChaCha8Rng,
    buyers: Vec<Buyer>,
    queue: BTreeMap<(i64, u64, u64), Action>,
    sched_seq: u64,
    next_order: u64,
    orders: BTreeMap<u64, LiveOrder>,
    bots: Vec<Bot>,
    bot_by_seller: BTreeMap<(MarketplaceId, u64), usize>,
    events: Vec<EconomyEvent>,
    persisted: usize,
    now_unix: i64,
    primed: bool,
}

impl EconomySim {
    /// Build a simulator for `cfg` on its own RNG substream. The buyer
    /// population is derived from `(seed, scale)` exactly like the
    /// world's listing population.
    pub fn new(seed: u64, scale: f64, cfg: EconomyConfig) -> EconomySim {
        let buyers = match cfg.escrow {
            Some(ep) => acctrade_workload::buyers::buyer_population(
                seed,
                scale,
                ep.buyers_per_unit_scale,
            ),
            None => Vec::new(),
        };
        EconomySim {
            cfg,
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x0EC0_0EC0_0000_0001),
            buyers,
            queue: BTreeMap::new(),
            sched_seq: 0,
            next_order: 1,
            orders: BTreeMap::new(),
            bots: Vec::new(),
            bot_by_seller: BTreeMap::new(),
            events: Vec::new(),
            persisted: 0,
            now_unix: 0,
            primed: false,
        }
    }

    /// The scenario this sim runs.
    pub fn config(&self) -> &EconomyConfig {
        &self.cfg
    }

    /// The full event stream emitted so far, in emission order.
    pub fn events(&self) -> &[EconomyEvent] {
        &self.events
    }

    /// Events not yet marked persisted (the WAL-append cursor).
    pub fn unpersisted(&self) -> &[EconomyEvent] {
        &self.events[self.persisted..]
    }

    /// Advance the WAL-append cursor past every current event.
    pub fn mark_all_persisted(&mut self) {
        self.persisted = self.events.len();
    }

    /// Virtual time of the last [`EconomySim::advance_to`].
    pub fn now(&self) -> i64 {
        self.now_unix
    }

    /// One-time setup at campaign start (`t0`): register bot sellers
    /// with their marketplaces and seed every engine's first scheduled
    /// action. Runs in the study's sequential section, both on live runs
    /// and (gagged) during resume rebuilds — at the same virtual instant.
    pub fn prime(&mut self, world: &mut World, t0_unix: i64) {
        if self.primed {
            return;
        }
        self.primed = true;
        self.now_unix = t0_unix;

        if let Some(bp) = self.cfg.bots {
            for market in ALL_MARKETPLACES {
                let state = Arc::clone(&world.markets[&market]);
                let mut state = state.write();
                for n in 0..bp.bots_per_market {
                    let global = self.bots.len() as u64;
                    let sid = state.next_seller_id();
                    let mut seller =
                        Seller::new(sid, format!("autostock_{:02}_{}", n + 1, market.config().host));
                    seller.rating = 4.6;
                    seller.completed_sales = 150;
                    seller.joined_unix = t0_unix - 200 * DAY_S;
                    state.add_seller(seller);
                    self.bot_by_seller.insert((market, sid.0), self.bots.len());
                    self.bots.push(Bot { seller: sid, posts: 0 });

                    let mut e = self.blank(t0_unix, ENTITY_BOT + global, EventKind::BotRegistered);
                    e.marketplace = market.name().to_string();
                    e.seller = Some(sid.0);
                    self.events.push(e);
                    count("economy.bots_registered");

                    // Staggered first posts so bots never share a slot.
                    let first = t0_unix + DAY_S / 2 + global as i64 * 7 * HOUR;
                    self.schedule(
                        first,
                        ENTITY_BOT + global,
                        Action::BotPost { market, bot: self.bots.len() - 1, restock: false },
                    );
                }
            }
        }

        if let Some(pp) = self.cfg.pricing {
            for market in ALL_MARKETPLACES {
                self.schedule(
                    t0_unix + pp.sweep_interval_days as i64 * DAY_S,
                    ENTITY_SWEEP + market as u64,
                    Action::PricingSweep { market },
                );
            }
        }

        if self.cfg.escrow.is_some() {
            for b in 0..self.buyers.len() {
                let first =
                    t0_unix + (self.buyers[b].first_delay_days * DAY_S as f64) as i64;
                self.schedule(first, ENTITY_BUYER + b as u64, Action::BuyerArrive { buyer: b });
            }
        }
    }

    /// Drain every scheduled action with `at <= now_unix`, in the
    /// `(time, entity, seq)` total order, mutating `world`'s market
    /// states and appending to the event stream.
    pub fn advance_to(&mut self, world: &mut World, now_unix: i64) {
        loop {
            let due = match self.queue.first_key_value() {
                Some((&(at, _, _), _)) => at <= now_unix,
                None => false,
            };
            if !due {
                break;
            }
            let Some(((at, entity, _), action)) = self.queue.pop_first() else { break };
            self.now_unix = at;
            self.handle(world, at, entity, action);
        }
        self.now_unix = now_unix;
    }

    // -- internals ---------------------------------------------------------

    fn schedule(&mut self, at: i64, entity: u64, action: Action) {
        let seq = self.sched_seq;
        self.sched_seq += 1;
        self.queue.insert((at, entity, seq), action);
    }

    fn blank(&self, at: i64, entity: u64, kind: EventKind) -> EconomyEvent {
        EconomyEvent::blank(self.events.len() as u64, at, entity, kind)
    }

    /// Per-seller exit-scam propensity: a pure hash of
    /// `(seed, market, seller)`, stable under any event interleaving
    /// (no RNG draw, so scheduling order cannot perturb it).
    fn seller_is_scammer(&self, market: MarketplaceId, seller: SellerId) -> bool {
        let Some(ep) = self.cfg.escrow else { return false };
        let digest =
            telemetry::digest64(&format!("scam:{}:{}:{}", self.seed, market.name(), seller.0));
        let word = u64::from_str_radix(&digest, 16).unwrap_or(0);
        (word as f64 / u64::MAX as f64) < ep.scam_propensity
    }

    /// Buyers prefer methods with buyer protection when the marketplace
    /// offers any (the Table 3 method matrix is the menu).
    fn pick_method(&mut self, market: MarketplaceId) -> PaymentMethod {
        let methods = market.config().payment_methods;
        let protected: Vec<PaymentMethod> =
            methods.iter().copied().filter(|m| m.has_buyer_protection()).collect();
        let pool: &[PaymentMethod] = if !protected.is_empty() && self.rng.random_bool(0.7) {
            &protected
        } else {
            methods
        };
        pool.choose(&mut self.rng).copied().unwrap_or(PaymentMethod::Unknown)
    }

    fn handle(&mut self, world: &mut World, at: i64, entity: u64, action: Action) {
        match action {
            Action::BuyerArrive { buyer } => self.buyer_arrive(world, at, buyer),
            Action::OrderStep { order, event } => self.order_step(world, at, order, event),
            Action::PricingSweep { market } => self.pricing_sweep(world, at, entity, market),
            Action::BotPost { market, bot, restock } => {
                self.bot_post(world, at, market, bot, restock)
            }
        }
    }

    fn buyer_arrive(&mut self, world: &mut World, at: i64, buyer: usize) {
        let Some(ep) = self.cfg.escrow else { return };

        // The buyer returns to shop again regardless of today's outcome.
        let gap = self.buyers[buyer].mean_gap_days * self.rng.random_range(0.6..1.4);
        self.schedule(
            at + (gap * DAY_S as f64) as i64,
            ENTITY_BUYER + buyer as u64,
            Action::BuyerArrive { buyer },
        );

        // Pick a marketplace weighted by current stock, then a listing.
        let mut stocked: Vec<(MarketplaceId, usize)> = Vec::new();
        for market in ALL_MARKETPLACES {
            let active = world.markets[&market].read().active_count();
            if active > 0 {
                stocked.push((market, active));
            }
        }
        let total: usize = stocked.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return;
        }
        let mut pick = self.rng.random_range(0..total);
        let mut market = stocked[0].0;
        for &(m, n) in &stocked {
            if pick < n {
                market = m;
                break;
            }
            pick -= n;
        }

        let state = Arc::clone(&world.markets[&market]);
        let state = state.read();
        let active: Vec<(ListingId, f64, Platform, SellerId)> = state
            .listings_sorted()
            .iter()
            .filter(|l| l.is_active())
            .map(|l| (l.id, l.price_usd, l.platform, l.seller))
            .collect();
        drop(state);
        if active.is_empty() {
            return;
        }
        let (listing, price_usd, platform, seller) =
            active[self.rng.random_range(0..active.len())];

        let method = self.pick_method(market);
        let order = self.next_order;
        self.next_order += 1;
        self.orders.insert(
            order,
            LiveOrder {
                market,
                listing,
                seller,
                buyer_ix: buyer,
                price_usd,
                method,
                platform,
                state: OrderState::Quoted,
            },
        );

        let mut e = self.blank(at, ENTITY_ORDER + order, EventKind::OrderOpened);
        e.marketplace = market.name().to_string();
        e.order = Some(order);
        e.listing = Some(listing.0);
        e.seller = Some(seller.0);
        e.buyer = Some(self.buyers[buyer].id);
        e.platform = Some(platform.name().to_string());
        e.price_usd = Some(price_usd);
        e.method = Some(method);
        e.to_state = Some(OrderState::Quoted);
        self.events.push(e);
        count("economy.orders_opened");

        let fund_prob = (ep.fund_prob * self.buyers[buyer].fund_bias).clamp(0.0, 1.0);
        if self.rng.random_bool(fund_prob) {
            let delay = self.rng.random_range(1..36) * HOUR;
            self.schedule(
                at + delay,
                ENTITY_ORDER + order,
                Action::OrderStep { order, event: OrderEvent::Fund },
            );
        }
        // Unfunded quotes simply lapse: the funnel's abandoned-cart gap.
    }

    fn order_step(&mut self, world: &mut World, at: i64, order: u64, event: OrderEvent) {
        let Some(ep) = self.cfg.escrow else { return };
        let Some(live) = self.orders.get(&order) else { return };
        let Ok(next) = live.state.apply(event) else { return };
        let (from, live) = {
            let prev = live.state;
            let mut updated = live.clone();
            updated.state = next;
            self.orders.insert(order, updated.clone());
            (prev, updated)
        };

        let mut e = self.blank(at, ENTITY_ORDER + order, EventKind::OrderTransition);
        e.marketplace = live.market.name().to_string();
        e.order = Some(order);
        e.listing = Some(live.listing.0);
        e.seller = Some(live.seller.0);
        e.buyer = Some(self.buyers[live.buyer_ix].id);
        e.platform = Some(live.platform.name().to_string());
        e.price_usd = Some(live.price_usd);
        e.method = Some(live.method);
        e.from_state = Some(from);
        e.to_state = Some(next);
        e.cause = Some(format!("{event:?}"));
        self.events.push(e);

        match event {
            OrderEvent::Fund => {
                count("economy.orders_funded");
                if self.seller_is_scammer(live.market, live.seller) {
                    self.schedule(
                        at + ep.delivery_deadline_days as i64 * DAY_S,
                        ENTITY_ORDER + order,
                        Action::OrderStep { order, event: OrderEvent::DeliveryTimeout },
                    );
                } else {
                    let window = (ep.delivery_deadline_days as i64 * 24 - 4).max(2);
                    let delay = self.rng.random_range(2..window) * HOUR;
                    self.schedule(
                        at + delay,
                        ENTITY_ORDER + order,
                        Action::OrderStep { order, event: OrderEvent::Deliver },
                    );
                }
            }
            OrderEvent::Deliver => {
                count("economy.orders_delivered");
                {
                    let state = Arc::clone(&world.markets[&live.market]);
                    let mut state = state.write();
                    if let Some(l) = state.listing_mut(live.listing) {
                        if l.is_active() {
                            l.close(ListingState::Sold, at);
                        }
                    }
                }
                self.demand_shock(world, at, live.market, live.seller, true);
                if let Some(bp) = self.cfg.bots {
                    if let Some(&bix) = self.bot_by_seller.get(&(live.market, live.seller.0)) {
                        if self.rng.random_bool(bp.restock_prob) {
                            self.schedule(
                                at + DAY_S,
                                ENTITY_BOT + bix as u64,
                                Action::BotPost { market: live.market, bot: bix, restock: true },
                            );
                        }
                    }
                }
                let dispute_prob =
                    (ep.dispute_prob * self.buyers[live.buyer_ix].dispute_bias).clamp(0.0, 1.0);
                let (next_event, max_hours) = if self.rng.random_bool(dispute_prob) {
                    (OrderEvent::Dispute, 48)
                } else {
                    (OrderEvent::Confirm, (ep.confirm_days * 24).max(2) as i64)
                };
                let delay = self.rng.random_range(1..max_hours) * HOUR;
                self.schedule(
                    at + delay,
                    ENTITY_ORDER + order,
                    Action::OrderStep { order, event: next_event },
                );
            }
            OrderEvent::Confirm => count("economy.orders_released"),
            OrderEvent::Dispute => {
                count("economy.orders_disputed");
                self.demand_shock(world, at, live.market, live.seller, false);
                self.schedule(
                    at + DAY_S,
                    ENTITY_ORDER + order,
                    Action::OrderStep { order, event: OrderEvent::Refund },
                );
            }
            OrderEvent::Refund => count("economy.orders_refunded"),
            OrderEvent::DeliveryTimeout => {
                count("economy.exit_scams");
                self.demand_shock(world, at, live.market, live.seller, false);
            }
        }
    }

    /// A settled sale nudges the seller's remaining stock up; a dispute
    /// or exit scam forces it down (reputation discount).
    fn demand_shock(
        &mut self,
        world: &mut World,
        at: i64,
        market: MarketplaceId,
        seller: SellerId,
        up: bool,
    ) {
        let Some(pp) = self.cfg.pricing else { return };
        let factor =
            if up { 1.0 + pp.demand_shock_pct } else { 1.0 - pp.demand_shock_pct };
        let cause = if up { CAUSE_SHOCK_SALE } else { CAUSE_SHOCK_DISPUTE };
        let state = Arc::clone(&world.markets[&market]);
        let mut state = state.write();
        let targets: Vec<(ListingId, f64, Platform)> = state
            .listings_sorted()
            .iter()
            .filter(|l| l.is_active() && l.seller == seller)
            .map(|l| (l.id, l.price_usd, l.platform))
            .collect();
        for (lid, prev, platform) in targets {
            let new = round_cents((prev * factor).max(1.0));
            if (new - prev).abs() < 0.005 {
                continue;
            }
            if let Some(l) = state.listing_mut(lid) {
                l.price_usd = new;
            }
            let mut e = self.blank(at, ENTITY_SWEEP + market as u64, EventKind::PriceTick);
            e.marketplace = market.name().to_string();
            e.listing = Some(lid.0);
            e.seller = Some(seller.0);
            e.platform = Some(platform.name().to_string());
            e.prev_price_usd = Some(prev);
            e.price_usd = Some(new);
            e.cause = Some(cause.to_string());
            self.events.push(e);
            count("economy.price_ticks");
        }
    }

    fn pricing_sweep(&mut self, world: &mut World, at: i64, entity: u64, market: MarketplaceId) {
        let Some(pp) = self.cfg.pricing else { return };
        self.schedule(
            at + pp.sweep_interval_days as i64 * DAY_S,
            entity,
            Action::PricingSweep { market },
        );

        let state = Arc::clone(&world.markets[&market]);
        let mut state = state.write();
        let snapshot: Vec<(ListingId, f64, Platform, i64)> = state
            .listings_sorted()
            .iter()
            .filter(|l| l.is_active())
            .map(|l| (l.id, l.price_usd, l.platform, l.listed_unix))
            .collect();
        for (lid, prev, platform, listed_unix) in snapshot {
            let mut cause = None;
            let mut new = prev;
            if self.rng.random_bool(pp.drift_prob) {
                let drift = self.rng.random_range(-pp.drift_max_pct..pp.drift_max_pct);
                new = prev * (1.0 + drift);
                cause = Some(CAUSE_DRIFT);
            } else if at - listed_unix > pp.stale_age_days as i64 * DAY_S
                && self.rng.random_bool(pp.stale_discount_prob)
            {
                new = prev * (1.0 - pp.stale_discount_pct);
                cause = Some(CAUSE_STALE_DISCOUNT);
            }
            let Some(cause) = cause else { continue };
            let new = round_cents(new.max(1.0));
            if (new - prev).abs() < 0.005 {
                continue;
            }
            if let Some(l) = state.listing_mut(lid) {
                l.price_usd = new;
            }
            let mut e = self.blank(at, ENTITY_SWEEP + market as u64, EventKind::PriceTick);
            e.marketplace = market.name().to_string();
            e.listing = Some(lid.0);
            e.platform = Some(platform.name().to_string());
            e.prev_price_usd = Some(prev);
            e.price_usd = Some(new);
            e.cause = Some(cause.to_string());
            self.events.push(e);
            count("economy.price_ticks");
        }
    }

    fn bot_post(&mut self, world: &mut World, at: i64, market: MarketplaceId, bot: usize, restock: bool) {
        let Some(bp) = self.cfg.bots else { return };
        let Some(&Bot { seller, posts, .. }) = self.bots.get(bot) else { return };

        if !restock {
            // Cadence posts reschedule themselves; restocks are one-shot.
            let jitter = self.rng.random_range(0.75..1.25);
            let next = at + (bp.post_interval_days as f64 * jitter * DAY_S as f64) as i64;
            self.schedule(
                next,
                ENTITY_BOT + bot as u64,
                Action::BotPost { market, bot, restock: false },
            );
        }

        let platform = weighted_platform(market.config().platform_weights, &mut self.rng);
        let price = round_cents(prices::sample_price(platform, &mut self.rng));
        let churn = bp.template_churn_every.max(1);
        let (tag, body) = BOT_TEMPLATES[(posts / churn) % BOT_TEMPLATES.len()];

        let state = Arc::clone(&world.markets[&market]);
        let mut state = state.write();
        let lid = state.next_listing_id();
        let mut listing = Listing::new(lid, market, platform, seller, price);
        listing.listed_unix = at;
        listing.title = format!("{} account | {}", platform.name(), tag);
        listing.description = Some(body.replace("{platform}", platform.name()));
        state.add_listing(listing);
        drop(state);
        if let Some(b) = self.bots.get_mut(bot) {
            b.posts += 1;
        }

        let mut e = self.blank(at, ENTITY_BOT + bot as u64, EventKind::BotPost);
        e.marketplace = market.name().to_string();
        e.listing = Some(lid.0);
        e.seller = Some(seller.0);
        e.platform = Some(platform.name().to_string());
        e.price_usd = Some(price);
        e.cause = Some(tag.to_string());
        self.events.push(e);
        count("economy.bot_posts");
        if restock {
            count("economy.bot_restocks");
        }
    }
}

/// Round a price to whole cents, the way listing pages display it —
/// the crawler re-parses displayed prices, so the ground truth must not
/// carry sub-cent precision the sites cannot render.
fn round_cents(usd: f64) -> f64 {
    (usd * 100.0).round() / 100.0
}

/// Weighted platform draw over a marketplace's configured listing mix.
fn weighted_platform<R: foundation::rng::Rng + ?Sized>(
    weights: &[(Platform, f64)],
    rng: &mut R,
) -> Platform {
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.random_range(0.0..total);
    for &(p, w) in weights {
        if pick < w {
            return p;
        }
        pick -= w;
    }
    weights.last().map(|&(p, _)| p).unwrap_or(Platform::Instagram)
}

/// Counter shorthand (all economy counters share the `economy.` prefix).
fn count(name: &'static str) {
    telemetry::with_recorder(|r| r.incr(name, &[], 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stream_digest;
    use acctrade_workload::world::WorldParams;

    fn sim_world(seed: u64) -> World {
        World::generate(WorldParams { seed, scale: 0.01 })
    }

    fn run_scenario(seed: u64, name: &str) -> Vec<EconomyEvent> {
        let mut world = sim_world(seed);
        let cfg = EconomyConfig::scenario(name).unwrap();
        let mut sim = EconomySim::new(seed, 0.01, cfg);
        let t0 = 1_706_745_600;
        sim.prime(&mut world, t0);
        for step in 1..=4 {
            let at = t0 + step * 15 * DAY_S;
            world.step_iteration(at);
            sim.advance_to(&mut world, at);
        }
        sim.events().to_vec()
    }

    #[test]
    fn all_scenario_exercises_every_engine() {
        let events = run_scenario(2024, "all");
        let kinds: std::collections::BTreeSet<EventKind> =
            events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::OrderOpened), "no orders opened");
        assert!(kinds.contains(&EventKind::OrderTransition), "no transitions");
        assert!(kinds.contains(&EventKind::PriceTick), "no price ticks");
        assert!(kinds.contains(&EventKind::BotRegistered), "no bots registered");
        assert!(kinds.contains(&EventKind::BotPost), "no bot posts");
        // Sequence numbers are dense and ordered.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Virtual time never goes backwards along the stream.
        assert!(events.windows(2).all(|w| w[0].at_unix <= w[1].at_unix));
    }

    #[test]
    fn same_seed_streams_are_byte_identical() {
        let a = run_scenario(7, "all");
        let b = run_scenario(7, "all");
        assert_eq!(stream_digest(&a), stream_digest(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_scenario(7, "all");
        let b = run_scenario(8, "all");
        assert_ne!(stream_digest(&a), stream_digest(&b));
    }

    #[test]
    fn escrow_reaches_terminal_states() {
        let events = run_scenario(2024, "escrow-basic");
        let released = events
            .iter()
            .filter(|e| e.to_state == Some(OrderState::Released))
            .count();
        assert!(released > 0, "no order ever settled");
        // escrow-basic runs without the pricing engine: no ticks.
        assert!(events.iter().all(|e| e.kind != EventKind::PriceTick));
    }

    #[test]
    fn disabled_config_emits_nothing() {
        let seed = 11;
        let mut world = sim_world(seed);
        let cfg = EconomyConfig { name: "none", escrow: None, pricing: None, bots: None };
        let mut sim = EconomySim::new(seed, 0.01, cfg);
        sim.prime(&mut world, 0);
        sim.advance_to(&mut world, 10_000 * DAY_S);
        assert!(sim.events().is_empty());
    }
}
