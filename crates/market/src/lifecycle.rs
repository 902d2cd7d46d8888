//! Marketplace state and listing dynamics over the collection window.
//!
//! Figure 2 of the paper shows cumulative listings growing monotonically
//! while *active* listings dip and recover: sold or delisted accounts leave
//! the market and sellers replenish inventory "to maintain higher stock
//! levels and meet supply and demand needs". [`MarketState`] holds one
//! marketplace's sellers and listings and implements the churn half of that
//! dynamic; the workload generator implements replenishment by inserting
//! new listings between crawl iterations.

use crate::config::MarketplaceId;
use crate::listing::{Listing, ListingId, ListingState};
use crate::seller::{Seller, SellerId};
use acctrade_social::platform::{Platform, ALL_PLATFORMS};
use foundation::rng::{Rng, RngExt};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Mutable state of one public marketplace.
#[derive(Debug, Clone)]
pub struct MarketState {
    id: MarketplaceId,
    sellers: HashMap<SellerId, Seller>,
    listings: HashMap<ListingId, Listing>,
    /// Listing ids in insertion order (stable pagination).
    order: Vec<ListingId>,
    /// Active listing ids per platform (indexed by `Platform as usize`),
    /// in insertion order. Built on the first read after a change; every
    /// `&mut self` method that can change a listing drops it.
    active: OnceLock<[Vec<ListingId>; ALL_PLATFORMS.len()]>,
    next_seller: u64,
    next_listing: u64,
}

/// Churn outcome of one lifecycle step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Sold.
    pub sold: usize,
    /// Delisted.
    pub delisted: usize,
}

impl MarketState {
    /// Empty state for a marketplace.
    pub fn new(id: MarketplaceId) -> MarketState {
        MarketState {
            id,
            sellers: HashMap::new(),
            listings: HashMap::new(),
            order: Vec::new(),
            active: OnceLock::new(),
            next_seller: 1,
            next_listing: 1,
        }
    }

    /// The marketplace this state belongs to.
    pub fn id(&self) -> MarketplaceId {
        self.id
    }

    /// Allocate a fresh seller id.
    pub fn next_seller_id(&mut self) -> SellerId {
        let id = SellerId(self.next_seller);
        self.next_seller += 1;
        id
    }

    /// Allocate a fresh listing id.
    pub fn next_listing_id(&mut self) -> ListingId {
        let id = ListingId(self.next_listing);
        self.next_listing += 1;
        id
    }

    /// Register a seller.
    pub fn add_seller(&mut self, seller: Seller) -> SellerId {
        let id = seller.id;
        self.sellers.insert(id, seller);
        id
    }

    /// Insert a listing.
    ///
    /// # Panics
    /// Panics if the listing's marketplace differs or its seller is
    /// unknown.
    pub fn add_listing(&mut self, listing: Listing) -> ListingId {
        assert_eq!(listing.marketplace, self.id, "marketplace mismatch");
        assert!(
            self.sellers.contains_key(&listing.seller),
            "unknown seller {:?}",
            listing.seller
        );
        let id = listing.id;
        self.order.push(id);
        self.listings.insert(id, listing);
        self.active.take();
        id
    }

    /// Look up a seller.
    pub fn seller(&self, id: SellerId) -> Option<&Seller> {
        self.sellers.get(&id)
    }

    /// Look up a listing.
    pub fn listing(&self, id: ListingId) -> Option<&Listing> {
        self.listings.get(&id)
    }

    /// Number of sellers.
    pub fn seller_count(&self) -> usize {
        self.sellers.len()
    }

    /// All listings ever posted (cumulative count — Figure 2's upper
    /// curve).
    pub fn cumulative_count(&self) -> usize {
        self.listings.len()
    }

    /// Currently active listings (Figure 2's lower curve).
    pub fn active_count(&self) -> usize {
        self.listings.values().filter(|l| l.is_active()).count()
    }

    /// Ids of the active listings for one platform, in insertion order.
    pub fn active_for_platform(&self, platform: Platform) -> &[ListingId] {
        let active = self.active.get_or_init(|| {
            let mut active: [Vec<ListingId>; ALL_PLATFORMS.len()] = Default::default();
            for l in self.order.iter().filter_map(|id| self.listings.get(id)) {
                if l.is_active() {
                    active[l.platform as usize].push(l.id);
                }
            }
            active
        });
        &active[platform as usize]
    }

    /// Platforms that currently have active stock, in canonical order.
    pub fn stocked_platforms(&self) -> Vec<Platform> {
        ALL_PLATFORMS
            .into_iter()
            .filter(|&p| !self.active_for_platform(p).is_empty())
            .collect()
    }

    /// All listings in insertion order (cumulative view).
    pub fn listings_sorted(&self) -> Vec<&Listing> {
        self.order.iter().filter_map(|id| self.listings.get(id)).collect()
    }

    /// Mutable listing access.
    pub fn listing_mut(&mut self, id: ListingId) -> Option<&mut Listing> {
        self.active.take();
        self.listings.get_mut(&id)
    }

    /// One churn step: each active listing sells with probability
    /// `sale_prob` and is delisted with probability `delist_prob`,
    /// independently, at virtual time `now_unix`. Cheaper listings sell a
    /// little faster (demand skews to affordable accounts).
    pub fn churn<R: Rng + ?Sized>(
        &mut self,
        sale_prob: f64,
        delist_prob: f64,
        now_unix: i64,
        rng: &mut R,
    ) -> ChurnReport {
        self.active.take();
        let mut report = ChurnReport::default();
        let ids: Vec<ListingId> = self.order.clone();
        for id in ids {
            let Some(l) = self.listings.get_mut(&id) else { continue };
            if !l.is_active() {
                continue;
            }
            // Price elasticity: listings under $100 sell ~1.5x as fast;
            // five-figure listings half as fast.
            let elasticity = if l.price_usd < 100.0 {
                1.5
            } else if l.price_usd > 10_000.0 {
                0.5
            } else {
                1.0
            };
            if rng.random_bool((sale_prob * elasticity).clamp(0.0, 1.0)) {
                l.close(ListingState::Sold, now_unix);
                report.sold += 1;
            } else if rng.random_bool(delist_prob.clamp(0.0, 1.0)) {
                l.close(ListingState::Delisted, now_unix);
                report.delisted += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::SeedableRng;
    use foundation::rng::ChaCha8Rng;

    fn state_with_listings(n: usize, price: f64) -> MarketState {
        let mut s = MarketState::new(MarketplaceId::Accsmarket);
        let sid = s.next_seller_id();
        s.add_seller(Seller::new(sid, "bulkseller"));
        for _ in 0..n {
            let lid = s.next_listing_id();
            s.add_listing(Listing::new(
                lid,
                MarketplaceId::Accsmarket,
                Platform::Instagram,
                sid,
                price,
            ));
        }
        s
    }

    #[test]
    fn counts_track_churn() {
        let mut s = state_with_listings(100, 200.0);
        assert_eq!(s.cumulative_count(), 100);
        assert_eq!(s.active_count(), 100);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = s.churn(0.3, 0.1, 1_000, &mut rng);
        assert!(report.sold > 0);
        assert_eq!(s.cumulative_count(), 100, "cumulative never shrinks");
        assert_eq!(s.active_count(), 100 - report.sold - report.delisted);
    }

    #[test]
    fn cheap_listings_sell_faster() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut cheap = state_with_listings(2000, 50.0);
        let mut pricey = state_with_listings(2000, 50_000.0);
        let rc = cheap.churn(0.2, 0.0, 0, &mut rng);
        let rp = pricey.churn(0.2, 0.0, 0, &mut rng);
        assert!(rc.sold as f64 > rp.sold as f64 * 2.0, "cheap={} pricey={}", rc.sold, rp.sold);
    }

    #[test]
    fn platform_filtering() {
        let mut s = state_with_listings(3, 10.0);
        let sid = SellerId(1);
        let lid = s.next_listing_id();
        s.add_listing(Listing::new(lid, MarketplaceId::Accsmarket, Platform::X, sid, 10.0));
        assert_eq!(s.active_for_platform(Platform::Instagram).len(), 3);
        assert_eq!(s.active_for_platform(Platform::X).len(), 1);
        assert_eq!(s.stocked_platforms(), vec![Platform::Instagram, Platform::X]);
    }

    #[test]
    #[should_panic(expected = "unknown seller")]
    fn listing_requires_registered_seller() {
        let mut s = MarketState::new(MarketplaceId::Z2U);
        let lid = s.next_listing_id();
        s.add_listing(Listing::new(lid, MarketplaceId::Z2U, Platform::X, SellerId(99), 1.0));
    }

    #[test]
    #[should_panic(expected = "marketplace mismatch")]
    fn listing_requires_matching_marketplace() {
        let mut s = MarketState::new(MarketplaceId::Z2U);
        let sid = s.next_seller_id();
        s.add_seller(Seller::new(sid, "x"));
        let lid = s.next_listing_id();
        s.add_listing(Listing::new(lid, MarketplaceId::MidMan, Platform::X, sid, 1.0));
    }

    foundation::prop_check! {
        /// The per-platform index never goes stale: after every step of
        /// any mix of listings added, churned and closed one by one, each
        /// platform's active list is the insertion-order filter of every
        /// listing.
        fn active_index_tracks_every_change(
            steps in foundation::check::vec((0u8..3, 0u64..1_000), 1..60),
        ) {
            let mut s = state_with_listings(0, 0.0);
            let sid = SellerId(1);
            for (i, &(op, arg)) in steps.iter().enumerate() {
                match op {
                    0 => {
                        let lid = s.next_listing_id();
                        let platform = ALL_PLATFORMS[arg as usize % ALL_PLATFORMS.len()];
                        let price = [50.0, 500.0, 50_000.0][arg as usize % 3];
                        s.add_listing(Listing::new(lid, s.id(), platform, sid, price));
                    }
                    1 => {
                        let mut rng = ChaCha8Rng::seed_from_u64(arg);
                        s.churn(0.2, 0.1, i as i64, &mut rng);
                    }
                    _ => {
                        let n = s.cumulative_count() as u64;
                        let terminal = [ListingState::Sold, ListingState::Delisted][arg as usize % 2];
                        if n > 0 {
                            let id = ListingId(arg % n + 1);
                            if let Some(l) = s.listing_mut(id).filter(|l| l.is_active()) {
                                l.close(terminal, i as i64);
                            }
                        }
                    }
                }
                let mut stocked = Vec::new();
                for p in ALL_PLATFORMS {
                    let want: Vec<ListingId> = s
                        .listings_sorted()
                        .into_iter()
                        .filter(|l| l.is_active() && l.platform == p)
                        .map(|l| l.id)
                        .collect();
                    assert_eq!(s.active_for_platform(p), want, "{p:?} after step {i} ({op}, {arg})");
                    if !want.is_empty() {
                        stocked.push(p);
                    }
                }
                assert_eq!(s.stocked_platforms(), stocked, "after step {i}");
            }
        }
    }

    #[test]
    fn zero_probabilities_are_stable() {
        let mut s = state_with_listings(50, 100.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = s.churn(0.0, 0.0, 0, &mut rng);
        assert_eq!(report, ChurnReport::default());
        assert_eq!(s.active_count(), 50);
    }
}
