//! The world generator: instantiate the whole measured ecosystem.
//!
//! [`World::generate`] builds, from one seed and a scale factor:
//!
//! * eleven [`MarketState`]s populated with sellers and listings whose
//!   marginals follow Tables 1–4 and §4.1's in-text statistics;
//! * five [`PlatformStore`]s holding every *visible* advertised account —
//!   profiles tailored per §5 (creation dates, followers, locations,
//!   categories, account types) — plus their timelines (scam posts per
//!   Tables 5/6, benign posts per Table 2, non-English decoys);
//! * Table 7's coordinated clusters (accounts sharing names / biographies
//!   / contact attributes);
//! * the eight underground forums with §4.2's 65 posts, including the
//!   template-reuse families behind the 88–100% similarity findings.
//!
//! [`World::deploy`] registers everything on a [`SimNet`];
//! [`World::step_iteration`] advances the listing lifecycle between crawl
//! iterations (Figure 2's churn + replenishment);
//! [`World::run_moderation`] executes the calibrated platform sweeps
//! behind Table 8.

use crate::calibration as cal;
use crate::categories;
use crate::names::{self, NameTheme};
use crate::prices;
use crate::textgen::{self, ScamSubcategory, ALL_SUBCATEGORIES};
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_market::lifecycle::MarketState;
use acctrade_market::listing::{Listing, ListingId, Monetization};
use acctrade_market::seller::{Seller, SellerId, LONG_TAIL_COUNTRIES, TOP_SELLER_COUNTRIES};
use acctrade_market::site::MarketplaceSite;
use acctrade_market::underground::{UndergroundForum, UndergroundId, UndergroundPost, ALL_UNDERGROUND};
use acctrade_net::clock::{unix_from_ymd, COLLECTION_START_UNIX};
use acctrade_net::latency::LatencyModel;
use acctrade_net::sim::SimNet;
use acctrade_social::account::{AccountDisposition, AccountId, AccountProfile, AccountType};
use acctrade_social::engagement::sample_post_engagement;
use acctrade_social::moderation::ModerationEngine;
use acctrade_social::platform::{Platform, ALL_PLATFORMS};
use acctrade_social::post::Post;
use acctrade_social::store::PlatformStore;
use foundation::sync::RwLock;
use foundation::rng::IndexedRandom;
use foundation::rng::{RngExt, SeedableRng};
use foundation::rng::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parameters of a world.
#[derive(Debug, Clone, Copy)]
pub struct WorldParams {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Scale factor on the paper's population sizes (1.0 = full scale:
    /// 38,253 listings, ~205K posts).
    pub scale: f64,
}

impl WorldParams {
    /// Full paper scale.
    pub fn full(seed: u64) -> WorldParams {
        WorldParams { seed, scale: 1.0 }
    }

    /// A small world for tests and quick examples.
    pub fn small(seed: u64) -> WorldParams {
        WorldParams { seed, scale: 0.05 }
    }

    fn scaled(&self, n: u32) -> usize {
        ((f64::from(n) * self.scale).round() as usize).max(if n > 0 { 1 } else { 0 })
    }
}

/// Ground truth the generator records (never exposed to the pipeline).
#[derive(Debug, Clone, Default)]
pub struct WorldTruth {
    /// Primary + secondary scam categories per (platform, account id).
    pub scam_accounts: BTreeMap<(Platform, u64), Vec<ScamSubcategory>>,
    /// Scam posts generated per subcategory.
    pub scam_posts_by_sub: BTreeMap<ScamSubcategory, u32>,
    /// Coordinated clusters planted per platform: account-id groups.
    pub clusters: Vec<(Platform, Vec<u64>)>,
    /// Totals.
    pub listings_total: usize,
    /// Visible total.
    pub visible_total: usize,
    /// Posts total.
    pub posts_total: usize,
    /// Foreign posts.
    pub foreign_posts: usize,
    /// Scam posts total.
    pub scam_posts_total: usize,
}

/// A fully generated world.
///
/// ```
/// use acctrade_workload::world::{World, WorldParams};
/// use acctrade_net::sim::SimNet;
///
/// let world = World::generate(WorldParams { seed: 7, scale: 0.01 });
/// let net = SimNet::new(7);
/// world.deploy(&net);
/// assert!(net.knows_host("accsmarket.com"));
/// assert!(world.truth.visible_total > 0);
/// ```
pub struct World {
    /// Params.
    pub params: WorldParams,
    /// Stores.
    pub stores: BTreeMap<Platform, Arc<RwLock<PlatformStore>>>,
    /// Markets.
    pub markets: BTreeMap<MarketplaceId, Arc<RwLock<MarketState>>>,
    /// Forums.
    pub forums: Vec<Arc<UndergroundForum>>,
    /// Truth.
    pub truth: WorldTruth,
    rng: ChaCha8Rng,
    category_pool: Vec<String>,
    platform_category_pool: Vec<String>,
    location_pool: Vec<&'static str>,
}

impl World {
    /// Generate a world. At full scale this creates ~38K listings, ~11.5K
    /// platform accounts, and ~205K posts; it stays comfortably in memory.
    pub fn generate(params: WorldParams) -> World {
        let mut world = World {
            params,
            stores: ALL_PLATFORMS
                .into_iter()
                .map(|p| (p, Arc::new(RwLock::new(PlatformStore::new(p)))))
                .collect(),
            markets: ALL_MARKETPLACES
                .into_iter()
                .map(|m| (m, Arc::new(RwLock::new(MarketState::new(m)))))
                .collect(),
            forums: Vec::new(),
            truth: WorldTruth::default(),
            rng: ChaCha8Rng::seed_from_u64(params.seed ^ 0x0A11_D00D_0000_0001),
            category_pool: categories::marketplace_categories(),
            platform_category_pool: categories::platform_categories(),
            location_pool: categories::locations(),
        };
        world.generate_sellers();
        world.generate_initial_listings();
        world.plant_clusters();
        world.generate_posts();
        world.generate_underground();
        world
    }

    /// Register every site, API, and forum on a fabric.
    pub fn deploy(&self, net: &Arc<SimNet>) {
        for (&market, state) in &self.markets {
            net.register_with(
                market.host(),
                MarketplaceSite::new(Arc::clone(state)),
                LatencyModel::clearnet(),
            );
        }
        for (&platform, store) in &self.stores {
            net.register_with(
                platform.api_host(),
                acctrade_social::api::PlatformApi::new(Arc::clone(store)),
                LatencyModel::api(),
            );
        }
        for forum in &self.forums {
            net.register(&forum.config().host.clone(), Arc::clone(forum));
        }
        telemetry::with_recorder(|r| {
            r.event(
                "world.deployed",
                format!(
                    "markets={} platforms={} forums={}",
                    self.markets.len(),
                    self.stores.len(),
                    self.forums.len()
                ),
            );
            r.gauge_set("world.hosts", &[], net.hosts().len() as f64);
        });
    }

    // -- sellers ------------------------------------------------------------

    fn generate_sellers(&mut self) {
        let country_head_total: u32 = TOP_SELLER_COUNTRIES.iter().map(|&(_, c)| c).sum();
        for market in ALL_MARKETPLACES {
            let cfg = market.config();
            // Hidden-seller marketplaces still *have* sellers internally;
            // the site just never renders them.
            let n = self
                .params
                .scaled(cfg.table1_sellers.unwrap_or(cfg.table1_accounts / 8).max(1));
            let state = Arc::clone(&self.markets[&market]);
            let mut state = state.write();
            for i in 0..n {
                let id = state.next_seller_id();
                let mut seller = Seller::new(id, names::seller_username(id.0, &mut self.rng));
                // §4.1: ~23% of sellers disclose a country.
                if self.rng.random_bool(0.23) {
                    seller.country = Some(self.sample_seller_country(country_head_total));
                }
                seller.rating = self.rng.random_range(2.5f32..5.0);
                seller.completed_sales = self.rng.random_range(0..400);
                seller.joined_unix =
                    unix_from_ymd(self.rng.random_range(2018..2024), self.rng.random_range(1..13), 15);
                let _ = i;
                state.add_seller(seller);
            }
        }
    }

    fn sample_seller_country(&mut self, head_total: u32) -> String {
        // Top-5 carry ~55% of disclosed countries.
        if self.rng.random_bool(0.55) {
            let mut pick = self.rng.random_range(0..head_total);
            for &(name, c) in TOP_SELLER_COUNTRIES {
                if pick < c {
                    return name.to_string();
                }
                pick -= c;
            }
        }
        (*LONG_TAIL_COUNTRIES.choose(&mut self.rng).expect("non-empty")).to_string() // conformance: allow(panic-policy) — static non-empty country table
    }

    // -- listings -------------------------------------------------------------

    fn generate_initial_listings(&mut self) {
        for market in ALL_MARKETPLACES {
            let cfg = market.config();
            let total = self.params.scaled(cfg.table1_accounts);
            let initial = ((total as f64) * cal::INITIAL_STOCK_FRACTION).round() as usize;
            for _ in 0..initial {
                self.add_one_listing(market, COLLECTION_START_UNIX - 86_400 * 30);
            }
        }
    }

    /// Create one listing (and, if visible, its platform account). Used
    /// for both initial stock and replenishment.
    pub fn add_one_listing(&mut self, market: MarketplaceId, listed_unix: i64) -> ListingId {
        let cfg = market.config();
        let platform = self.sample_platform(cfg.platform_weights);
        let state = Arc::clone(&self.markets[&market]);
        let mut state = state.write();
        let seller = {
            // Mixture: most listings walk the seller roster (real
            // marketplaces show ~1.3 listings/seller on FameSwap), a
            // minority concentrate on power sellers (Accsmarket's 5.6).
            let n = state.seller_count() as u64;
            let lid_next = state.cumulative_count() as u64;
            if self.rng.random_bool(0.72) {
                SellerId(1 + lid_next % n)
            } else {
                let r: f64 = self.rng.random_range(0.0..1.0);
                SellerId(1 + ((r * r) * n as f64) as u64)
            }
        };
        let lid = state.next_listing_id();
        let price = prices::sample_price(platform, &mut self.rng);
        let mut listing = Listing::new(lid, market, platform, seller, price);
        listing.listed_unix = listed_unix + self.rng.random_range(0..86_400 * 7);

        // Category (§4.1: 22% uncategorized).
        if !self.rng.random_bool(cal::UNCATEGORIZED_FRACTION) {
            listing.category =
                Some(categories::sample_marketplace_category(&self.category_pool, &mut self.rng));
        }
        // Followers shown in the ad (§4.1: 40%).
        let claimed_followers = self.sample_followers(platform);
        if self.rng.random_bool(cal::FOLLOWERS_SHOWN_FRACTION) {
            listing.claimed_followers = Some(claimed_followers);
        }
        // Description (§4.1: 63%).
        if self.rng.random_bool(cal::DESCRIBED_FRACTION) {
            listing.description = Some(self.listing_description(platform, claimed_followers));
        }
        // Monetization (§4.1: 164 / 38,253).
        if self.rng.random_bool(f64::from(cal::MONETIZED_LISTINGS) / 38_253.0) {
            listing.monetization = Some(Monetization {
                monthly_revenue_usd: prices::sample_monthly_revenue(&mut self.rng),
                income_source: self.sample_income_source(),
            });
        }

        // Visible profile link (§3.2: per-platform fraction).
        if self.rng.random_bool(cal::visible_fraction(platform)) {
            let handle = self.create_platform_account(platform, listing.listed_unix);
            listing.profile_link = Some(format!("http://{}/{}", platform.web_host(), handle));
            listing.linked_handle = Some(handle);
            self.truth.visible_total += 1;
        } else if platform == Platform::YouTube
            && self.rng.random_bool(
                f64::from(cal::VERIFIED_CLAIMS)
                    / (9_087.0 * (1.0 - cal::visible_fraction(Platform::YouTube))),
            )
        {
            // §4.1: verified claims appear only on YouTube listings that
            // do NOT link their channels.
            listing.claims_verified = true;
        }

        listing.title = self.listing_title(platform, &listing);
        state.add_listing(listing);
        self.truth.listings_total += 1;
        lid
    }

    fn sample_platform(&mut self, weights: &[(Platform, f64)]) -> Platform {
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut pick = self.rng.random_range(0.0..total);
        for &(p, w) in weights {
            if pick < w {
                return p;
            }
            pick -= w;
        }
        weights.last().expect("non-empty weights").0 // conformance: allow(panic-policy) — static non-empty weight table
    }

    fn listing_title(&mut self, platform: Platform, listing: &Listing) -> String {
        let category = listing.category.as_deref().unwrap_or("niche");
        match listing.claimed_followers {
            Some(f) if f > 0 => format!(
                "{} {} account — {} followers",
                platform.name(),
                category,
                f
            ),
            _ => format!("{} {} account for sale", platform.name(), category),
        }
    }

    fn listing_description(&mut self, platform: Platform, followers: u64) -> String {
        // §4.1: of 24,293 descriptions only ~1,280 carry one of the eight
        // keyword-identifiable strategies; the rest are free-form pitches.
        let strategy_total: u32 = cal::DESCRIPTION_STRATEGIES.iter().map(|&(_, c)| c).sum();
        if self.rng.random_bool(f64::from(strategy_total) / 24_293.0) {
            let mut pick = self.rng.random_range(0..strategy_total);
            for &(label, c) in cal::DESCRIPTION_STRATEGIES {
                if pick < c {
                    return self.strategy_description(label, platform, followers);
                }
                pick -= c;
            }
        }
        let generic = [
            format!(
                "Selling {} account with {} followers and viral content. The account averages strong views per post and has proven highly engaging. Feel free to make an offer.",
                platform.name(),
                followers
            ),
            format!(
                "Great {} page in a growing niche. Consistent posting schedule, audience insights available on request.",
                platform.name()
            ),
            "Moving on to other projects so letting this one go. Serious buyers only, price slightly negotiable.".to_string(),
            format!(
                "Page has {} followers and steady reach. Will help with the transfer and answer questions for a week after the sale.",
                followers
            ),
            "Handled everything myself from day one. Clean history, no strikes, no purchased engagement.".to_string(),
            format!(
                "One of the better {} accounts you will find at this price point. Check the metrics and decide for yourself.",
                platform.name()
            ),
        ];
        generic.choose(&mut self.rng).expect("non-empty").clone() // conformance: allow(panic-policy) — `generic` is a non-empty literal array
    }

    /// A description carrying one of §4.1's eight keyword-identifiable
    /// strategies.
    fn strategy_description(&mut self, label: &str, platform: Platform, followers: u64) -> String {
        match label {
            "authentic" => format!(
                "100% authentic {} account with real history, built by hand since day one.",
                platform.name()
            ),
            "fresh and ready" => "No shout outs have ever been done on the account. The account is fresh and ready for whatever purposes you need - CPA, product promotion, drop shipping, or traffic generation.".to_string(),
            "business adaptability" => "Perfect for business adaptability: rebrand it, plug in your store, and start selling from day one.".to_string(),
            "real users with activity" => format!(
                "Real and active users: {followers} followers that actually engage with every post."
            ),
            _ => format!(
                "Comes with the original email included, so you get full ownership of the {} account forever.",
                platform.name()
            ),
        }
    }

    fn sample_income_source(&mut self) -> String {
        let total: u32 = cal::INCOME_SOURCES.iter().map(|&(_, c)| c).sum();
        let mut pick = self.rng.random_range(0..total);
        for &(label, c) in cal::INCOME_SOURCES {
            if pick < c {
                return label.to_string();
            }
            pick -= c;
        }
        cal::INCOME_SOURCES[0].0.to_string()
    }

    // -- platform accounts ---------------------------------------------------

    fn create_platform_account(&mut self, platform: Platform, _listed_unix: i64) -> String {
        let store = Arc::clone(&self.stores[&platform]);
        let mut store = store.write();
        let id = store.next_account_id();

        let disposition = self.sample_disposition(platform);
        let theme = match disposition {
            AccountDisposition::Organic => NameTheme::Personal,
            AccountDisposition::Harvested => {
                if self.rng.random_bool(0.5) {
                    NameTheme::Personal
                } else {
                    NameTheme::Niche
                }
            }
            AccountDisposition::Farmed | AccountDisposition::ScamOperator => {
                if self.rng.random_bool(0.45) {
                    NameTheme::Trending
                } else {
                    NameTheme::Niche
                }
            }
        };
        let handle = names::handle(theme, id.0, &mut self.rng);
        let mut profile = AccountProfile::new(id, platform, handle.clone());
        // Names and bios carry an account-specific token so that *only*
        // the deliberately planted Table 7 clusters share attributes —
        // organic attribute collisions would otherwise swamp the network
        // analysis (template pools are small).
        profile.name = format!("{} {}", names::display_name(theme, &mut self.rng), id.0 % 100_000);
        profile.description =
            format!("{} · est{}", self.profile_description(theme), id.0 % 100_000);
        profile.created_unix = self.sample_creation_date(platform);
        profile.followers = self.sample_followers(platform);
        profile.following = (profile.followers as f64 * self.rng.random_range(0.01..1.5)) as u64;
        profile.disposition = disposition;

        // §5 quotas over 11,457 visible accounts.
        profile.account_type = self.sample_account_type();
        if self.rng.random_bool(f64::from(cal::LOCATED_PROFILES) / 11_457.0) {
            profile.location =
                Some(categories::sample_location(&self.location_pool, &mut self.rng).to_string());
        }
        if self.rng.random_bool(f64::from(cal::PLATFORM_CATEGORIZED_ACCOUNTS) / 11_457.0) {
            profile.category = Some(
                self.platform_category_pool
                    .choose(&mut self.rng)
                    .expect("non-empty") // conformance: allow(panic-policy) — category pool is seeded non-empty at construction
                    .clone(),
            );
        }
        // Business contact attributes (Facebook clustering keys in Table 7).
        if profile.account_type == AccountType::Business || self.rng.random_bool(0.08) {
            profile.email = Some(format!("contact.{}@mail.example", id.0));
            if self.rng.random_bool(0.4) {
                profile.phone = Some(format!("+1555{:07}", id.0 % 10_000_000));
            }
            if self.rng.random_bool(0.3) {
                profile.website = Some(format!("http://biz{}.example/", id.0));
            }
        }

        store.insert_account(profile);
        handle
    }

    fn sample_disposition(&mut self, platform: Platform) -> AccountDisposition {
        // Scam-operator share per platform = Table 5 scam / Table 2 visible.
        let (scam, _) = cal::table5(platform);
        let (vis, _, _) = cal::table2(platform);
        let p_scam = f64::from(scam) / f64::from(vis);
        if self.rng.random_bool(p_scam) {
            return AccountDisposition::ScamOperator;
        }
        // The rest: mostly farmed/harvested inventory, some organic resales.
        let r: f64 = self.rng.random_range(0.0..1.0);
        if r < 0.5 {
            AccountDisposition::Farmed
        } else if r < 0.8 {
            AccountDisposition::Harvested
        } else {
            AccountDisposition::Organic
        }
    }

    fn profile_description(&mut self, theme: NameTheme) -> String {
        let bios = match theme {
            NameTheme::Trending => [
                "Daily crypto and NFT alpha. Not financial advice. DM for promos.",
                "Luxury lifestyle and wealth motivation. Collabs open.",
                "Giveaways every week. Follow to never miss a drop.",
            ],
            NameTheme::Niche => [
                "Your daily dose of the best content in the niche.",
                "Curated posts every day. Turn on notifications.",
                "The home of this community since day one. DM for features.",
            ],
            NameTheme::Personal => [
                "Just sharing my life and things I love.",
                "Coffee first. Opinions my own.",
                "Trying to post more this year.",
            ],
        };
        bios.choose(&mut self.rng).expect("non-empty").to_string() // conformance: allow(panic-policy) — `bios` is a non-empty literal array
    }

    fn sample_creation_date(&mut self, platform: Platform) -> i64 {
        let earliest = platform.earliest_creation_year();
        if self.rng.random_bool(cal::CREATED_PRE_2020) {
            // Pre-2020 cohort.
            let year = if platform == Platform::YouTube
                && self.rng.random_bool(cal::YT_ANCIENT_FRACTION / cal::CREATED_PRE_2020)
            {
                self.rng.random_range(2006..2011)
            } else if platform == Platform::YouTube {
                // Keep 2010 out of the ordinary branch so the 2006-2010
                // cohort stays under the paper's 0.5% (Figure 4).
                self.rng.random_range(2011..2020)
            } else {
                self.rng.random_range(earliest.clamp(2010, 2019)..2020)
            };
            unix_from_ymd(year, self.rng.random_range(1..13), self.rng.random_range(1..28))
        } else {
            // Within 3.5 years of the collection window.
            let start = unix_from_ymd(2020, 8, 1);
            let end = COLLECTION_START_UNIX;
            self.rng.random_range(start..end)
        }
    }

    fn sample_followers(&mut self, platform: Platform) -> u64 {
        let median = platform.table4_median_followers().max(1) as f64;
        let sigma = match platform {
            Platform::TikTok => 2.4,
            Platform::X => 1.5,
            Platform::Facebook => 1.6,
            Platform::Instagram => 1.7,
            Platform::YouTube => 2.0,
        };
        let raw = prices::lognormal_with_median(median, sigma, &mut self.rng);
        let clamped = raw.clamp(
            platform.table4_min_followers() as f64,
            platform.table4_max_followers() as f64,
        ) as u64;
        // TikTok's advertised accounts are mostly fresh (median 1): shift
        // the low end toward zero.
        if platform == Platform::TikTok && clamped <= 2 && self.rng.random_bool(0.4) {
            0
        } else {
            clamped
        }
    }

    fn sample_account_type(&mut self) -> AccountType {
        let total = 11_457.0;
        let r: f64 = self.rng.random_range(0.0..1.0);
        let verified = f64::from(cal::VERIFIED_ACCOUNTS) / total;
        let business = f64::from(cal::BUSINESS_ACCOUNTS) / total;
        let private = f64::from(cal::PRIVATE_ACCOUNTS) / total;
        let protected = f64::from(cal::PROTECTED_ACCOUNTS) / total;
        if r < verified {
            AccountType::Verified
        } else if r < verified + business {
            AccountType::Business
        } else if r < verified + business + private {
            AccountType::Private
        } else if r < verified + business + private + protected {
            AccountType::Protected
        } else {
            AccountType::Standard
        }
    }

    // -- clusters (Table 7) ---------------------------------------------------

    fn plant_clusters(&mut self) {
        for platform in ALL_PLATFORMS {
            let (n_clusters, n_accounts, max_size, _) = cal::table7(platform);
            let n_clusters = self.params.scaled(n_clusters);
            let n_accounts = self.params.scaled(n_accounts);
            if n_clusters == 0 || n_accounts < 2 {
                continue;
            }
            let store = Arc::clone(&self.stores[&platform]);
            let mut store = store.write();
            let mut ids = store.account_ids();
            if ids.len() < n_accounts {
                continue;
            }
            // Deterministic shuffle to pick cluster members.
            for i in (1..ids.len()).rev() {
                let j = self.rng.random_range(0..=i);
                ids.swap(i, j);
            }
            let mut pool = ids.into_iter().take(n_accounts);
            let mut remaining = n_accounts;
            for c in 0..n_clusters {
                if remaining < 2 {
                    break;
                }
                // One oversized cluster per platform (Instagram's 46-member
                // cluster at full scale); the rest near the median of 2.
                let size = if c == 0 {
                    (max_size as usize).min(remaining.saturating_sub((n_clusters - 1 - c) * 2)).max(2)
                } else {
                    2 + usize::from(self.rng.random_bool(0.2))
                }
                .min(remaining);
                let members: Vec<AccountId> = pool.by_ref().take(size).collect();
                if members.len() < 2 {
                    break;
                }
                remaining -= members.len();
                self.apply_cluster_attributes(platform, &mut store, &members, c);
                self.truth
                    .clusters
                    .push((platform, members.iter().map(|a| a.0).collect()));
            }
        }
    }

    fn apply_cluster_attributes(
        &mut self,
        platform: Platform,
        store: &mut PlatformStore,
        members: &[AccountId],
        cluster_idx: usize,
    ) {
        let tag = self.rng.random_range(1000u32..9999);
        for &id in members {
            let Some(p) = store.account_mut(id) else { continue };
            match platform {
                Platform::TikTok => {
                    p.description = format!(
                        "Harvesting {}00 accounts with 100K followers each. Contact us on Telegram @supplier{tag} for bulk deals.",
                        cluster_idx + 1
                    );
                }
                Platform::YouTube => {
                    p.name = format!("Media Network {tag}");
                }
                Platform::Instagram => {
                    p.description = format!(
                        "Free NFT giveaways for the community! Join the movement, link in bio. Official partner network {tag}."
                    );
                }
                Platform::Facebook => {
                    p.email = Some(format!("sales.network{tag}@mail.example"));
                    p.phone = Some(format!("+1555{tag:04}000"));
                    p.website = Some(format!("http://network{tag}.example/"));
                }
                Platform::X => {
                    p.name = format!("Growth Agency {tag}");
                    p.description = format!(
                        "High quality profiles for businesses and entities. Agency {tag}, serious inquiries only."
                    );
                }
            }
        }
    }

    // -- posts ----------------------------------------------------------------

    fn generate_posts(&mut self) {
        for platform in ALL_PLATFORMS {
            self.generate_platform_posts(platform);
        }
    }

    fn generate_platform_posts(&mut self, platform: Platform) {
        let store = Arc::clone(&self.stores[&platform]);
        let mut store = store.write();
        let ids = store.account_ids();
        if ids.is_empty() {
            return;
        }

        let (_, table2_posts, _) = cal::table2(platform);
        let (_, scam_posts) = cal::table5(platform);
        let scam_post_target = self.params.scaled(scam_posts);
        let benign_post_target = self.params.scaled(table2_posts.saturating_sub(scam_posts));

        // Identify scam operators and assign their category mix.
        let scam_ids: Vec<AccountId> = ids
            .iter()
            .copied()
            .filter(|&id| {
                store.account(id).map(|a| a.disposition == AccountDisposition::ScamOperator)
                    == Some(true)
            })
            .collect();
        let sub_weights: Vec<(ScamSubcategory, u32)> =
            ALL_SUBCATEGORIES.iter().map(|&s| (s, s.paper_counts().0)).collect();
        let weight_total: u32 = sub_weights.iter().map(|&(_, w)| w).sum();
        for &id in &scam_ids {
            let mut cats = vec![self.weighted_sub(&sub_weights, weight_total)];
            // Table 6's per-category account sums exceed Table 5's total by
            // ~1.86x: accounts work multiple scam lines.
            if self.rng.random_bool(0.6) {
                cats.push(self.weighted_sub(&sub_weights, weight_total));
            }
            if self.rng.random_bool(0.26) {
                cats.push(self.weighted_sub(&sub_weights, weight_total));
            }
            cats.dedup();
            self.truth.scam_accounts.insert((platform, id.0), cats);
        }

        // Scam posts: round-robin over scam accounts until the target is
        // met (YouTube naturally gets ~1 post per scam account).
        if !scam_ids.is_empty() {
            for k in 0..scam_post_target {
                let id = scam_ids[k % scam_ids.len()];
                let cats = self.truth.scam_accounts[&(platform, id.0)].clone();
                let sub = *cats.choose(&mut self.rng).expect("scam account has categories"); // conformance: allow(panic-policy) — ground truth records >= 1 category per scam account
                let text = textgen::scam_post_text(sub, &mut self.rng);
                self.push_post(&mut store, platform, id, text);
                *self.truth.scam_posts_by_sub.entry(sub).or_insert(0) += 1;
                self.truth.scam_posts_total += 1;
            }
        }

        // Benign posts: heavy-tailed across all accounts (X's 814 accounts
        // produced 165K posts; YouTube's 6,271 produced 3,411).
        let foreign_account_rate = 0.06;
        let foreign: Vec<bool> = ids
            .iter()
            .map(|_| self.rng.random_bool(foreign_account_rate))
            .collect();
        let topics: Vec<usize> = ids
            .iter()
            .map(|_| self.rng.random_range(0..textgen::BENIGN_TOPIC_COUNT))
            .collect();
        for k in 0..benign_post_target {
            // Zipf-ish author pick: square a uniform to skew to low ranks.
            let r: f64 = self.rng.random_range(0.0..1.0);
            let idx = ((r * r) * ids.len() as f64) as usize;
            let idx = idx.min(ids.len() - 1);
            let id = ids[idx];
            let text = if foreign[idx] {
                self.truth.foreign_posts += 1;
                textgen::foreign_post_text(&mut self.rng)
            } else {
                let topic = if self.rng.random_bool(0.8) {
                    topics[idx]
                } else {
                    self.rng.random_range(0..textgen::BENIGN_TOPIC_COUNT)
                };
                textgen::benign_post_text(topic, &mut self.rng)
            };
            self.push_post(&mut store, platform, id, text);
            let _ = k;
        }
    }

    fn weighted_sub(
        &mut self,
        weights: &[(ScamSubcategory, u32)],
        total: u32,
    ) -> ScamSubcategory {
        let mut pick = self.rng.random_range(0..total);
        for &(s, w) in weights {
            if pick < w {
                return s;
            }
            pick -= w;
        }
        weights.last().expect("non-empty").0 // conformance: allow(panic-policy) — static non-empty weight table
    }

    fn push_post(
        &mut self,
        store: &mut PlatformStore,
        platform: Platform,
        author: AccountId,
        text: String,
    ) {
        let followers = store.account(author).map(|a| a.followers).unwrap_or(0);
        let pid = store.next_post_id();
        let created = COLLECTION_START_UNIX - self.rng.random_range(0..86_400 * 365);
        let mut post = Post::new(pid, platform, author, text, created);
        let virality = self.rng.random_range(0.0..0.05);
        let (views, likes, replies, shares) =
            sample_post_engagement(followers, virality, &mut self.rng);
        post.views = views;
        post.likes = likes;
        post.replies = replies;
        post.shares = shares;
        store.add_post(post);
        self.truth.posts_total += 1;
    }

    // -- underground ------------------------------------------------------------

    fn generate_underground(&mut self) {
        let mut post_id = 1u64;
        for market in ALL_UNDERGROUND {
            let cfg = market.config();
            let mut posts = Vec::new();
            if cfg.sells_accounts && cfg.paper_posts > 0 {
                let mut authors: Vec<String> = (0..cfg.paper_sellers.max(1))
                    .map(|i| format!("{}_vendor{}", cfg.name.to_ascii_lowercase().replace(' ', ""), i))
                    .collect();
                // §4.2: two sellers operate under the same username across
                // markets ("cross-platform operations to maximize
                // visibility").
                match market {
                    UndergroundId::DarkMatter | UndergroundId::Nexus => {
                        authors[0] = "ghostdealer".to_string();
                    }
                    UndergroundId::TorzonMarket | UndergroundId::BlackPyramid => {
                        authors[0] = "accplug".to_string();
                    }
                    _ => {}
                }
                // Planted reuse families reproduce §4.2's similarity
                // findings: TikTok 12/42 near-duplicates (Nexus, three
                // authors), Instagram 2/13 (Nexus), YouTube 3/7 (one body
                // across three markets), X 1/3 (two markets); everything
                // else gets a combinatorially varied body.
                let mut tiktok_seen = 0usize;
                let mut instagram_seen = 0usize;
                let mut youtube_seen = 0usize;
                let mut x_seen = 0usize;
                for i in 0..cfg.paper_posts {
                    let platform = cfg.platforms[i % cfg.platforms.len()];
                    let author = authors[i % authors.len()].clone();
                    match platform {
                        Platform::TikTok => tiktok_seen += 1,
                        Platform::Instagram => instagram_seen += 1,
                        Platform::YouTube => youtube_seen += 1,
                        Platform::X => x_seen += 1,
                        Platform::Facebook => {}
                    }
                    let body = if market == UndergroundId::Nexus
                        && platform == Platform::TikTok
                        && tiktok_seen <= 12
                    {
                        // Near-identical template with a cosmetic numeric edit.
                        format!(
                            "Selling aged TikTok accounts with organic followers, {}k+ each. Full email access included, instant delivery after payment, escrow accepted. Message on Telegram for bulk pricing.",
                            10 + (i % 3)
                        )
                    } else if market == UndergroundId::Nexus
                        && platform == Platform::Instagram
                        && instagram_seen <= 2
                    {
                        // Two Instagram posts on Nexus share one body.
                        "Instagram pages with real niche audiences, handover with original email, buyer pays escrow fee, serious offers only on Telegram.".to_string()
                    } else if platform == Platform::YouTube
                        && matches!(
                            market,
                            UndergroundId::DarkMatter
                                | UndergroundId::BlackPyramid
                                | UndergroundId::TorzonMarket
                        )
                        && youtube_seen == 1
                    {
                        // One YouTube body reused across three markets.
                        "Monetized YouTube channel with clean strikes history, full access transfer including email, payment through escrow only, message for proof.".to_string()
                    } else if platform == Platform::X
                        && matches!(market, UndergroundId::DarkMatter | UndergroundId::Kerberos)
                        && x_seen == 1
                    {
                        // One X body reused across two markets.
                        "Aged Twitter accounts with followers included, credentials delivered instantly, no refunds after handover, contact on Telegram for stock.".to_string()
                    } else {
                        self.underground_body(platform)
                    };
                    let quantity = if market == UndergroundId::Kerberos {
                        // Two bulk posts covering 51 accounts.
                        if i == 0 { 26 } else { 25 }
                    } else {
                        1
                    };
                    posts.push(UndergroundPost {
                        id: post_id,
                        market,
                        author: author.clone(),
                        title: format!("[{}] {} account{} for sale", cfg.name, platform.name(), if quantity > 1 { "s" } else { "" }),
                        body,
                        platform,
                        price_usd: if self.rng.random_bool(0.8) {
                            Some(self.rng.random_range(15.0f64..400.0).round())
                        } else {
                            None
                        },
                        quantity,
                        published_unix: if self.rng.random_bool(0.7) {
                            Some(COLLECTION_START_UNIX + self.rng.random_range(0..86_400 * 60))
                        } else {
                            None
                        },
                        replies: self.rng.random_range(0..9),
                        contact: format!("t.me/{author}"),
                    });
                    post_id += 1;
                }
            }
            self.forums.push(Arc::new(UndergroundForum::new(market, posts)));
        }
    }

    /// A combinatorially varied listing body: opening x detail x closing,
    /// so unplanned posts stay *below* the 88% similarity threshold while
    /// still reading like real forum boilerplate.
    fn underground_body(&mut self, platform: Platform) -> String {
        let openings = [
            format!("{} account for sale, aged and warmed with an organic audience.", platform.name()),
            format!("Fresh {} profiles available, bot-grown but stable under daily use.", platform.name()),
            format!("Premium {} account populated with content and real engagement.", platform.name()),
            format!("Clean {} login ready to flip, niche audience already attached.", platform.name()),
        ];
        let details = [
            "Comes with the original email and recovery codes, nothing rented.",
            "Bulk discounts apply on larger orders, stock rotates weekly.",
            "Handover happens via session transfer once the payment clears.",
            "Screenshots of analytics available on request before any deal.",
            "Warmed on residential proxies for months, zero flags so far.",
            "Old enough to pass checks, activity logs look human throughout.",
        ];
        let closings = [
            "No refunds after credentials are delivered, test before you pay.",
            "Escrow friendly, reach out on Telegram to reserve yours.",
            "Price negotiable for serious buyers, lowballers get blocked.",
            "First come first served, vouches pinned in my profile thread.",
            "Deal goes through middleman if you cover the fee yourself.",
            "Ask for the proof pack before sending anything, no exceptions.",
        ];
        let signoffs = ["Cheers.", "Stay safe out there.", "PGP on request.", "Vouch thread open."];
        format!(
            "{} {} {} {}",
            openings.choose(&mut self.rng).expect("non-empty"), // conformance: allow(panic-policy) — static non-empty phrase pools
            details.choose(&mut self.rng).expect("non-empty"),
            closings.choose(&mut self.rng).expect("non-empty"), // conformance: allow(panic-policy) — static non-empty phrase pools
            signoffs.choose(&mut self.rng).expect("non-empty"),
        )
    }

    // -- dynamics ----------------------------------------------------------------

    /// Advance one crawl-iteration step: churn active listings and
    /// replenish inventory (Figure 2).
    pub fn step_iteration(&mut self, now_unix: i64) {
        for market in ALL_MARKETPLACES {
            let state = Arc::clone(&self.markets[&market]);
            state.write().churn(
                cal::SALE_PROB_PER_ITERATION,
                cal::DELIST_PROB_PER_ITERATION,
                now_unix,
                &mut self.rng,
            );
            let replenish =
                ((f64::from(market.config().table1_accounts) * self.params.scale
                    * cal::REPLENISH_FRACTION)
                    .round() as usize)
                    .max(1);
            for _ in 0..replenish {
                self.add_one_listing(market, now_unix);
            }
        }
    }

    /// Run the calibrated moderation sweep on every platform (the §8
    /// actions the efficacy audit then measures).
    pub fn run_moderation(&mut self, now_unix: i64) {
        for platform in ALL_PLATFORMS {
            let engine = ModerationEngine::calibrated(platform);
            let store = Arc::clone(&self.stores[&platform]);
            engine.sweep(&mut store.write(), now_unix, &mut self.rng);
        }
    }

    /// Convenience: total accounts across platform stores.
    pub fn platform_account_total(&self) -> usize {
        self.stores.values().map(|s| s.read().account_count()).sum()
    }

    /// Convenience: total posts across platform stores.
    pub fn platform_post_total(&self) -> usize {
        self.stores.values().map(|s| s.read().post_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldParams::small(42))
    }

    #[test]
    fn scaled_listing_counts_match_table1() {
        let w = small_world();
        for market in ALL_MARKETPLACES {
            let scaled = (f64::from(market.config().table1_accounts) * 0.05).round();
            let expected = (scaled * cal::INITIAL_STOCK_FRACTION).round() as usize;
            let got = w.markets[&market].read().cumulative_count();
            assert_eq!(got, expected, "{}", market.name());
        }
    }

    #[test]
    fn visible_fraction_near_29_percent() {
        let w = small_world();
        let frac = w.truth.visible_total as f64 / w.truth.listings_total as f64;
        assert!((frac - 0.30).abs() < 0.05, "visible fraction {frac}");
        assert_eq!(w.platform_account_total(), w.truth.visible_total);
    }

    #[test]
    fn posts_generated_at_scale() {
        let w = small_world();
        // ~205K * 0.05 ≈ 10K posts.
        let posts = w.platform_post_total();
        assert!((8_000..13_000).contains(&posts), "posts={posts}");
        assert!(w.truth.foreign_posts > 0);
        assert!(w.truth.scam_posts_total > 0);
    }

    #[test]
    fn x_accounts_post_most_per_capita() {
        let w = small_world();
        let per_capita = |p: Platform| {
            let s = w.stores[&p].read();
            s.post_count() as f64 / s.account_count().max(1) as f64
        };
        assert!(per_capita(Platform::X) > 10.0 * per_capita(Platform::YouTube));
    }

    #[test]
    fn scam_accounts_match_table5_shape() {
        let w = small_world();
        let scam_yt = w
            .truth
            .scam_accounts
            .keys()
            .filter(|(p, _)| *p == Platform::YouTube)
            .count();
        let scam_fb = w
            .truth
            .scam_accounts
            .keys()
            .filter(|(p, _)| *p == Platform::Facebook)
            .count();
        // YouTube has by far the most scam accounts (1,661 vs 512 at full
        // scale).
        assert!(scam_yt > scam_fb, "yt={scam_yt} fb={scam_fb}");
    }

    #[test]
    fn clusters_planted_per_platform() {
        let w = small_world();
        assert!(!w.truth.clusters.is_empty());
        for (platform, members) in &w.truth.clusters {
            assert!(members.len() >= 2, "{platform}: cluster too small");
        }
        // YouTube has the most clusters (97 at full scale).
        let count = |p: Platform| w.truth.clusters.iter().filter(|(q, _)| *q == p).count();
        assert!(count(Platform::YouTube) >= count(Platform::TikTok));
    }

    #[test]
    fn underground_posts_match_paper_counts() {
        let w = small_world(); // underground is never scaled
        let total: usize = w.forums.iter().map(|f| f.posts().len()).sum();
        assert_eq!(total, cal::UNDERGROUND_POSTS);
        let nexus = w
            .forums
            .iter()
            .find(|f| f.config().id == UndergroundId::Nexus)
            .unwrap();
        assert_eq!(nexus.posts().len(), 37);
        // Kerberos: 2 bulk posts covering 51 accounts.
        let kerberos = w
            .forums
            .iter()
            .find(|f| f.config().id == UndergroundId::Kerberos)
            .unwrap();
        let qty: u32 = kerberos.posts().iter().map(|p| p.quantity).sum();
        assert_eq!(qty, 51);
    }

    #[test]
    fn nexus_tiktok_posts_contain_near_duplicates() {
        let w = small_world();
        let nexus = w
            .forums
            .iter()
            .find(|f| f.config().id == UndergroundId::Nexus)
            .unwrap();
        let tiktok_bodies: Vec<String> = nexus
            .posts()
            .iter()
            .filter(|p| p.platform == Platform::TikTok)
            .map(|p| p.body.clone())
            .collect();
        let pairs = acctrade_text::similarity::similar_pairs(&tiktok_bodies, 0.88);
        assert!(!pairs.is_empty(), "expected near-duplicate TikTok posts on Nexus");
    }

    #[test]
    fn step_iteration_churns_and_replenishes() {
        let mut w = small_world();
        let market = MarketplaceId::Accsmarket;
        let before_cum = w.markets[&market].read().cumulative_count();
        let before_active = w.markets[&market].read().active_count();
        for it in 0..10 {
            w.step_iteration(COLLECTION_START_UNIX + (it + 1) * 86_400 * 14);
        }
        let after_cum = w.markets[&market].read().cumulative_count();
        let after_active = w.markets[&market].read().active_count();
        assert!(after_cum > before_cum, "cumulative must grow");
        assert!(after_active < after_cum, "churn must retire listings");
        assert!(before_active <= before_cum);
    }

    #[test]
    fn moderation_changes_statuses() {
        let mut w = small_world();
        w.run_moderation(COLLECTION_START_UNIX + 86_400 * 120);
        let inactive: usize = w
            .stores
            .values()
            .map(|s| {
                let s = s.read();
                s.account_count() - s.count_by_status(acctrade_social::account::AccountStatus::Active)
            })
            .sum();
        let total = w.platform_account_total();
        let rate = inactive as f64 / total as f64;
        assert!((0.12..0.30).contains(&rate), "overall inactive rate {rate}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldParams::small(7));
        let b = World::generate(WorldParams::small(7));
        assert_eq!(a.truth.listings_total, b.truth.listings_total);
        assert_eq!(a.truth.posts_total, b.truth.posts_total);
        assert_eq!(a.truth.visible_total, b.truth.visible_total);
        // Post totals are calibration-fixed, so compare seed-dependent
        // content instead: the per-subcategory scam-post distribution.
        let c = World::generate(WorldParams::small(8));
        assert_ne!(a.truth.scam_posts_by_sub, c.truth.scam_posts_by_sub);
    }

    #[test]
    fn deploy_registers_all_hosts() {
        let w = small_world();
        let net = SimNet::new(1);
        w.deploy(&net);
        for m in ALL_MARKETPLACES {
            assert!(net.knows_host(m.host()), "{}", m.name());
        }
        for p in ALL_PLATFORMS {
            assert!(net.knows_host(p.api_host()), "{p}");
        }
        let onions = net.hosts().iter().filter(|h| h.ends_with(".onion")).count();
        assert_eq!(onions, 8);
    }
}
