//! The public marketplace web application.
//!
//! Each of the eleven marketplaces serves genuine HTML over the fabric, in
//! one of three template *dialects* (card grid, table, flat list) so the
//! crawler needs per-market extraction adapters — as the paper's crawler
//! needed per-market logic for real sites. Routes:
//!
//! * `GET /` — the storefront, linking each platform's listing index;
//! * `GET /listings/<platform>?page=N` — paginated offer links;
//! * `GET /offer/<id>` — one offer's detail page.

use crate::config::MarketplaceId;
use crate::lifecycle::MarketState;
use crate::listing::Listing;
use acctrade_html::dom::Builder;
use acctrade_net::http::{Request, Response, Status};
use acctrade_net::robots::RobotsPolicy;
use acctrade_net::server::{RequestCtx, Service};
use acctrade_social::platform::Platform;
use foundation::sync::RwLock;
use std::sync::Arc;

/// Template dialect a marketplace renders in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// `div.offer-card` grid with classed spans.
    Cards,
    /// `<table id="offers">` rows; offer pages as `<dl>` key/value pairs.
    Table,
    /// `<ul class="listing">`; offer pages with `data-field` attributes.
    List,
}

impl MarketplaceId {
    /// The dialect this marketplace renders in.
    pub fn dialect(self) -> Dialect {
        use MarketplaceId::*;
        match self {
            Accsmarket | SocialTradia | TooFame | SurgeGram => Dialect::Cards,
            FameSwap | MidMan | FameSeller => Dialect::Table,
            Z2U | InstaSale | SwapSocials | BuySocia => Dialect::List,
        }
    }
}

/// Format a USD price the way listing pages show it (`$12,345.67`, cents
/// only when non-zero).
pub fn format_price(usd: f64) -> String {
    let cents = (usd * 100.0).round() as i64;
    let whole = cents / 100;
    let frac = (cents % 100).abs();
    let mut digits = whole.abs().to_string();
    let mut grouped = String::new();
    while digits.len() > 3 {
        let split = digits.len() - 3;
        grouped = format!(",{}{}", &digits[split..], grouped);
        digits.truncate(split);
    }
    let sign = if whole < 0 { "-" } else { "" };
    if frac == 0 {
        format!("{sign}${digits}{grouped}")
    } else {
        format!("{sign}${digits}{grouped}.{frac:02}")
    }
}

/// The web app serving one marketplace's state.
pub struct MarketplaceSite {
    state: Arc<RwLock<MarketState>>,
    market: MarketplaceId,
    robots: RobotsPolicy,
}

impl MarketplaceSite {
    /// Wrap a shared market state.
    pub fn new(state: Arc<RwLock<MarketState>>) -> MarketplaceSite {
        let market = state.read().id();
        // Real marketplaces fence off account areas; the two biggest also
        // ask crawlers to slow down. The study's crawler honours both.
        let delay = match market {
            MarketplaceId::Accsmarket | MarketplaceId::Z2U => "Crawl-delay: 1\n",
            _ => "",
        };
        let robots = RobotsPolicy::parse(&format!(
            "User-agent: *\nDisallow: /seller/\nDisallow: /checkout\n{delay}"
        ));
        MarketplaceSite { state, market, robots }
    }

    /// The shared state handle.
    pub fn state(&self) -> Arc<RwLock<MarketState>> {
        Arc::clone(&self.state)
    }

    fn storefront(&self) -> Response {
        let state = self.state.read();
        let market = state.id();
        let mut b = Builder::new();
        b.open("html").open("body");
        b.leaf("h1", market.name());
        b.open("nav").attr("class", "platforms");
        for platform in state.stocked_platforms() {
            b.open("a")
                .attr("class", "platform-link")
                .attr("href", format!("/listings/{}", platform.name().to_ascii_lowercase()))
                .text(format!("{} accounts", platform.name()))
                .close();
        }
        b.close().close().close();
        Response::ok().with_html(b.finish().render())
    }

    fn listing_index(&self, platform: Platform, page: usize) -> Response {
        let state = self.state.read();
        let market = state.id();
        let page_size = market.config().page_size;
        let offers = state.active_for_platform(platform);
        let total_pages = offers.len().div_ceil(page_size).max(1);
        if page >= total_pages && page != 0 {
            return Response::not_found("no such page");
        }
        let slice: Vec<&Listing> = offers
            .iter()
            .skip(page * page_size)
            .take(page_size)
            .filter_map(|&id| state.listing(id))
            .collect();

        let mut b = Builder::new();
        b.open("html").open("body");
        b.leaf("h1", &format!("{} — {} accounts", market.name(), platform.name()));
        match market.dialect() {
            Dialect::Cards => {
                b.open("div").attr("class", "offer-grid");
                for l in &slice {
                    b.open("div").attr("class", "offer-card");
                    b.open("a")
                        .attr("class", "offer-link")
                        .attr("href", l.offer_path())
                        .text(&l.title)
                        .close();
                    b.open("span").attr("class", "price").text(format_price(l.price_usd)).close();
                    b.close();
                }
                b.close();
            }
            Dialect::Table => {
                b.open("table").attr("id", "offers");
                for l in &slice {
                    b.open("tr").attr("class", "offer-row");
                    b.open("td");
                    b.open("a").attr("href", l.offer_path()).text(&l.title).close();
                    b.close();
                    b.open("td").attr("class", "price").text(format_price(l.price_usd)).close();
                    b.close();
                }
                b.close();
            }
            Dialect::List => {
                b.open("ul").attr("class", "listing");
                for l in &slice {
                    b.open("li").attr("class", "item");
                    b.open("a").attr("href", l.offer_path()).text(&l.title).close();
                    b.open("em").text(format_price(l.price_usd)).close();
                    b.close();
                }
                b.close();
            }
        }
        if page + 1 < total_pages {
            b.open("a")
                .attr("class", "next")
                .attr(
                    "href",
                    format!(
                        "/listings/{}?page={}",
                        platform.name().to_ascii_lowercase(),
                        page + 1
                    ),
                )
                .text("next page")
                .close();
        }
        b.close().close();
        Response::ok().with_html(b.finish().render())
    }

    fn offer_page(&self, id: u64) -> Response {
        let state = self.state.read();
        let market = state.id();
        let Some(l) = state.listing(crate::listing::ListingId(id)) else {
            return Response::not_found("offer not found");
        };
        if !l.is_active() {
            return Response::status(Status::Gone).with_text("offer no longer available");
        }
        let seller_name = market
            .shows_sellers()
            .then(|| state.seller(l.seller).map(|s| s.username.clone()))
            .flatten();
        let seller_country = market
            .shows_sellers()
            .then(|| state.seller(l.seller).and_then(|s| s.country.clone()))
            .flatten();

        let mut b = Builder::new();
        b.open("html").open("body");
        match market.dialect() {
            Dialect::Cards => {
                b.open("div").attr("class", "offer-detail");
                b.open("h1").attr("class", "offer-title").text(&l.title).close();
                b.open("span").attr("class", "price").text(format_price(l.price_usd)).close();
                b.open("span")
                    .attr("class", "platform")
                    .text(l.platform.name())
                    .close();
                if let Some(s) = &seller_name {
                    b.open("div").attr("class", "seller");
                    b.open("a").attr("href", format!("/seller/{}", l.seller.0)).text(s).close();
                    if let Some(c) = &seller_country {
                        b.open("span").attr("class", "country").text(c).close();
                    }
                    b.close();
                }
                if let Some(c) = &l.category {
                    b.open("span").attr("class", "category").text(c).close();
                }
                if let Some(f) = l.claimed_followers {
                    b.open("span").attr("class", "followers").text(f.to_string()).close();
                }
                if l.claims_verified {
                    b.open("span").attr("class", "badge-verified").text("Verified").close();
                }
                if let Some(m) = &l.monetization {
                    b.open("span")
                        .attr("class", "revenue")
                        .text(format!("{}/month", format_price(m.monthly_revenue_usd)))
                        .close();
                    b.open("span").attr("class", "income-source").text(&m.income_source).close();
                }
                if let Some(d) = &l.description {
                    b.open("div").attr("class", "description").text(d).close();
                }
                if let Some(link) = &l.profile_link {
                    b.open("a").attr("class", "profile-link").attr("href", link).text("view profile").close();
                }
                b.close();
            }
            Dialect::Table => {
                b.open("h1").text(&l.title).close();
                b.open("dl").attr("id", "offer-fields");
                let field = |b: &mut Builder, key: &str, val: &str| {
                    b.leaf("dt", key);
                    b.leaf("dd", val);
                };
                field(&mut b, "Price", &format_price(l.price_usd));
                field(&mut b, "Platform", l.platform.name());
                if let Some(s) = &seller_name {
                    field(&mut b, "Seller", s);
                }
                if let Some(c) = &seller_country {
                    field(&mut b, "Country", c);
                }
                if let Some(c) = &l.category {
                    field(&mut b, "Category", c);
                }
                if let Some(f) = l.claimed_followers {
                    field(&mut b, "Followers", &f.to_string());
                }
                if l.claims_verified {
                    field(&mut b, "Verified", "yes");
                }
                if let Some(m) = &l.monetization {
                    field(&mut b, "Monthly revenue", &format_price(m.monthly_revenue_usd));
                    field(&mut b, "Income source", &m.income_source);
                }
                if let Some(d) = &l.description {
                    field(&mut b, "Description", d);
                }
                b.close();
                if let Some(link) = &l.profile_link {
                    b.open("dd");
                    b.open("a").attr("class", "profile").attr("href", link).text("account profile").close();
                    b.close();
                }
            }
            Dialect::List => {
                b.open("div").attr("class", "offer");
                b.open("h1").attr("data-field", "title").text(&l.title).close();
                b.open("span").attr("data-field", "price").text(format_price(l.price_usd)).close();
                b.open("span").attr("data-field", "platform").text(l.platform.name()).close();
                if let Some(s) = &seller_name {
                    b.open("span").attr("data-field", "seller").text(s).close();
                }
                if let Some(c) = &seller_country {
                    b.open("span").attr("data-field", "country").text(c).close();
                }
                if let Some(c) = &l.category {
                    b.open("span").attr("data-field", "category").text(c).close();
                }
                if let Some(f) = l.claimed_followers {
                    b.open("span").attr("data-field", "followers").text(f.to_string()).close();
                }
                if l.claims_verified {
                    b.open("span").attr("data-field", "verified").text("true").close();
                }
                if let Some(m) = &l.monetization {
                    b.open("span")
                        .attr("data-field", "revenue")
                        .text(format_price(m.monthly_revenue_usd))
                        .close();
                    b.open("span").attr("data-field", "income-source").text(&m.income_source).close();
                }
                if let Some(d) = &l.description {
                    b.open("p").attr("data-field", "description").text(d).close();
                }
                if let Some(link) = &l.profile_link {
                    b.open("a").attr("data-field", "profile").attr("href", link).text("profile").close();
                }
                b.close();
            }
        }
        b.close().close();
        Response::ok().with_html(b.finish().render())
    }
}

impl MarketplaceSite {
    /// Route one request to a page renderer (telemetry-free inner body
    /// of [`Service::handle`]).
    fn route_request(&self, req: &Request) -> Response {
        let path = req.url.path();
        if path == "/robots.txt" {
            return Response::ok().with_text(self.robots.render());
        }
        if path == "/" {
            return self.storefront();
        }
        if let Some(rest) = path.strip_prefix("/listings/") {
            let Some(platform) = Platform::parse(rest) else {
                return Response::not_found("unknown platform");
            };
            let page = req
                .url
                .query_param("page")
                .and_then(|p| p.parse().ok())
                .unwrap_or(0usize);
            return self.listing_index(platform, page);
        }
        if let Some(rest) = path.strip_prefix("/offer/") {
            let Some(id) = rest.parse::<u64>().ok() else {
                return Response::not_found("bad offer id");
            };
            return self.offer_page(id);
        }
        if path.starts_with("/seller/") {
            // Seller vanity pages exist but carry nothing the study needs.
            return Response::ok().with_html("<html><body>seller profile</body></html>");
        }
        Response::not_found(&format!("no route for {path} on {}", self.market.name()))
    }
}

impl Service for MarketplaceSite {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Response {
        let resp = self.route_request(req);
        telemetry::with_recorder(|r| {
            let code = resp.status.code().to_string();
            r.incr(
                "market.pages_served",
                &[("marketplace", self.market.name()), ("status", &code)],
                1,
            );
        });
        resp
    }

    fn robots(&self) -> RobotsPolicy {
        self.robots.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listing::{Listing, ListingId, Monetization};
    use crate::seller::Seller;
    use acctrade_html::{parse, Selector};
    use acctrade_net::prelude::*;

    fn setup(market: MarketplaceId, n_listings: usize) -> (Arc<RwLock<MarketState>>, Client) {
        let state = Arc::new(RwLock::new(MarketState::new(market)));
        {
            let mut s = state.write();
            let sid = s.next_seller_id();
            let mut seller = Seller::new(sid, "topseller");
            seller.country = Some("United States".into());
            s.add_seller(seller);
            for i in 0..n_listings {
                let lid = s.next_listing_id();
                let mut l = Listing::new(lid, market, Platform::Instagram, sid, 298.0);
                l.title = format!("IG page #{i}");
                l.category = Some("Fashion/Style".into());
                l.claimed_followers = Some(26_998);
                l.description = Some("Fresh and ready account with real users.".into());
                if i == 0 {
                    l.profile_link = Some("http://instagram.example/fashion0".into());
                    l.monetization = Some(Monetization {
                        monthly_revenue_usd: 136.0,
                        income_source: "Google AdSense".into(),
                    });
                }
                s.add_listing(l);
            }
        }
        let net = SimNet::new(9);
        net.register(market.host(), MarketplaceSite::new(Arc::clone(&state)));
        let client = Client::new(&net, "acctrade-crawler/0.1");
        (state, client)
    }

    #[test]
    fn price_formatting() {
        assert_eq!(format_price(7.0), "$7");
        assert_eq!(format_price(157.0), "$157");
        assert_eq!(format_price(1_234.5), "$1,234.50");
        assert_eq!(format_price(50_000_000.0), "$50,000,000");
        assert_eq!(format_price(0.99), "$0.99");
    }

    #[test]
    fn storefront_links_stocked_platforms() {
        let (_state, client) = setup(MarketplaceId::Accsmarket, 3);
        let resp = client.get("http://accsmarket.com/").unwrap();
        let doc = parse(&resp.text());
        let links = doc.select(&Selector::parse("a.platform-link").unwrap());
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].attr("href"), Some("/listings/instagram"));
    }

    #[test]
    fn pagination_produces_next_links_until_exhausted() {
        // 30 listings at page size 24 -> 2 pages.
        let (_state, client) = setup(MarketplaceId::Accsmarket, 30);
        let p0 = client.get("http://accsmarket.com/listings/instagram").unwrap();
        let doc0 = parse(&p0.text());
        assert_eq!(doc0.select(&Selector::parse("a.offer-link").unwrap()).len(), 24);
        let next = doc0.select_first(&Selector::parse("a.next").unwrap()).unwrap();
        let p1 = client
            .get(&format!("http://accsmarket.com{}", next.attr("href").unwrap()))
            .unwrap();
        let doc1 = parse(&p1.text());
        assert_eq!(doc1.select(&Selector::parse("a.offer-link").unwrap()).len(), 6);
        assert!(doc1.select_first(&Selector::parse("a.next").unwrap()).is_none());
    }

    #[test]
    fn offer_page_cards_dialect_has_classed_fields() {
        let (_state, client) = setup(MarketplaceId::Accsmarket, 1);
        let resp = client.get("http://accsmarket.com/offer/1").unwrap();
        let doc = parse(&resp.text());
        let title = doc.select_first(&Selector::parse("h1.offer-title").unwrap()).unwrap();
        assert_eq!(title.text(), "IG page #0");
        let price = doc.select_first(&Selector::parse("span.price").unwrap()).unwrap();
        assert_eq!(price.text(), "$298");
        let profile = doc.select_first(&Selector::parse("a.profile-link").unwrap()).unwrap();
        assert_eq!(profile.attr("href"), Some("http://instagram.example/fashion0"));
        let seller = doc.select_first(&Selector::parse(".seller a").unwrap()).unwrap();
        assert_eq!(seller.text(), "topseller");
    }

    #[test]
    fn table_dialect_uses_dl_fields() {
        let (_state, client) = setup(MarketplaceId::FameSwap, 1);
        let resp = client.get("http://fameswap.com/offer/1").unwrap();
        let doc = parse(&resp.text());
        let dts = doc.select(&Selector::parse("#offer-fields dt").unwrap());
        let keys: Vec<String> = dts.iter().map(|e| e.text()).collect();
        assert!(keys.contains(&"Price".to_string()));
        assert!(keys.contains(&"Seller".to_string()));
        assert!(keys.contains(&"Followers".to_string()));
    }

    #[test]
    fn list_dialect_uses_data_fields() {
        let (_state, client) = setup(MarketplaceId::Z2U, 1);
        let resp = client.get("http://z2u.com/offer/1").unwrap();
        let doc = parse(&resp.text());
        let price = doc
            .select_first(&Selector::parse(r#"[data-field=price]"#).unwrap())
            .unwrap();
        assert_eq!(price.text(), "$298");
    }

    #[test]
    fn hidden_seller_markets_omit_seller() {
        let (_state, client) = setup(MarketplaceId::SocialTradia, 1);
        let resp = client.get("http://socialtradia.com/offer/1").unwrap();
        assert!(!resp.text().contains("topseller"));
    }

    #[test]
    fn closed_offers_are_gone() {
        let (state, client) = setup(MarketplaceId::Accsmarket, 1);
        state
            .write()
            .listing_mut(ListingId(1))
            .unwrap()
            .close(crate::listing::ListingState::Sold, 0);
        let resp = client.get("http://accsmarket.com/offer/1").unwrap();
        assert_eq!(resp.status, Status::Gone);
        // And it disappears from the index.
        let idx = client.get("http://accsmarket.com/listings/instagram").unwrap();
        assert!(!idx.text().contains("/offer/1\""));
    }

    #[test]
    fn robots_block_seller_pages_and_throttle_big_markets() {
        let (_state, client) = setup(MarketplaceId::Accsmarket, 1);
        let robots = client.get("http://accsmarket.com/robots.txt").unwrap();
        assert!(robots.text().contains("Disallow: /seller/"));
        assert!(robots.text().contains("Crawl-delay: 1"));
        // The automated client refuses seller vanity pages outright.
        assert!(client.get("http://accsmarket.com/seller/1").is_err());
        // Small markets set no crawl delay.
        let (_s2, client2) = setup(MarketplaceId::SurgeGram, 1);
        let robots = client2.get("http://surgegram.com/robots.txt").unwrap();
        assert!(!robots.text().contains("Crawl-delay"));
    }

    #[test]
    fn unknown_routes_404() {
        let (_state, client) = setup(MarketplaceId::Accsmarket, 1);
        assert_eq!(
            client.get("http://accsmarket.com/listings/myspace").unwrap().status,
            Status::NotFound
        );
        assert_eq!(
            client.get("http://accsmarket.com/offer/xyz").unwrap().status,
            Status::NotFound
        );
        assert_eq!(
            client.get("http://accsmarket.com/offer/999").unwrap().status,
            Status::NotFound
        );
    }
}
