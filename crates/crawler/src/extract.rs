//! Per-dialect extraction adapters.
//!
//! The eleven marketplaces render three HTML dialects (card grid, table,
//! flat list); real crawlers carry per-site logic and so does this one.
//! Each adapter turns an offer page into an [`OfferRecord`] and a listing
//! index into offer links plus a next-page link.

use crate::record::OfferRecord;
use acctrade_html::{parse, Document, ElementRef, Selector};
use acctrade_market::config::MarketplaceId;
use acctrade_market::site::Dialect;
use std::sync::OnceLock;

/// Links discovered on a listing-index page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexPage {
    /// Offer-page paths (`/offer/<id>`).
    pub offer_paths: Vec<String>,
    /// Path of the next page, when pagination continues.
    pub next_path: Option<String>,
}

/// Parse a listing-index page (all dialects share link structure enough
/// for one pass: any link to `/offer/` counts, `a.next` paginates).
pub fn parse_index(html: &str) -> IndexPage {
    let doc = parse(html);
    let mut offer_paths = Vec::new();
    let mut next_path = None;
    for a in doc.select(links()) {
        let Some(href) = a.attr("href") else { continue };
        if href.starts_with("/offer/") {
            offer_paths.push(href.to_string());
        } else if a.has_class("next") {
            next_path = Some(href.to_string());
        }
    }
    IndexPage { offer_paths, next_path }
}

/// Parse a storefront page into the platform listing paths it links.
pub fn parse_storefront(html: &str) -> Vec<String> {
    hrefs_under(html, "/listings/")
}

/// Every link target on the page that starts with `prefix`, in document
/// order.
pub(crate) fn hrefs_under(html: &str, prefix: &str) -> Vec<String> {
    parse(html)
        .select(links())
        .into_iter()
        .filter_map(|a| a.attr("href"))
        .filter(|h| h.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

/// The `a` selector, parsed once per process.
fn links() -> &'static Selector {
    static LINKS: OnceLock<Selector> = OnceLock::new();
    LINKS.get_or_init(|| sel("a"))
}

/// Parse a price string like `$1,234.50` into USD.
pub fn parse_price(text: &str) -> Option<f64> {
    let start = text.find('$')?;
    let number: String = text[start + 1..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ',' || *c == '.')
        .filter(|c| *c != ',')
        .collect();
    if number.is_empty() {
        return None;
    }
    number.parse().ok()
}

/// Extract the handle from a profile URL (`http://host/<handle>`).
pub(crate) fn handle_from_profile_link(link: &str) -> Option<String> {
    let url = acctrade_net::url::Url::parse(link).ok()?;
    let handle = url.path().trim_start_matches('/');
    if handle.is_empty() {
        None
    } else {
        Some(handle.to_string())
    }
}

/// Extract an offer page into a record skeleton (caller fills URL,
/// marketplace, time, iteration).
pub fn parse_offer(market: MarketplaceId, html: &str) -> OfferRecord {
    let doc = parse(html);
    let mut record = OfferRecord {
        marketplace: market.name().to_string(),
        offer_url: String::new(),
        title: String::new(),
        seller: None,
        seller_country: None,
        price_usd: None,
        platform: None,
        category: None,
        claimed_followers: None,
        claims_verified: false,
        monthly_revenue_usd: None,
        income_source: None,
        description: None,
        profile_link: None,
        handle: None,
        collected_unix: 0,
        iteration: 0,
    };
    match market.dialect() {
        Dialect::Cards => extract_cards(&doc, &mut record),
        Dialect::Table => extract_table(&doc, &mut record),
        Dialect::List => extract_list(&doc, &mut record),
    }
    if let Some(link) = &record.profile_link {
        record.handle = handle_from_profile_link(link);
    }
    record
}

fn sel(s: &str) -> Selector {
    Selector::parse(s).expect("static selector") // conformance: allow(panic-policy) — callers pass valid selector literals, exercised in tests
}

/// Parse a fixed selector list once per process into `cell`.
pub(crate) fn compiled<const N: usize>(
    cell: &'static OnceLock<[Selector; N]>,
    sources: [&str; N],
) -> &'static [Selector; N] {
    cell.get_or_init(|| sources.map(sel))
}

/// A field's text: the first match's, or `None` when that text is empty.
pub(crate) fn text_of(found: Option<ElementRef<'_>>) -> Option<String> {
    found.map(|e| e.text()).filter(|t| !t.is_empty())
}

/// The first match's `href`.
fn href_of(found: Option<ElementRef<'_>>) -> Option<String> {
    found.and_then(|e| e.attr("href")).map(str::to_string)
}

fn extract_cards(doc: &Document, r: &mut OfferRecord) {
    static SELECTORS: OnceLock<[Selector; 12]> = OnceLock::new();
    let selectors = compiled(
        &SELECTORS,
        [
            "h1.offer-title", "span.price", "span.platform", ".seller a", ".seller .country",
            "span.category", "span.followers", "span.badge-verified", "span.revenue",
            "span.income-source", "div.description", "a.profile-link",
        ],
    );
    let [title, price, platform, seller, country, category, followers, verified, revenue, income,
        description, profile] = selectors.each_ref().map(|s| doc.select_first(s));
    r.title = text_of(title).unwrap_or_default();
    r.price_usd = text_of(price).as_deref().and_then(parse_price);
    r.platform = text_of(platform);
    r.seller = seller.map(|e| e.text());
    r.seller_country = text_of(country);
    r.category = text_of(category);
    r.claimed_followers = text_of(followers).and_then(|t| t.parse().ok());
    r.claims_verified = verified.is_some();
    r.monthly_revenue_usd = text_of(revenue).as_deref().and_then(parse_price);
    r.income_source = text_of(income);
    r.description = text_of(description);
    r.profile_link = href_of(profile);
}

fn extract_table(doc: &Document, r: &mut OfferRecord) {
    static SELECTORS: OnceLock<[Selector; 3]> = OnceLock::new();
    let selectors = compiled(&SELECTORS, ["h1", "#offer-fields", "a.profile"]);
    let [title, fields, profile] = selectors.each_ref().map(|s| doc.select_first(s));
    r.title = text_of(title).unwrap_or_default();
    // <dl> of dt/dd pairs.
    if let Some(dl) = fields {
        let children = dl.children();
        for pair in children.chunks_exact(2) {
            let key = pair[0].text();
            let value = pair[1].text();
            match key.as_str() {
                "Price" => r.price_usd = parse_price(&value),
                "Platform" => r.platform = Some(value),
                "Seller" => r.seller = Some(value),
                "Country" => r.seller_country = Some(value),
                "Category" => r.category = Some(value),
                "Followers" => r.claimed_followers = value.parse().ok(),
                "Verified" => r.claims_verified = value == "yes",
                "Monthly revenue" => r.monthly_revenue_usd = parse_price(&value),
                "Income source" => r.income_source = Some(value),
                "Description" => r.description = Some(value),
                _ => {}
            }
        }
    }
    r.profile_link = href_of(profile);
}

fn extract_list(doc: &Document, r: &mut OfferRecord) {
    static SELECTORS: OnceLock<[Selector; 12]> = OnceLock::new();
    let selectors = compiled(
        &SELECTORS,
        [
            "[data-field=title]", "[data-field=price]", "[data-field=platform]",
            "[data-field=seller]", "[data-field=country]", "[data-field=category]",
            "[data-field=followers]", "[data-field=verified]", "[data-field=revenue]",
            "[data-field=income-source]", "[data-field=description]", "a[data-field=profile]",
        ],
    );
    let [title, price, platform, seller, country, category, followers, verified, revenue, income,
        description, profile] = selectors.each_ref().map(|s| doc.select_first(s));
    r.title = text_of(title).unwrap_or_default();
    r.price_usd = text_of(price).as_deref().and_then(parse_price);
    r.platform = text_of(platform);
    r.seller = text_of(seller);
    r.seller_country = text_of(country);
    r.category = text_of(category);
    r.claimed_followers = text_of(followers).and_then(|t| t.parse().ok());
    r.claims_verified = text_of(verified).as_deref() == Some("true");
    r.monthly_revenue_usd = text_of(revenue).as_deref().and_then(parse_price);
    r.income_source = text_of(income);
    r.description = text_of(description);
    r.profile_link = href_of(profile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_market::config::ALL_MARKETPLACES;
    use acctrade_market::lifecycle::MarketState;
    use acctrade_market::listing::{Listing, ListingId, Monetization};
    use acctrade_market::seller::{Seller, SellerId};
    use acctrade_market::site::MarketplaceSite;
    use acctrade_net::http::Request;
    use acctrade_net::server::{RequestCtx, Service};
    use acctrade_net::url::Url;
    use acctrade_social::platform::Platform;
    use foundation::sync::RwLock;
    use std::sync::Arc;

    /// A seller in Turkey and a listing with every optional field set.
    fn full_listing(market: MarketplaceId) -> (Seller, Listing) {
        let mut seller = Seller::new(SellerId(1), "megaseller");
        seller.country = Some("Turkey".into());
        let mut l = Listing::new(ListingId(1), market, Platform::TikTok, seller.id, 1_234.5);
        l.title = "TikTok dance page 2.1M".into();
        l.category = Some("Humor/Memes".into());
        l.claimed_followers = Some(2_100_000);
        l.claims_verified = true;
        l.description = Some("Fresh and ready for promotion.".into());
        l.monetization = Some(Monetization {
            monthly_revenue_usd: 136.0,
            income_source: "Google AdSense".into(),
        });
        l.profile_link = Some("http://tiktok.example/dance.page99".into());
        (seller, l)
    }

    /// A seller with no country and a listing with every optional field
    /// absent.
    fn sparse_listing(market: MarketplaceId) -> (Seller, Listing) {
        let seller = Seller::new(SellerId(1), "quietseller");
        let mut l = Listing::new(ListingId(1), market, Platform::Facebook, seller.id, 7.0);
        l.title = "FB group 12k".into();
        (seller, l)
    }

    /// Post one listing on a fresh market, render its offer page through
    /// the genuine site templates and extract it back.
    fn render_and_extract(seller: &Seller, listing: &Listing) -> OfferRecord {
        let market = listing.marketplace;
        let state = Arc::new(RwLock::new(MarketState::new(market)));
        {
            let mut s = state.write();
            s.add_seller(seller.clone());
            s.add_listing(listing.clone());
        }
        let site = MarketplaceSite::new(state);
        let url = Url::parse(&format!("http://{}{}", market.host(), listing.offer_path())).unwrap();
        let resp = site.handle(&Request::get(url), &RequestCtx::test());
        parse_offer(market, &resp.text())
    }

    fn roundtrip(market: MarketplaceId) -> OfferRecord {
        let (seller, listing) = full_listing(market);
        render_and_extract(&seller, &listing)
    }

    /// Every field of the record is what the page was rendered from.
    fn assert_extracted(seller: &Seller, l: &Listing, r: &OfferRecord) {
        let market = l.marketplace;
        let shown = market.shows_sellers();
        let m = l.monetization.as_ref();
        let want = OfferRecord {
            marketplace: market.name().to_string(),
            offer_url: String::new(),
            title: l.title.clone(),
            seller: shown.then(|| seller.username.clone()),
            seller_country: seller.country.clone().filter(|_| shown),
            price_usd: Some(l.price_usd),
            platform: Some(l.platform.name().to_string()),
            category: l.category.clone(),
            claimed_followers: l.claimed_followers,
            claims_verified: l.claims_verified,
            monthly_revenue_usd: m.map(|m| m.monthly_revenue_usd),
            income_source: m.map(|m| m.income_source.clone()),
            description: l.description.clone(),
            profile_link: l.profile_link.clone(),
            handle: l.profile_link.as_ref().map(|_| "dance.page99".to_string()),
            collected_unix: 0,
            iteration: 0,
        };
        assert_eq!(r, &want, "{market:?}");
    }

    #[test]
    fn every_market_extracts_every_present_field() {
        for market in ALL_MARKETPLACES {
            let (seller, listing) = full_listing(market);
            assert_extracted(&seller, &listing, &render_and_extract(&seller, &listing));
        }
    }

    #[test]
    fn every_market_extracts_absent_fields_as_absent() {
        for market in ALL_MARKETPLACES {
            let (seller, listing) = sparse_listing(market);
            assert_extracted(&seller, &listing, &render_and_extract(&seller, &listing));
        }
    }

    #[test]
    fn both_seller_displays_are_covered() {
        assert!(ALL_MARKETPLACES.iter().any(|m| m.shows_sellers()));
        assert!(ALL_MARKETPLACES.iter().any(|m| !m.shows_sellers()));
    }

    #[test]
    fn extracts_all_three_dialects() {
        for market in [
            MarketplaceId::Accsmarket, // cards
            MarketplaceId::FameSwap,   // table
            MarketplaceId::Z2U,        // list
        ] {
            let r = roundtrip(market);
            assert_eq!(r.title, "TikTok dance page 2.1M", "{market:?}");
            assert_eq!(r.price_usd, Some(1_234.5), "{market:?}");
            assert_eq!(r.platform.as_deref(), Some("TikTok"), "{market:?}");
            assert_eq!(r.seller.as_deref(), Some("megaseller"), "{market:?}");
            assert_eq!(r.seller_country.as_deref(), Some("Turkey"), "{market:?}");
            assert_eq!(r.category.as_deref(), Some("Humor/Memes"), "{market:?}");
            assert_eq!(r.claimed_followers, Some(2_100_000), "{market:?}");
            assert_eq!(r.monthly_revenue_usd, Some(136.0), "{market:?}");
            assert_eq!(r.income_source.as_deref(), Some("Google AdSense"), "{market:?}");
            assert_eq!(
                r.profile_link.as_deref(),
                Some("http://tiktok.example/dance.page99"),
                "{market:?}"
            );
            assert_eq!(r.handle.as_deref(), Some("dance.page99"), "{market:?}");
        }
    }

    #[test]
    fn hidden_seller_market_extracts_no_seller() {
        let r = roundtrip(MarketplaceId::SocialTradia);
        assert!(r.seller.is_none());
        assert!(r.seller_country.is_none());
        assert_eq!(r.price_usd, Some(1_234.5));
    }

    #[test]
    fn price_parsing_variants() {
        assert_eq!(parse_price("$157"), Some(157.0));
        assert_eq!(parse_price("$1,234.50"), Some(1_234.5));
        assert_eq!(parse_price("$50,000,000"), Some(50_000_000.0));
        assert_eq!(parse_price("$136/month"), Some(136.0));
        assert_eq!(parse_price("price: $7 only"), Some(7.0));
        assert_eq!(parse_price("free"), None);
        assert_eq!(parse_price("$"), None);
    }

    #[test]
    fn handle_extraction() {
        assert_eq!(
            handle_from_profile_link("http://instagram.example/fashion.daily"),
            Some("fashion.daily".to_string())
        );
        assert_eq!(handle_from_profile_link("http://instagram.example/"), None);
        assert_eq!(handle_from_profile_link("not a url"), None);
    }

    #[test]
    fn index_parsing_with_pagination() {
        let html = r#"<div><a class="offer-link" href="/offer/3">a</a>
            <a href="/offer/4">b</a><a class="next" href="/listings/x?page=1">next</a>
            <a href="/other">skip</a></div>"#;
        let page = parse_index(html);
        assert_eq!(page.offer_paths, vec!["/offer/3", "/offer/4"]);
        assert_eq!(page.next_path.as_deref(), Some("/listings/x?page=1"));
    }

    #[test]
    fn storefront_parsing() {
        let html = r#"<nav><a class="platform-link" href="/listings/instagram">IG</a>
            <a class="platform-link" href="/listings/tiktok">TT</a>
            <a href="/about">about</a></nav>"#;
        let paths = parse_storefront(html);
        assert_eq!(paths, vec!["/listings/instagram", "/listings/tiktok"]);
    }
}
