//! Per-page crawl cost: offer extraction for each template dialect, and
//! a listing-index render over a Table 1-sized market.
//!
//! * `extract/parse_offer/<dialect>` parses one rendered offer page and
//!   fills its record (the crawler's per-offer work after the fetch).
//! * `market/listing_index_13k` renders page 0 and the last page of the
//!   Instagram index of an Accsmarket state holding 13,665 active
//!   listings, Table 1's size for Accsmarket. The 0.1-scale workloads
//!   hold a tenth of that, so only this bench sees how an index page's
//!   cost grows with the market.

use acctrade_crawler::extract::parse_offer;
use acctrade_market::config::MarketplaceId;
use acctrade_market::lifecycle::MarketState;
use acctrade_market::listing::{Listing, Monetization};
use acctrade_market::seller::Seller;
use acctrade_market::site::MarketplaceSite;
use acctrade_net::http::Request;
use acctrade_net::server::{RequestCtx, Service};
use acctrade_net::url::Url;
use acctrade_social::platform::Platform;
use foundation::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foundation::sync::RwLock;
use std::hint::black_box;
use std::sync::Arc;

/// Accsmarket's advertised account count (Table 1).
const ACCSMARKET_LISTINGS: usize = 13_665;

/// A market holding `n` active Instagram listings with every optional
/// field set, served by its site.
fn site_with(market: MarketplaceId, n: usize) -> MarketplaceSite {
    let mut state = MarketState::new(market);
    let sid = state.next_seller_id();
    let mut seller = Seller::new(sid, "megaseller");
    seller.country = Some("Turkey".into());
    state.add_seller(seller);
    for i in 0..n {
        let lid = state.next_listing_id();
        let mut l = Listing::new(lid, market, Platform::Instagram, sid, 298.0 + i as f64);
        l.title = format!("IG fashion page #{i} 26k");
        l.category = Some("Fashion/Style".into());
        l.claimed_followers = Some(26_998);
        l.claims_verified = true;
        l.description = Some("Fresh and ready account with real users.".into());
        l.monetization =
            Some(Monetization { monthly_revenue_usd: 136.0, income_source: "Google AdSense".into() });
        l.profile_link = Some(format!("http://instagram.example/fashion{i}"));
        state.add_listing(l);
    }
    MarketplaceSite::new(Arc::new(RwLock::new(state)))
}

fn get(site: &MarketplaceSite, market: MarketplaceId, path: &str) -> String {
    let url = Url::parse(&format!("http://{}{path}", market.host())).expect("bench URL");
    site.handle(&Request::get(url), &RequestCtx::test()).text()
}

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract");
    group.sample_size(200);
    for (dialect, market) in [
        ("cards", MarketplaceId::Accsmarket),
        ("table", MarketplaceId::FameSwap),
        ("list", MarketplaceId::Z2U),
    ] {
        let html = get(&site_with(market, 1), market, "/offer/1");
        group.bench_with_input(BenchmarkId::new("parse_offer", dialect), &html, |b, html| {
            b.iter(|| black_box(parse_offer(market, black_box(html))))
        });
    }
    group.finish();
}

fn bench_listing_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("market");
    // A sample takes ~0.1 ms; 1000 of them span ~0.1 s, so a burst of
    // contention lasting a few ms on a shared CPU cannot reach the median.
    group.sample_size(1000);
    let market = MarketplaceId::Accsmarket;
    let site = site_with(market, ACCSMARKET_LISTINGS);
    let last = ACCSMARKET_LISTINGS.div_ceil(market.config().page_size) - 1;
    let last_page = format!("/listings/instagram?page={last}");
    // Both pages must be real index pages, the last one without a `next`.
    assert!(get(&site, market, "/listings/instagram").contains("class=\"next\""));
    assert!(!get(&site, market, &last_page).contains("class=\"next\""));
    group.bench_function("listing_index_13k", |b| {
        b.iter(|| {
            black_box(get(&site, market, "/listings/instagram"));
            black_box(get(&site, market, &last_page))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extract, bench_listing_index);
criterion_main!(benches);
