//! The manual underground collector (§3.2 "Underground Forum Account
//! Collection").
//!
//! Underground forums defeat automation (registration walls, non-standard
//! CAPTCHAs, link-restricted navigation), so the paper collected them
//! manually with two strategies: (i) browsing the account/social-media
//! sections, and (ii) searching `[account/s | profile/s] [platform]`,
//! recording "data from the first five pages of results, up to 25
//! postings per social media platform".
//!
//! [`UndergroundCollector`] drives a *manual-persona* client over a Tor
//! circuit through exactly that procedure.

use crate::extract::{compiled, hrefs_under, parse_price, text_of};
use crate::record::UndergroundRecord;
use acctrade_html::{parse, Selector};
use acctrade_net::client::Client;
use acctrade_net::http::Status;
use acctrade_social::platform::{Platform, ALL_PLATFORMS};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// §3.2's collection caps.
pub(crate) const MAX_PAGES: usize = 5;
/// Max posts per platform.
pub(crate) const MAX_POSTS_PER_PLATFORM: usize = 25;

/// Statistics of one market's collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Registered.
    pub registered: bool,
    /// Pages browsed.
    pub pages_browsed: usize,
    /// Searches run.
    pub searches_run: usize,
    /// Posts recorded.
    pub posts_recorded: usize,
}

/// Collector for one underground market.
pub struct UndergroundCollector<'a> {
    client: &'a Client,
    host: String,
    market_name: String,
}

impl<'a> UndergroundCollector<'a> {
    /// Bind to a forum host. The client must be a manual persona riding a
    /// Tor circuit.
    pub fn new(client: &'a Client, host: impl Into<String>, market_name: impl Into<String>) -> Self {
        UndergroundCollector { client, host: host.into(), market_name: market_name.into() }
    }

    /// Run the full manual procedure: register, browse sections, search
    /// per platform, and record postings under the §3.2 caps.
    pub fn collect(&self) -> (Vec<UndergroundRecord>, CollectStats) {
        let mut stats = CollectStats::default();
        let mut records = Vec::new();
        let mut seen_threads: BTreeSet<String> = BTreeSet::new();
        let mut per_platform: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();

        // Registration (the manual persona solves the CAPTCHA).
        let Ok(resp) = self.client.get(&format!("http://{}/register", self.host)) else {
            return (records, stats);
        };
        if resp.status != Status::Ok {
            return (records, stats); // wall not passable (e.g. gave up on CAPTCHA)
        }
        stats.registered = true;

        // Index first — navigation is link-restricted.
        if self.client.get(&format!("http://{}/", self.host)).is_err() {
            return (records, stats);
        }
        stats.pages_browsed += 1;

        // Strategy (i): browse the account/social-media sections.
        for section in ["accounts", "social-media"] {
            for page in 0..MAX_PAGES {
                let url = if page == 0 {
                    format!("http://{}/section/{}", self.host, section)
                } else {
                    format!("http://{}/section/{}?page={}", self.host, section, page)
                };
                let Ok(resp) = self.client.get(&url) else { break };
                if resp.status != Status::Ok {
                    break;
                }
                stats.pages_browsed += 1;
                let thread_paths = extract_thread_links(&resp.text());
                if thread_paths.is_empty() {
                    break;
                }
                for path in thread_paths {
                    self.record_thread(&path, &mut seen_threads, &mut per_platform, &mut records, &mut stats);
                }
            }
        }

        // Strategy (ii): keyword searches per platform.
        for platform in ALL_PLATFORMS {
            for keyword in ["account", "accounts", "profile", "profiles"] {
                let q = format!("{} {}", keyword, platform.name().to_ascii_lowercase());
                let url = format!(
                    "http://{}/search?q={}",
                    self.host,
                    acctrade_net::url::encode_component(&q)
                );
                let Ok(resp) = self.client.get(&url) else { continue };
                if resp.status != Status::Ok {
                    continue;
                }
                stats.searches_run += 1;
                for path in extract_thread_links(&resp.text()) {
                    self.record_thread(&path, &mut seen_threads, &mut per_platform, &mut records, &mut stats);
                }
            }
        }

        telemetry::with_recorder(|r| {
            let labels = [("market", self.market_name.as_str())];
            r.incr("underground.pages_browsed", &labels, stats.pages_browsed as u64);
            r.incr("underground.searches", &labels, stats.searches_run as u64);
            r.incr("underground.posts", &labels, stats.posts_recorded as u64);
            if stats.registered {
                r.incr("underground.registered", &labels, 1);
            }
        });
        (records, stats)
    }

    fn record_thread(
        &self,
        path: &str,
        seen: &mut BTreeSet<String>,
        per_platform: &mut std::collections::BTreeMap<String, usize>,
        records: &mut Vec<UndergroundRecord>,
        stats: &mut CollectStats,
    ) {
        if !seen.insert(path.to_string()) {
            return;
        }
        let url = format!("http://{}{}", self.host, path);
        let Ok(resp) = self.client.get(&url) else { return };
        if resp.status != Status::Ok {
            return;
        }
        let Some(record) = parse_thread(&self.market_name, &url, &resp.text()) else {
            return;
        };
        // §3.2 cap: at most 25 postings per platform per market.
        let platform_key = record.platform.clone().unwrap_or_else(|| "unknown".into());
        let count = per_platform.entry(platform_key).or_insert(0);
        if *count >= MAX_POSTS_PER_PLATFORM {
            return;
        }
        *count += 1;
        records.push(record);
        stats.posts_recorded += 1;
    }
}

fn extract_thread_links(html: &str) -> Vec<String> {
    hrefs_under(html, "/thread/")
}

/// Parse one thread page into a record (the §4.2 fields; "not all fields
/// were consistently available across forums").
fn parse_thread(market: &str, url: &str, html: &str) -> Option<UndergroundRecord> {
    static SELECTORS: OnceLock<[Selector; 8]> = OnceLock::new();
    let doc = parse(html);
    let selectors = compiled(
        &SELECTORS,
        [".title", ".body", ".author", ".platform", ".date", ".replies", ".price", ".quantity"],
    );
    let [title, body, author, platform, date, replies, price, quantity] =
        selectors.each_ref().map(|s| doc.select_first(s));
    Some(UndergroundRecord {
        market: market.to_string(),
        url: url.to_string(),
        title: text_of(title)?,
        body: text_of(body).unwrap_or_default(),
        author: text_of(author).unwrap_or_default(),
        platform: text_of(platform).and_then(|p| Platform::parse(&p)).map(|p| p.name().to_string()),
        published_unix: text_of(date).and_then(|d| parse_date(&d)),
        replies: text_of(replies).and_then(|r| r.parse().ok()),
        price_usd: text_of(price).as_deref().and_then(parse_price),
        quantity: text_of(quantity).and_then(|q| q.parse().ok()),
        screenshot: true, // the paper screenshotted every posting
    })
}

/// Parse `YYYY-MM-DD` into unix seconds.
fn parse_date(s: &str) -> Option<i64> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(acctrade_net::clock::unix_from_ymd(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_net::sim::SimNet;
    use acctrade_net::tor::TorDirectory;
    use acctrade_workload::world::{World, WorldParams};
    use foundation::rng::SeedableRng;
    use foundation::rng::ChaCha8Rng;

    fn manual_client(net: &std::sync::Arc<SimNet>, seed: u64) -> Client {
        let dir = TorDirectory::default_consensus();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Client::new(net, "tor-browser").manual(seed).via_tor(dir.build_circuit(&mut rng))
    }

    #[test]
    fn collects_nexus_with_caps() {
        let world = World::generate(WorldParams { seed: 31, scale: 0.01 });
        let net = SimNet::new(31);
        world.deploy(&net);
        let nexus = world
            .forums
            .iter()
            .find(|f| f.config().name == "Nexus")
            .unwrap();
        let client = manual_client(&net, 31);
        let collector = UndergroundCollector::new(&client, nexus.config().host.clone(), "Nexus");
        let (records, stats) = collector.collect();
        assert!(stats.registered);
        assert!(stats.posts_recorded > 0);
        // Nexus has 37 posts but TikTok is capped at 25.
        let tiktok = records.iter().filter(|r| r.platform.as_deref() == Some("TikTok")).count();
        assert!(tiktok <= MAX_POSTS_PER_PLATFORM);
        assert_eq!(records.len(), stats.posts_recorded);
        // Fields parsed.
        assert!(records.iter().all(|r| !r.title.is_empty()));
        assert!(records.iter().any(|r| r.price_usd.is_some()));
        assert!(records.iter().any(|r| r.published_unix.is_some()));
        assert!(records.iter().any(|r| r.published_unix.is_none()), "some forums omit dates");
    }

    #[test]
    fn empty_markets_yield_nothing() {
        let world = World::generate(WorldParams { seed: 32, scale: 0.01 });
        let net = SimNet::new(32);
        world.deploy(&net);
        let ares = world
            .forums
            .iter()
            .find(|f| f.config().name == "ARES Market")
            .unwrap();
        let client = manual_client(&net, 32);
        let collector =
            UndergroundCollector::new(&client, ares.config().host.clone(), "ARES Market");
        let (records, stats) = collector.collect();
        assert!(stats.registered);
        assert_eq!(records.len(), 0);
    }

    #[test]
    fn date_parsing() {
        assert_eq!(parse_date("2024-03-15"), Some(acctrade_net::clock::unix_from_ymd(2024, 3, 15)));
        assert_eq!(parse_date("2024-13-01"), None);
        assert_eq!(parse_date("nonsense"), None);
    }
}
