//! Per-layer attribution, measured from outside the program: every
//! number here either times a call into a layer's public functions from
//! this crate, or reads what a run already recorded (its manifest stage
//! table and counters, httpd's `StatsSnapshot`, the store's
//! `WriterStats` and `RecoveryReport`).

use crate::{quantile, timed, Opts, CLOSURE_BOUND, PER_LAYER};
use acctrade_core::scamposts::{self, ClusterBackend, ScamPipelineConfig};
use acctrade_core::{anatomy, efficacy, network, setup, underground};
use acctrade_crawler::extract;
use acctrade_crawler::record::{Dataset, OfferRecord, PostRecord};
use acctrade_crawler::{CampaignStore, CrawlCampaign};
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_net::{Client, Request, SimNet, Status, Url};
use acctrade_text::cluster::{dbscan, hdbscan, ClusterParams};
use acctrade_text::embed::Embedder;
use acctrade_text::keywords::class_tfidf_keywords;
use acctrade_text::langdetect::is_english;
use acctrade_text::reduce::pca_reduce;
use acctrade_text::tokenize::tokenize_content;
use acctrade_workload::world::{World, WorldParams};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use telemetry::manifest::StageReport;
use telemetry::{Recorder, RunManifest, Tracer};

/// The user agent and politeness the study gives its crawler client.
pub(crate) const CRAWLER_UA: &str = "acctrade-crawler/0.1";
pub(crate) const CRAWLER_RATE: (f64, f64) = (20.0, 8.0);

/// The study's top-level stages, in pipeline order.
pub(crate) const STAGES: [&str; 7] = [
    "deploy",
    "crawl_campaign",
    "resolve_profiles",
    "underground_collection",
    "moderation",
    "efficacy_requery",
    "analysis",
];

/// Text-pipeline steps, in pipeline order, that should sum to
/// `core.scamposts_s`.
const TEXT_STEPS: [&str; 6] = [
    "text.dedup_s",
    "text.langdetect_s",
    "text.embed_s",
    "text.reduce_s",
    "text.cluster_s",
    "text.keywords_s",
];

/// Every per-layer value of one traced run (0 for bypassed layers),
/// plus which closure checks apply to the workload.
#[derive(Debug, Clone)]
pub(crate) struct Layers {
    values: Vec<f64>,
    /// `unattributed_s` must stay within the closure bound.
    pub check_unattributed: bool,
    /// The text steps must sum to `core.scamposts_s`.
    pub check_text: bool,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
            check_unattributed: false,
            check_text: false,
        }
    }
}

impl Layers {
    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Layers::index(name)] = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        self.values[Layers::index(name)] += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[Layers::index(name)]
    }

    pub fn into_metrics(self) -> Vec<crate::Metric> {
        PER_LAYER
            .iter()
            .zip(self.values)
            .map(|(s, value)| crate::Metric {
                name: s.name,
                value,
                unit: s.unit,
            })
            .collect()
    }

    /// The traced run's attribution closure: the layers must account
    /// for the measured time within [`CLOSURE_BOUND`].
    pub fn closure_problems(&self, study_s: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let unattributed = self.get("unattributed_s");
        if self.check_unattributed && unattributed.abs() > CLOSURE_BOUND * study_s {
            problems.push(format!(
                "attribution closure: unattributed_s {unattributed:.3} s exceeds {:.0}% of study_s {study_s:.3} s",
                CLOSURE_BOUND * 100.0
            ));
        }
        let scam = self.get("core.scamposts_s");
        let steps: f64 = TEXT_STEPS.iter().map(|s| self.get(s)).sum();
        if self.check_text && (steps - scam).abs() > CLOSURE_BOUND * scam {
            problems.push(format!(
                "attribution closure: text steps sum to {steps:.3} s, core.scamposts_s is {scam:.3} s"
            ));
        }
        problems
    }

    /// Wall time of each top-level stage; returns their sum.
    pub fn stages(&mut self, stages: &[StageReport]) -> f64 {
        let mut total = 0.0;
        for s in stages.iter().filter(|s| s.depth == 0) {
            if STAGES.contains(&s.name.as_str()) {
                self.add(&format!("stage.{}_s", s.name), s.wall_ms / 1e3);
            }
            total += s.wall_ms / 1e3;
        }
        total
    }

    /// Crawler, fabric and API tallies from a run's manifest.
    pub fn manifest_counts(&mut self, m: &RunManifest) {
        let pages: u64 = m.crawl.iter().map(|c| c.pages).sum();
        let offers: u64 = m.crawl.iter().map(|c| c.offers).sum();
        self.set("crawler.pages", pages as f64);
        self.set("crawler.offers", offers as f64);
        self.set(
            "crawler.fetch_errors",
            m.crawl.iter().map(|c| c.fetch_errors).sum::<u64>() as f64,
        );
        self.set(
            "crawler.offers_per_page",
            offers as f64 / pages.max(1) as f64,
        );
        for (layer, counter) in [
            ("net.requests", "net.requests"),
            ("net.retries", "net.retries"),
            ("net.captcha", "net.captcha"),
            ("net.robots_denied", "net.robots_denied"),
        ] {
            self.set(layer, counter_total(m, counter) as f64);
        }
        self.set(
            "social.api_calls",
            m.api.iter().map(|a| a.calls).sum::<u64>() as f64,
        );
        self.set(
            "social.api_nonok",
            m.api
                .iter()
                .filter(|a| a.outcome != "ok")
                .map(|a| a.calls)
                .sum::<u64>() as f64,
        );
    }
}

/// Sum of every labelled series of one counter.
pub(crate) fn counter_total(m: &RunManifest, name: &str) -> u64 {
    m.counters
        .iter()
        .filter(|c| c.key.split('{').next() == Some(name))
        .map(|c| c.value)
        .sum()
}

/// Page fetches plus API calls attempted, and fetch errors, per a
/// run's manifest.
pub(crate) fn manifest_ops(m: &RunManifest) -> crate::Ops {
    let pages: u64 = m.crawl.iter().map(|c| c.pages).sum();
    let errors: u64 = m.crawl.iter().map(|c| c.fetch_errors).sum();
    let api: u64 = m.api.iter().map(|a| a.calls).sum();
    crate::Ops {
        attempted: pages + errors + api,
        failed: errors,
    }
}

/// A freshly generated world, deployed on its own fabric.
pub(crate) struct FreshWorld {
    pub world: World,
    pub net: Arc<SimNet>,
    pub generate_s: f64,
    pub deploy_s: f64,
}

impl FreshWorld {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.deploy_s
    }
}

/// Generate the seed's world and deploy it on a fresh fabric, timing
/// each half.
pub(crate) fn fresh_world(opts: &Opts) -> FreshWorld {
    let params = WorldParams {
        seed: opts.seed,
        scale: opts.plan.scale,
    };
    let (world, generate_s) = timed(|| World::generate(params));
    let (net, deploy_s) = timed(|| {
        let net = SimNet::new(opts.seed);
        world.deploy(&net);
        net
    });
    FreshWorld {
        world,
        net,
        generate_s,
        deploy_s,
    }
}

/// Record generate/deploy medians over a run's set-up samples.
pub(crate) fn setup_layers(layers: &mut Layers, samples: &[(f64, f64)]) {
    let gen: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let dep: Vec<f64> = samples.iter().map(|s| s.1).collect();
    layers.set("workload.generate_s", crate::median(&gen));
    layers.set("market.deploy_s", crate::median(&dep));
}

/// Replay a fixed sample of the run's own URLs through
/// `SimNet::dispatch` on a same-seed world deployed fresh, then time
/// `acctrade_html::parse` and the crawler's extraction on the bodies.
/// Index pages are every marketplace storefront's listing seeds; offer
/// pages are evenly spaced over the run's offers.
pub(crate) fn replay_layers(
    layers: &mut Layers,
    fresh: &FreshWorld,
    offers: &[OfferRecord],
    sample: usize,
) {
    let net = &fresh.net;
    let mut dispatch_us = Vec::new();
    let mut fetch = |url: &Url| -> Option<String> {
        let (resp, s) =
            timed(|| net.dispatch(&Request::get(url.clone()), "e2ebench-replay", false, 0));
        dispatch_us.push(s * 1e6);
        resp.ok()
            .filter(|r| r.status == Status::Ok)
            .map(|r| r.text())
    };

    // (market, is_offer, body)
    let mut pages: Vec<(MarketplaceId, bool, String)> = Vec::new();
    for market in ALL_MARKETPLACES {
        let Some(front) = fetch(&Url::http(market.host(), "/")) else {
            continue;
        };
        for path in extract::parse_storefront(&front) {
            if let Some(body) = fetch(&Url::http(market.host(), &path)) {
                pages.push((market, false, body));
            }
        }
    }
    let n = sample.min(offers.len());
    for i in 0..n {
        let offer = &offers[i * offers.len() / n];
        let market = ALL_MARKETPLACES
            .into_iter()
            .find(|m| m.name() == offer.marketplace);
        let (Some(market), Ok(url)) = (market, Url::parse(&offer.offer_url)) else {
            continue;
        };
        if let Some(body) = fetch(&url) {
            pages.push((market, true, body));
        }
    }

    let mut parse_us = Vec::with_capacity(pages.len());
    let mut extract_us = Vec::with_capacity(pages.len());
    for (market, is_offer, body) in &pages {
        let (doc, s) = timed(|| acctrade_html::parse(body));
        parse_us.push(s * 1e6);
        drop(doc);
        let s = if *is_offer {
            timed(|| extract::parse_offer(*market, body)).1
        } else {
            timed(|| extract::parse_index(body)).1
        };
        extract_us.push(s * 1e6);
    }
    layers.set("net.dispatch_us_p50", quantile(&dispatch_us, 0.50));
    layers.set("net.dispatch_us_p99", quantile(&dispatch_us, 0.99));
    layers.set("html.parse_us_p50", quantile(&parse_us, 0.50));
    layers.set("crawler.extract_us_p50", quantile(&extract_us, 0.50));
}

/// The §6 pipeline step by step through the text crate's public
/// functions, then `scamposts::analyze` whole; each timing is the
/// fastest of `rounds`, steps and whole alternating so both see the
/// same machine. The step-wise replay must find the documents the
/// pipeline found.
pub(crate) fn text_layers(
    layers: &mut Layers,
    posts: &[PostRecord],
    cfg: ScamPipelineConfig,
    rounds: usize,
) -> Result<(), String> {
    let mut best = [f64::INFINITY; TEXT_STEPS.len() + 1];
    for _ in 0..rounds.max(1) {
        let (steps, distinct, english) = text_steps(posts, cfg);
        let (analysis, whole) = timed(|| scamposts::analyze(posts, cfg));
        for (b, s) in best.iter_mut().zip(steps.into_iter().chain([whole])) {
            *b = b.min(s);
        }
        layers.set("text.docs_distinct", distinct as f64);
        layers.set("text.docs_english", english as f64);
        if analysis.unique_documents != distinct {
            return Err(format!(
                "text replay found {distinct} distinct documents, the pipeline {}",
                analysis.unique_documents
            ));
        }
    }
    for (name, s) in TEXT_STEPS.iter().chain(&["core.scamposts_s"]).zip(best) {
        layers.set(name, s);
    }
    layers.check_text = !posts.is_empty();
    Ok(())
}

/// One pass of the §6 steps: seconds per step in [`TEXT_STEPS`] order,
/// then the distinct and the English document counts.
fn text_steps(posts: &[PostRecord], cfg: ScamPipelineConfig) -> ([f64; 6], usize, usize) {
    let mut secs = [0.0; 6];
    let (documents, s) = timed(|| {
        let mut seen = BTreeSet::new();
        posts
            .iter()
            .filter(|p| seen.insert(tokenize_content(&p.text).join(" ")))
            .map(|p| p.text.as_str())
            .collect::<Vec<&str>>()
    });
    secs[0] = s;
    let (english, s) = timed(|| {
        documents
            .iter()
            .filter(|d| is_english(d))
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
    });
    secs[1] = s;
    let mut labels: Vec<Option<usize>> = vec![None; english.len()];
    if english.len() >= 8 {
        let (embedded, s) = timed(|| Embedder::new(cfg.embed_dim, cfg.seed).embed_all(&english));
        secs[2] = s;
        let (reduced, s) = timed(|| pca_reduce(&embedded, cfg.reduce_dim, cfg.seed));
        secs[3] = s;
        let (clustered, s) = timed(|| match cfg.backend {
            ClusterBackend::Hdbscan { min_cluster_size } => hdbscan(&reduced, min_cluster_size),
            ClusterBackend::Dbscan { eps, min_pts } => {
                dbscan(&reduced, ClusterParams { eps, min_pts })
            }
        });
        secs[4] = s;
        labels = clustered.iter().map(|l| l.id()).collect();
    }
    secs[5] = timed(|| class_tfidf_keywords(&english, &labels, 6)).1;
    (secs, documents.len(), english.len())
}

/// The non-text analyses of the study's tail, on the run's dataset.
pub(crate) fn core_layers(layers: &mut Layers, dataset: &Dataset) {
    let (_, network_s) = timed(|| network::analyze(&dataset.profiles));
    let (_, tables_s) = timed(|| {
        let mut visible_and_posts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for p in &dataset.profiles {
            visible_and_posts.entry(p.platform.clone()).or_default().0 += 1;
        }
        for p in &dataset.posts {
            visible_and_posts.entry(p.platform.clone()).or_default().1 += 1;
        }
        (
            anatomy::table1(&dataset.offers),
            anatomy::table2(&dataset.offers, &visible_and_posts),
            anatomy::anatomy_stats(&dataset.offers),
            setup::table4(&dataset.profiles),
            setup::creation_cdf(&dataset.profiles),
            setup::setup_stats(&dataset.profiles),
            efficacy::analyze(&dataset.profiles),
            underground::analyze(&dataset.underground),
        )
    });
    layers.set("core.network_s", network_s);
    layers.set("core.tables_s", tables_s);
}

/// `Recorder::snapshot` (what every checkpoint pays) and the manifest
/// export, on the run's own recorder; medians of three.
pub(crate) fn recorder_layers(layers: &mut Layers, rec: &Recorder, seed: u64) {
    let snap: Vec<f64> = (0..3).map(|_| timed(|| rec.snapshot()).1 * 1e3).collect();
    let manifest: Vec<f64> = (0..3)
        .map(|_| timed(|| rec.manifest("study", seed, "0000000000000000")).1 * 1e3)
        .collect();
    layers.set("telemetry.snapshot_ms", crate::median(&snap));
    layers.set("telemetry.manifest_ms", crate::median(&manifest));
}

/// Telemetry's own cost: the first crawl pass rerun through
/// `CrawlCampaign` with the study's client settings, under
/// `Recorder::disabled()`, `Recorder::new()`, and `Recorder::new()`
/// with a trace sink; the fastest of `rounds` per way, each round
/// starting with a different way.
pub(crate) fn telemetry_cost_layers(layers: &mut Layers, fresh: &mut FreshWorld, opts: &Opts) {
    let mut best = [f64::INFINITY; 3];
    for round in 0..opts.plan.rounds.max(1) {
        for step in 0..3 {
            let way = (round + step) % 3;
            let rec = match way {
                0 => Recorder::disabled(),
                1 => Recorder::new(),
                _ => {
                    let rec = Recorder::new();
                    rec.set_trace_sink(Tracer::new());
                    rec
                }
            };
            let _scope = rec.enter();
            let net = SimNet::new(opts.seed);
            fresh.world.deploy(&net);
            let client =
                Client::new(&net, CRAWLER_UA).with_politeness(CRAWLER_RATE.0, CRAWLER_RATE.1);
            let mut campaign = CrawlCampaign::new(&client);
            campaign.workers = opts.plan.workers;
            let (_, s) = timed(|| campaign.run(&mut fresh.world, 1));
            best[way] = best[way].min(s);
        }
    }
    layers.set("telemetry.cost_pct", 100.0 * (best[1] / best[0] - 1.0));
    layers.set("telemetry.sink_cost_pct", 100.0 * (best[2] / best[0] - 1.0));
}

/// `Dataset::to_json` of the run's dataset.
pub(crate) fn dataset_layers(layers: &mut Layers, dataset: &Dataset) {
    let (json, s) = timed(|| dataset.to_json());
    layers.set("foundation.dataset_json_s", s);
    layers.set("foundation.dataset_json_mb", json.len() as f64 / 1e6);
}

/// The store on the resume workload: `CampaignStore::load` of the killed
/// store, then the run's own record stream appended through
/// `CampaignStore::append_*` into a fresh directory with one sync per
/// crawl iteration plus a final one.
pub(crate) fn store_layers(
    layers: &mut Layers,
    replay: (f64, u64, u64),
    dataset: &Dataset,
    events: &[economy::EconomyEvent],
    iterations: usize,
    dir: &Path,
) -> Result<(), String> {
    layers.set("store.replay_s", replay.0);
    layers.set("store.records_replayed", replay.1 as f64);
    layers.set("store.bytes_replayed", replay.2 as f64);
    let _ = std::fs::remove_dir_all(dir);
    let mut store = CampaignStore::create(dir).map_err(|e| format!("store create: {e}"))?;
    let mut append_s = 0.0;
    let mut sync_s = 0.0;
    let err = |e: std::io::Error| format!("store append: {e}");
    for it in 0..iterations {
        let (r, s) = timed(|| -> std::io::Result<()> {
            for offer in dataset.offers.iter().filter(|o| o.iteration == it) {
                store.append_offer(offer)?;
            }
            Ok(())
        });
        r.map_err(err)?;
        append_s += s;
        let (r, s) = timed(|| store.sync());
        r.map_err(err)?;
        sync_s += s;
    }
    let (r, s) = timed(|| -> std::io::Result<()> {
        for event in events {
            store.append_economy_event(event)?;
        }
        for p in &dataset.profiles {
            store.append_profile(p)?;
        }
        for p in &dataset.posts {
            store.append_post(p)?;
        }
        for u in &dataset.underground {
            store.append_underground(u)?;
        }
        Ok(())
    });
    r.map_err(err)?;
    append_s += s;
    let (r, s) = timed(|| store.sync());
    r.map_err(err)?;
    sync_s += s;
    let stats = store.stats();
    layers.set("store.append_s", append_s);
    layers.set("store.sync_s", sync_s);
    layers.set("store.records", stats.records_appended as f64);
    layers.set("store.bytes", stats.bytes_appended as f64);
    layers.set("store.segments_rotated", stats.segments_rotated as f64);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
