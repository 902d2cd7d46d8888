//! The end-to-end study: §3's three modules wired together.
//!
//! [`Study::run`] executes the whole measurement campaign against a
//! generated world:
//!
//! 1. **collect marketplaces** — the world deploys the Table 9 channels
//!    (the 11 public marketplaces with visible handles, the platform
//!    APIs, and the 8 underground forums);
//! 2. **data collection** — the crawl campaign iterates Feb–Jun,
//!    the profile resolver pulls metadata and timelines for every visible
//!    account, and the manual collector walks the underground forums over
//!    Tor;
//! 3. **tracking & analysis** — moderation runs during the window, the
//!    efficacy audit re-queries every visible account, and every analysis
//!    of §§4–8 is computed.

use crate::{anatomy, dynamics, efficacy, network, report, scamposts, setup, underground};
use acctrade_crawler::persist::{
    ApiOutcomeRecord, CampaignCheckpoint, CampaignStore, CHECKPOINT_SCHEMA,
};
use acctrade_crawler::record::{Dataset, ProfileRecord};
use acctrade_crawler::resolve::ProfileResolver;
use acctrade_crawler::schedule::{CampaignProgress, CrawlCampaign, DAYS_BETWEEN};
use acctrade_crawler::underground::UndergroundCollector;
use ::economy::{EconomyConfig, EconomyEvent, EconomySim};
use acctrade_net::client::Client;
use acctrade_net::clock::DAY;
use acctrade_net::sim::SimNet;
use acctrade_net::tor::TorDirectory;
use acctrade_social::platform::Platform;
use acctrade_workload::world::{World, WorldParams};
use foundation::rng::SeedableRng;
use foundation::rng::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use store::{RecoveryReport, StoreError};

/// Study configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Seed.
    pub seed: u64,
    /// World scale (1.0 = the paper's 38,253 listings).
    pub scale: f64,
    /// Crawl iterations across the collection window (the paper's
    /// campaign ran ~10 passes over Feb–Jun 2024).
    pub iterations: usize,
    /// Scam-pipeline configuration.
    pub scam: scamposts::ScamPipelineConfig,
}

impl StudyConfig {
    /// A small, fast configuration for tests and the quickstart example.
    pub fn small(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            scale: 0.02,
            iterations: 4,
            scam: scamposts::ScamPipelineConfig::default(),
        }
    }

    /// The full paper-scale configuration.
    pub fn full(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            scale: 1.0,
            iterations: 10,
            scam: scamposts::ScamPipelineConfig::default(),
        }
    }
}

/// Everything the study produces.
pub struct StudyReport {
    /// Config.
    pub config: StudyConfig,
    /// Dataset.
    pub dataset: Dataset,
    /// Table1.
    pub table1: Vec<anatomy::Table1Row>,
    /// Table2.
    pub table2: Vec<anatomy::Table2Row>,
    /// Anatomy.
    pub anatomy: anatomy::AnatomyStats,
    /// Dynamics.
    pub dynamics: dynamics::ListingDynamics,
    /// Table4.
    pub table4: Vec<setup::Table4Row>,
    /// Creation.
    pub creation: setup::CreationCdf,
    /// Setup.
    pub setup: setup::SetupStats,
    /// Scam.
    pub scam: scamposts::ScamAnalysis,
    /// Network.
    pub network: network::NetworkAnalysis,
    /// Efficacy.
    pub efficacy: efficacy::EfficacyAnalysis,
    /// Underground.
    pub underground: underground::UndergroundAnalysis,
    /// Requests the campaign issued on the fabric.
    pub requests_issued: usize,
    /// Virtual days the campaign spanned.
    pub campaign_days: f64,
    /// Run-provenance manifest: per-stage timings, crawl/API tallies,
    /// counters (exported as `TELEMETRY_report.json`).
    pub telemetry: telemetry::RunManifest,
    /// What store recovery salvaged, when this report came out of
    /// [`Study::resume_from_with_workers`] (`None` on uninterrupted runs).
    pub recovery: Option<RecoveryReport>,
    /// Economy analysis (E1–E3 + payment reconciliation), when the
    /// study ran with [`Study::with_economy`]; `None` otherwise.
    pub economy: Option<crate::economy::EconomyAnalysis>,
    /// The economy's full event stream (empty when disabled) — the
    /// replayable provenance behind [`StudyReport::economy`], exported
    /// by the quickstart as `ECONOMY_events.jsonl`.
    pub economy_events: Vec<EconomyEvent>,
    /// Repricings the crawler observed on re-visited offers (only ever
    /// non-zero when a live economy repriced listings between passes).
    pub price_observations: usize,
}

impl StudyReport {
    /// Render every table and figure as one text report.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&report::render_figure1());
        out.push('\n');
        out.push_str(&report::render_table1(&self.table1));
        out.push('\n');
        out.push_str(&report::render_table2(&self.table2));
        out.push('\n');
        out.push_str(&report::render_table3());
        out.push('\n');
        out.push_str(&report::render_anatomy(&self.anatomy));
        out.push('\n');
        out.push_str(&report::render_figure2(&self.dynamics));
        out.push('\n');
        out.push_str(&report::render_figure3(anatomy::figure3_outlier(&self.dataset.offers)));
        out.push('\n');
        out.push_str(&report::render_underground(&self.underground));
        out.push('\n');
        out.push_str(&report::render_table4(&self.table4));
        out.push('\n');
        out.push_str(&report::render_figure4(&self.creation));
        out.push('\n');
        out.push_str(&report::render_setup(&self.setup));
        out.push('\n');
        out.push_str(&report::render_table5(&self.scam));
        out.push('\n');
        out.push_str(&report::render_table6(&self.scam));
        out.push('\n');
        out.push_str(&report::render_table7(&self.network));
        out.push('\n');
        out.push_str(&report::render_figure5(&self.network));
        out.push('\n');
        out.push_str(&report::render_table8(&self.efficacy));
        out.push('\n');
        out.push_str(&report::render_table9());
        out.push('\n');
        out.push_str(&crate::payments_security::render_appendix_a());
        if let Some(economy) = &self.economy {
            out.push('\n');
            out.push_str(&economy.render());
        }
        out
    }
}

/// The study driver.
///
/// ```no_run
/// use acctrade_core::study::{Study, StudyConfig};
///
/// // A fast 2%-scale pass; StudyConfig::full(seed) reproduces the paper.
/// let report = Study::new(StudyConfig::small(42)).run();
/// println!("{}", report.render_all());
/// assert!(report.scam.total_scam_posts > 0);
/// ```
pub struct Study {
    /// Config.
    pub config: StudyConfig,
    /// Worker threads for the sharded crawl engine (default 1). Not
    /// part of [`StudyConfig`] on purpose: any worker count produces
    /// byte-identical artifacts, so it must not perturb the config
    /// digest a resume validates against — a campaign started at
    /// `--workers 1` may legitimately resume at `--workers 8`.
    pub workers: usize,
    /// Optional live economy (default `None` = the static seed world).
    /// Like `workers`, deliberately not part of [`StudyConfig`]: with no
    /// economy attached every artifact is byte-identical to the
    /// pre-economy pipeline, so the config digest a resume validates
    /// against must not change. The scenario *is* recorded in the
    /// checkpoint (`economy_scenario`) so a resumed run rebuilds the
    /// same economy.
    pub economy: Option<EconomyConfig>,
}

impl Study {
    /// Create a study.
    pub fn new(config: StudyConfig) -> Study {
        Study { config, workers: 1, economy: None }
    }

    /// Attach an economy scenario (builder style): escrow order flow,
    /// price trajectories, and bot-operated inventory run between crawl
    /// passes, and the report gains the E1–E3 tables.
    pub fn with_economy(mut self, economy: EconomyConfig) -> Study {
        self.economy = Some(economy);
        self
    }

    /// The attached economy scenario's name, or `""` when disabled
    /// (the checkpoint encoding of "no economy").
    pub fn economy_scenario(&self) -> &'static str {
        self.economy.as_ref().map(|c| c.name).unwrap_or("")
    }

    /// Set the crawl-engine worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Study {
        self.workers = workers.max(1);
        self
    }

    /// Run the full pipeline. This generates the world internally; use
    /// [`Study::run_on`] to measure a pre-built world.
    pub fn run(&self) -> StudyReport {
        self.run_on(&mut self.world())
    }

    /// Run the pipeline against an existing world.
    ///
    /// The run is instrumented end-to-end: if the caller has already
    /// scoped a [`telemetry::Recorder`], the study records into it;
    /// otherwise it creates its own. Either way the resulting
    /// [`telemetry::RunManifest`] lands in [`StudyReport::telemetry`].
    pub fn run_on(&self, world: &mut World) -> StudyReport {
        self.run_fresh(world, None, Kill::Never)
            .map(unkilled)
            .expect("in-memory study cannot fail") // conformance: allow(panic-policy) — no store: infallible by construction
    }

    /// Run the full pipeline, streaming every dataset record into a
    /// durable store at `store_dir` with per-iteration checkpoints.
    ///
    /// A process that dies mid-campaign leaves behind a WAL plus a
    /// checkpoint from which [`Study::resume_from_with_workers`]
    /// continues the run — producing a byte-identical dataset and
    /// telemetry manifest versus an uninterrupted run of the same seed.
    pub fn run_persisted(&self, store_dir: &Path) -> Result<StudyReport, StoreError> {
        self.run_persisted_until(store_dir, Kill::Never).map(unkilled)
    }

    /// [`Study::run_persisted`], but stop (simulating a crash) once
    /// `kill_after_iterations` campaign iterations have completed and
    /// checkpointed. The first checkpoint lands after iteration 0, so a
    /// kill point of 0 stops where 1 does. Returns `Ok(None)` when the
    /// kill fired; `Ok(Some)` when the whole study finished first.
    pub fn run_persisted_with_kill(
        &self,
        store_dir: &Path,
        kill_after_iterations: usize,
    ) -> Result<Option<StudyReport>, StoreError> {
        self.run_persisted_until(store_dir, Kill::AfterIterations(kill_after_iterations))
    }

    /// [`Study::run_persisted`], but simulate a process death *inside*
    /// the parallel crawl phase: during campaign iteration `iteration`,
    /// the engine stops after `after_shards` shard completions and the
    /// run aborts with nothing of that iteration persisted (the WAL and
    /// checkpoint still describe the previous iteration boundary).
    /// Returns `Ok(None)` when the kill fired; `Ok(Some)` if the run
    /// finished before reaching it.
    pub fn run_persisted_with_shard_kill(
        &self,
        store_dir: &Path,
        iteration: usize,
        after_shards: usize,
    ) -> Result<Option<StudyReport>, StoreError> {
        self.run_persisted_until(store_dir, Kill::MidIteration(iteration, after_shards))
    }

    /// Resume an interrupted persisted study from `store_dir` on
    /// `workers` crawl-engine threads. The count need not match the
    /// interrupted run's — any combination converges on byte-identical
    /// artifacts.
    ///
    /// Recovery first (on the *ambient* telemetry recorder): the WAL is
    /// replayed, torn tails truncated, uncommitted records rolled back.
    /// Then the run is rebuilt exactly — world regenerated and stepped
    /// through the checkpointed evolution timestamps, virtual clock and
    /// fabric RNG seeked to their checkpointed positions, telemetry
    /// restored from its snapshot — and the campaign continues at the
    /// checkpointed iteration as if never interrupted. The economy
    /// scenario, if any, is the one the checkpoint names.
    pub fn resume_from_with_workers(
        config: StudyConfig,
        store_dir: &Path,
        workers: usize,
    ) -> Result<StudyReport, StoreError> {
        let (mut store, cp, wal, recovery) = CampaignStore::open_resume(store_dir)?;
        if cp.complete {
            return Err(StoreError::Invalid(
                "checkpoint marks the study complete; nothing to resume".into(),
            ));
        }
        if cp.seed != config.seed {
            return Err(StoreError::Invalid(format!(
                "checkpoint seed {} does not match config seed {}",
                cp.seed, config.seed
            )));
        }
        let mut study = Study::new(config).with_workers(workers);
        let config_digest = study.config_digest();
        if cp.config_digest != config_digest {
            return Err(StoreError::Invalid(format!(
                "checkpoint config digest {} does not match config digest {config_digest}",
                cp.config_digest
            )));
        }
        // The economy scenario rides in the checkpoint, not the config:
        // a resume must rebuild exactly the economy the interrupted run
        // was simulating.
        if !cp.economy_scenario.is_empty() {
            let scenario = EconomyConfig::scenario(&cp.economy_scenario);
            study.economy = Some(scenario.ok_or_else(|| {
                StoreError::Invalid(format!(
                    "checkpoint names unknown economy scenario {:?}",
                    cp.economy_scenario
                ))
            })?);
        }

        // Rebuild the simulation silently: deploy and world evolution were
        // already recorded before the interruption; re-recording them would
        // diverge from an uninterrupted run.
        let mut world;
        let mut run;
        {
            let quiet = telemetry::Recorder::disabled();
            let _gag = quiet.enter();
            world = study.world();
            run = study.start(&mut world, quiet);
            if run.t0_unix != cp.t0_unix {
                return Err(StoreError::Invalid(format!(
                    "checkpoint t0 {} does not match the rebuilt deploy's {}",
                    cp.t0_unix, run.t0_unix
                )));
            }
            // The economy replays the same schedule the live run walked:
            // primed at t0, advanced at every inter-iteration step.
            for &at in &cp.step_unixes {
                world.step_iteration(at);
                if let Some(sim) = run.economy.as_mut() {
                    sim.advance_to(&mut world, at);
                }
            }
            run.net.clock().advance_to(cp.clock_us);
            run.net.set_rng_word_position(cp.net_rng_words);
        }
        if let Some(sim) = run.economy.as_mut() {
            // Integrity gate: the deterministic rebuild must reproduce
            // the committed WAL stream event for event, or the store
            // does not describe this seed/scenario.
            if wal.economy_events.as_slice() != sim.events() {
                return Err(StoreError::Invalid(format!(
                    "economy event stream mismatch on resume: WAL committed {} events, \
                     rebuild produced {}",
                    wal.economy_events.len(),
                    sim.events().len()
                )));
            }
            sim.mark_all_persisted();
        }

        run.rec = telemetry::Recorder::from_snapshot(&cp.telemetry);
        run.rec.set_virtual_clock(Arc::new(run.net.clock().clone()));
        run.campaign_started_us = cp.campaign_started_us;
        run.requests_base = cp.requests_issued;
        run.recovery = Some(recovery);
        // The re-visit comparison basis is rebuilt the way the live run
        // built it: first parsed price per offer, then every committed
        // observation applied in stream order.
        let mut last_price: BTreeMap<String, f64> = BTreeMap::new();
        for offer in &wal.dataset.offers {
            if let Some(price) = offer.price_usd {
                last_price.insert(offer.offer_url.clone(), price);
            }
        }
        for obs in &wal.price_obs {
            last_price.insert(obs.offer_url.clone(), obs.price_usd);
        }
        run.progress = CampaignProgress {
            seen: wal.dataset.offers.iter().map(|o| o.offer_url.clone()).collect(),
            offers: wal.dataset.offers,
            snapshots: cp.snapshots,
            next_iteration: cp.next_iteration,
            step_unixes: cp.step_unixes,
            shard_cursors: cp.shard_cursors,
            price_obs: wal.price_obs,
            last_price,
        };
        run.complete(&mut world, Some(&mut store), Kill::Never).map(unkilled)
    }

    /// A fresh persisted run into a new store at `store_dir`, stopped at
    /// `kill`.
    fn run_persisted_until(
        &self,
        store_dir: &Path,
        kill: Kill,
    ) -> Result<Option<StudyReport>, StoreError> {
        let mut world = self.world();
        let mut store = CampaignStore::create(store_dir)?;
        self.run_fresh(&mut world, Some(&mut store), kill)
    }

    /// A fresh run on `world`, recording into the caller's scoped
    /// recorder or, when none is enabled, a new one.
    fn run_fresh(
        &self,
        world: &mut World,
        store: Option<&mut CampaignStore>,
        kill: Kill,
    ) -> Result<Option<StudyReport>, StoreError> {
        let current = telemetry::recorder();
        let rec = if current.is_enabled() { current } else { telemetry::Recorder::new() };
        self.start(world, rec).complete(world, store, kill)
    }

    /// Deploy `world` on a new fabric and prime the economy: the state a
    /// campaign starts from. `rec` is scoped meanwhile, so `SimNet::new`
    /// installs the virtual clock into it and the deploy stage lands in
    /// it.
    fn start(&self, world: &mut World, rec: telemetry::Recorder) -> Run<'_> {
        let _scope = rec.enter();
        let net = SimNet::new(self.config.seed);
        {
            let _stage = telemetry::span("deploy");
            world.deploy(&net);
        }
        // Provenance: a study always crawls the sim fabric; loopback
        // crawls install a transport on their own `Client`.
        rec.event("transport_mode", "sim");
        let t0_unix = net.clock().now_unix();

        // The economy primes right after deploy — bot sellers register
        // and the engines schedule their first actions at t0 — so the
        // first crawl pass already sees the operated market.
        let economy = self.economy.clone().map(|cfg| {
            let mut sim = EconomySim::new(self.config.seed, self.config.scale, cfg);
            sim.prime(world, t0_unix);
            sim
        });
        let campaign_started_us = rec.virtual_now();
        Run {
            study: self,
            net,
            rec,
            economy,
            progress: CampaignProgress::default(),
            t0_unix,
            campaign_started_us,
            requests_base: 0,
            recovery: None,
        }
    }

    /// The seeded world this study measures.
    fn world(&self) -> World {
        World::generate(WorldParams { seed: self.config.seed, scale: self.config.scale })
    }

    /// Campaign iterations (at least one).
    fn iterations(&self) -> usize {
        self.config.iterations.max(1)
    }

    /// Digest of the study configuration (a resume must match it).
    fn config_digest(&self) -> String {
        telemetry::digest64(&format!("{:?}", self.config))
    }
}

/// The report of a run started with [`Kill::Never`], which always
/// finishes.
fn unkilled(report: Option<StudyReport>) -> StudyReport {
    report.expect("no kill was requested") // conformance: allow(panic-policy) — only an injected kill stops a campaign early
}

/// Where an injected crash stops a persisted run.
#[derive(Clone, Copy)]
enum Kill {
    /// Nowhere: the run finishes.
    Never,
    /// Once this many iterations completed and checkpointed.
    AfterIterations(usize),
    /// During iteration `.0`, once `.1` of its shards completed.
    MidIteration(usize, usize),
}

/// One run's state: built by [`Study::start`] for a fresh run, or rebuilt
/// from a store by [`Study::resume_from_with_workers`]. Either way
/// [`Run::complete`] takes it from its next campaign iteration to the
/// finished report.
struct Run<'s> {
    /// The study this run executes.
    study: &'s Study,
    /// The fabric the world is deployed on.
    net: Arc<SimNet>,
    /// The study's recorder (restored from the checkpoint on resume).
    rec: telemetry::Recorder,
    /// The live economy, when one is attached.
    economy: Option<EconomySim>,
    /// Campaign state so far (restored from the WAL on resume).
    progress: CampaignProgress,
    /// Virtual unix time right after deploy (campaign_days basis).
    t0_unix: i64,
    /// Virtual µs when the `crawl_campaign` stage opened.
    campaign_started_us: u64,
    /// Requests issued before this process took over (resume only).
    requests_base: usize,
    /// What store recovery salvaged (resume only).
    recovery: Option<RecoveryReport>,
}

impl Run<'_> {
    /// The rest of the crawl campaign — checkpointing after every
    /// iteration when a store is attached — then [`Run::finish`].
    /// Returns `Ok(None)` when `kill` fired mid-campaign; the checkpoint
    /// and WAL are then on disk.
    fn complete(
        mut self,
        world: &mut World,
        mut store: Option<&mut CampaignStore>,
        kill: Kill,
    ) -> Result<Option<StudyReport>, StoreError> {
        let _scope = self.rec.enter();
        // Moved out while the campaign runs: its checkpoint closure
        // borrows the rest of the run.
        let mut progress = std::mem::take(&mut self.progress);
        let mut economy = self.economy.take();
        {
            // -- Module 2a: the public-marketplace crawl campaign. The
            //    stage opens at the campaign's original virtual start, so
            //    a resumed manifest reports the same stage.
            let _stage = self.rec.span_starting_at("crawl_campaign", self.campaign_started_us);
            let client =
                Client::new(&self.net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
            let mut campaign = CrawlCampaign::new(&client);
            campaign.workers = self.study.workers;
            if let Kill::MidIteration(iteration, shards) = kill {
                campaign.shard_kill = Some((iteration, shards));
            }
            campaign
                .run_resumable(
                    world,
                    self.study.iterations(),
                    &mut progress,
                    store.as_deref_mut(),
                    economy.as_mut(),
                    |progress, store| {
                        if let Some(s) = store {
                            s.write_checkpoint(&self.checkpoint(s, progress, false))?;
                        }
                        let next = progress.next_iteration;
                        Ok(!matches!(kill, Kill::AfterIterations(k) if next >= k))
                    },
                )
                .map_err(StoreError::Io)?;
        }
        if progress.next_iteration < self.study.iterations() {
            return Ok(None);
        }
        self.progress = progress;
        self.economy = economy;
        self.finish(world, store).map(Some)
    }

    /// A checkpoint capturing the run's entire resumable state.
    fn checkpoint(
        &self,
        store: &CampaignStore,
        progress: &CampaignProgress,
        complete: bool,
    ) -> CampaignCheckpoint {
        CampaignCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            seed: self.study.config.seed,
            config_digest: self.study.config_digest(),
            iterations_total: self.study.iterations(),
            next_iteration: progress.next_iteration,
            days_between: DAYS_BETWEEN,
            t0_unix: self.t0_unix,
            campaign_started_us: self.campaign_started_us,
            clock_us: self.net.clock().now_us(),
            net_rng_words: self.net.rng_word_position(),
            requests_issued: self.requests_base + self.net.request_count(),
            committed_records: store.total_records(),
            segment_max_bytes: store.segment_max_bytes(),
            step_unixes: progress.step_unixes.clone(),
            snapshots: progress.snapshots.clone(),
            shard_cursors: progress.shard_cursors.clone(),
            telemetry: self.rec.snapshot(),
            economy_scenario: self.study.economy_scenario().to_string(),
            complete,
        }
    }

    /// Everything after the crawl campaign: resolution, underground
    /// collection, moderation, the §8 re-query, the analyses, the
    /// manifest, and — on persisted runs — the final complete checkpoint.
    fn finish(
        mut self,
        world: &mut World,
        mut store: Option<&mut CampaignStore>,
    ) -> Result<StudyReport, StoreError> {
        let config = self.study.config;
        let net = &self.net;
        let mut dataset =
            Dataset { offers: std::mem::take(&mut self.progress.offers), ..Dataset::default() };
        let economy_events = self.economy.take().map(|s| s.events().to_vec()).unwrap_or_default();

        // -- Module 2b: profile metadata + timelines for visible accounts.
        let api_client = Client::new(net, "acctrade-pipeline/0.1");
        let resolver = ProfileResolver::new(&api_client);
        {
            let _stage = telemetry::span("resolve_profiles");
            let (profiles, posts) =
                resolver.resolve_offers_into(&dataset.offers, store.as_deref_mut())?;
            dataset.profiles = profiles;
            dataset.posts = posts;
        }

        // -- Module 2c: manual underground collection over Tor.
        {
            let _stage = telemetry::span("underground_collection");
            let directory = TorDirectory::default_consensus();
            let mut tor_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x70C0_11EC);
            // Every inspected market is visited — including the two that
            // turn out to sell nothing (the paper did the same; their
            // emptiness is itself a §4.2 finding).
            for forum in &world.forums {
                let cfg = forum.config();
                let operator = Client::new(net, "tor-browser/13")
                    .manual(config.seed ^ cfg.id as u64)
                    .via_tor(directory.build_circuit(&mut tor_rng));
                let collector =
                    UndergroundCollector::new(&operator, cfg.host.clone(), cfg.name);
                let (records, _stats) = collector.collect();
                for record in records {
                    if let Some(s) = store.as_deref_mut() {
                        s.append_underground(&record)?;
                    }
                    dataset.underground.push(record);
                }
            }
        }

        // -- Module 3: moderation acts during the window; the audit
        //    re-queries at the end.
        {
            let _stage = telemetry::span("moderation");
            net.clock().advance(20 * DAY);
            world.run_moderation(net.clock().now_unix());
        }
        let requery: Vec<ProfileRecord> = {
            let _stage = telemetry::span("efficacy_requery");
            let mut requery = Vec::with_capacity(dataset.profiles.len());
            for p in &dataset.profiles {
                let record = resolver
                    .resolve(Platform::parse(&p.platform).expect("known platform"), &p.handle); // conformance: allow(panic-policy) — dataset platforms come from Platform::name
                if let Some(s) = store.as_deref_mut() {
                    s.append_api_outcome(&ApiOutcomeRecord {
                        platform: record.platform.clone(),
                        handle: record.handle.clone(),
                        status: record.status,
                        at_unix: net.clock().now_unix(),
                    })?;
                }
                requery.push(record);
            }
            requery
        };

        // -- Analyses.
        let _stage = telemetry::span("analysis");
        let table1 = anatomy::table1(&dataset.offers);
        let mut visible_and_posts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for p in &dataset.profiles {
            visible_and_posts.entry(p.platform.clone()).or_default().0 += 1;
        }
        for p in &dataset.posts {
            visible_and_posts.entry(p.platform.clone()).or_default().1 += 1;
        }
        let table2 = anatomy::table2(&dataset.offers, &visible_and_posts);
        let anatomy_stats = anatomy::anatomy_stats(&dataset.offers);
        let listing_dynamics = dynamics::ListingDynamics::from_snapshots(&self.progress.snapshots);
        let table4 = setup::table4(&dataset.profiles);
        let creation = setup::creation_cdf(&dataset.profiles);
        let setup_stats = setup::setup_stats(&dataset.profiles);
        let scam = scamposts::analyze(&dataset.posts, config.scam);
        let network_analysis = network::analyze(&dataset.profiles);
        let efficacy_analysis = efficacy::analyze(&requery);
        let underground_analysis = underground::analyze(&dataset.underground);
        let campaign_days = (net.clock().now_unix() - self.t0_unix) as f64 / 86_400.0;
        let economy_analysis = match &self.study.economy {
            Some(cfg) => Some(
                crate::economy::analyze(
                    cfg.name,
                    &economy_events,
                    world,
                    self.t0_unix,
                    campaign_days,
                )
                .map_err(StoreError::Invalid)?,
            ),
            None => None,
        };
        drop(_stage); // close the analysis span before exporting stages

        let manifest = self.rec.manifest("study", config.seed, &self.study.config_digest());

        // Persisted runs end with a durable sync and a `complete`
        // checkpoint, so a finished store is never mistaken for an
        // interrupted one.
        if let Some(s) = store {
            s.sync()?;
            s.write_checkpoint(&self.checkpoint(s, &self.progress, true))?;
        }

        Ok(StudyReport {
            config,
            dataset,
            table1,
            table2,
            anatomy: anatomy_stats,
            dynamics: listing_dynamics,
            table4,
            creation,
            setup: setup_stats,
            scam,
            network: network_analysis,
            efficacy: efficacy_analysis,
            underground: underground_analysis,
            requests_issued: self.requests_base + net.request_count(),
            campaign_days,
            telemetry: manifest,
            recovery: self.recovery,
            economy: economy_analysis,
            economy_events,
            price_observations: self.progress.price_obs.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared small-study run (building it is the expensive part).
    fn run_small() -> StudyReport {
        Study::new(StudyConfig::small(1234)).run()
    }

    #[test]
    fn small_study_end_to_end() {
        let report = run_small();

        // Table 1: all marketplaces present, counts at ~2% scale.
        assert_eq!(report.table1.len(), 11);
        let total: usize = report.table1.iter().map(|r| r.accounts).sum();
        assert!((500..1_100).contains(&total), "total offers {total}");
        let hidden = report.table1.iter().filter(|r| r.sellers.is_none()).count();
        assert_eq!(hidden, 5, "five marketplaces hide sellers");

        // Table 2: visible ~29% of all.
        let vis: usize = report.table2.iter().map(|r| r.visible_accounts).sum();
        let all: usize = report.table2.iter().map(|r| r.all_accounts).sum();
        let frac = vis as f64 / all as f64;
        assert!((0.2..0.45).contains(&frac), "visible fraction {frac}");

        // Figure 2 shape.
        assert!(report.dynamics.cumulative_monotone());
        assert!(report.dynamics.final_gap() > 0);

        // Figure 4 anchors.
        assert!((0.15..0.45).contains(&report.creation.pre_2020));

        // Table 5/6: scams found.
        assert!(report.scam.total_scam_posts > 0);
        assert!(report.scam.scam_cluster_count >= 3);

        // Table 7: some clusters, low overall percentage.
        assert!(report.network.all_row.clusters > 0);
        assert!(report.network.all_row.clustered_pct < 25.0);

        // Table 8: overall efficacy in the paper's band.
        let eff = report.efficacy.all_row.blocking_efficacy_pct;
        assert!((10.0..32.0).contains(&eff), "efficacy {eff}");

        // Underground: 65 posts collected minus caps.
        assert!(report.underground.total_posts >= 40);
        assert!(!report.underground.reuse_pairs.is_empty());

        // The report renders every table.
        let text = report.render_all();
        for needle in [
            "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
            "Table 8", "Table 9", "Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
            "Section 4.1", "Section 4.2", "Section 5", "Appendix A",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }

        // The campaign consumed virtual time and issued real requests.
        assert!(report.campaign_days > 30.0);
        assert!(report.requests_issued > 1_000);

        // The run manifest is well-formed and carries the provenance the
        // paper's credibility rests on.
        assert!(report.telemetry.validate().is_ok());
        let stage_names: Vec<&str> =
            report.telemetry.stages.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "deploy",
            "crawl_campaign",
            "resolve_profiles",
            "underground_collection",
            "moderation",
            "efficacy_requery",
            "analysis",
        ] {
            assert!(stage_names.contains(&stage), "missing stage {stage}");
        }
        assert_eq!(report.telemetry.crawl.len(), 11, "one crawl row per marketplace");
        assert!(!report.telemetry.api.is_empty(), "API outcome tallies recorded");
        let manifest_pages: u64 = report.telemetry.crawl.iter().map(|c| c.pages).sum();
        assert!(manifest_pages > 0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::new(StudyConfig::small(77)).run();
        let b = Study::new(StudyConfig::small(77)).run();
        assert_eq!(a.dataset.offers.len(), b.dataset.offers.len());
        assert_eq!(a.scam.total_scam_posts, b.scam.total_scam_posts);
        assert_eq!(
            a.efficacy.all_row.inactive_accounts,
            b.efficacy.all_row.inactive_accounts
        );
        assert_eq!(a.render_all(), b.render_all());
    }
}
