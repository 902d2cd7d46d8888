//! Quickstart: generate a small world, crawl one marketplace, resolve its
//! visible accounts, print the first numbers, and export the run's
//! telemetry manifest to `target/TELEMETRY_report.json`.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! With `--serve <addr>` the example just binds an `acctrade-httpd`
//! server mounting the seeded sites and serves them until killed:
//!
//! ```sh
//! cargo run --release --example quickstart -- --serve 127.0.0.1:8080
//! ```
//!
//! With `--campaign` the example instead runs a small *persisted* study
//! against a durable `acctrade-store` campaign store, which survives a
//! kill-and-resume cycle:
//!
//! ```sh
//! # clean persisted run
//! cargo run --release --example quickstart -- --campaign \
//!     --store-dir target/store/clean --out target/campaign-clean
//! # crash after 2 iterations (exits with code 3) …
//! cargo run --release --example quickstart -- --campaign \
//!     --store-dir target/store/crash --kill-at 2
//! # … resume, byte-identical to the clean run
//! cargo run --release --example quickstart -- --campaign \
//!     --store-dir target/store/crash --resume --out target/campaign-crash
//! ```
//!
//! `--scenario <name>` attaches the live economy to a campaign run
//! (`escrow-basic`, `price-shocks`, `bot-inventory`, or `all`): escrow
//! order flow, price trajectories, and bot-operated inventory run
//! between crawl passes, and the run additionally writes
//! `ECONOMY_report.json` (the E1–E3 analysis) and `ECONOMY_events.jsonl`
//! (the replayable event stream) into `--out`. It composes with
//! `--kill-at`/`--resume` — a resumed economy is rebuilt from the
//! checkpoint and verified against the WAL stream:
//!
//! ```sh
//! cargo run --release --example quickstart -- --campaign \
//!     --scenario all --store-dir target/store/econ --out target/econ
//! ```
//!
//! `--ops <addr>` mounts the live ops plane on a campaign run: an
//! `acctrade-httpd` server binds `addr` with the `ops.acctrade.local`
//! virtual host (`/metrics`, `/healthz`, `/statz`, `/tracez`), the
//! campaign recorder and its trace ring are attached, and a scraper
//! thread polls `/metrics` over real loopback sockets while the study
//! runs. The final scrape is written to `--out`
//! (`OPS_metrics.prom`, `OPS_statz.json`, `OPS_tracez.json`,
//! `TRACE_wall.json`) and its counters are reconciled against the
//! study's own manifest. `--trace-out <file>` additionally exports the
//! deterministic virtual-time Chrome trace (a pure function of the
//! manifest — byte-identical across same-seed runs and worker counts):
//!
//! ```sh
//! cargo run --release --example quickstart -- --campaign \
//!     --ops 127.0.0.1:0 --trace-out target/ops/TRACE_report.json \
//!     --store-dir target/store/ops --out target/ops
//! # while it runs (or against --serve, which also mounts the plane):
//! curl -H 'host: ops.acctrade.local' http://127.0.0.1:<port>/metrics
//! ```
//!
//! Exit codes: `0` success; `2` bad CLI usage (unknown scenario, or a
//! resume whose store ran a different scenario); `3` an injected
//! `--kill-at` crash fired (the store is left resumable); `5` economy
//! payment reconciliation failure (a settled order used a method its
//! marketplace does not list); `6` ops reconciliation failure (the final
//! `/metrics` scrape disagrees with `TELEMETRY_report.json`).
//!
//! `cargo test` runs this file's own tests, which call [`run`] in-process
//! and check these exit codes and the artifacts behind them.

// conformance: atomics(relaxed) — demo counter, no cross-thread protocol

use acctrade::core::{Study, StudyConfig};
use acctrade::crawler::{MarketplaceCrawler, ProfileResolver};
use acctrade::httpd::{
    HostTable, HttpServer, LoopbackTransport, OpsPlane, ServerConfig, TimeSource, OPS_HOST,
};
use acctrade::market::config::MarketplaceId;
use acctrade::net::http::Request;
use acctrade::net::transport::Transport;
use acctrade::net::url::Url;
use acctrade::net::{Client, SimNet};
use acctrade::workload::world::{World, WorldParams};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The `--flag value` lookup for the campaign mode's tiny CLI.
fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

/// One GET against the ops virtual host over real loopback sockets —
/// the in-process equivalent of
/// `curl -H 'host: ops.acctrade.local' http://<addr><path>`.
fn ops_get(transport: &LoopbackTransport, path: &str) -> Option<String> {
    let url = Url::parse(&format!("http://{OPS_HOST}{path}")).ok()?;
    let resp = transport.send(&Request::get(url)).ok()?;
    (resp.status.code() == 200).then(|| resp.text())
}

/// The live ops plane attached to a campaign run: a bound httpd server
/// carrying only the `ops.acctrade.local` vhost, plus a scraper thread
/// polling `/metrics` mid-run over real sockets.
struct OpsCampaign {
    server: HttpServer,
    plane: OpsPlane,
    stop: Arc<AtomicBool>,
    scraper: std::thread::JoinHandle<usize>,
}

impl OpsCampaign {
    /// Bind the ops server, wire the campaign recorder and trace ring
    /// into it, prove `/healthz` answers, and start the scraper.
    fn start(addr: &str, rec: &acctrade::telemetry::Recorder) -> OpsCampaign {
        let plane = OpsPlane::new();
        plane.attach_campaign(rec.clone());
        rec.set_trace_sink(plane.tracer().clone());
        let server = HttpServer::bind(
            addr,
            HostTable::new(),
            ServerConfig {
                workers: 2,
                time: TimeSource::Wall,
                ops: Some(plane.clone()),
                ..ServerConfig::default()
            },
        )
        .expect("bind --ops address");
        let transport = LoopbackTransport::new(server.addr());
        let health = ops_get(&transport, "/healthz").expect("ops /healthz must answer");
        assert!(health.starts_with("ok"), "unexpected /healthz body");
        eprintln!("campaign: ops plane live on http://{} (host: {OPS_HOST})", server.addr());

        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if ops_get(&transport, "/metrics").is_some() {
                        scrapes += 1;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                scrapes
            })
        };
        OpsCampaign { server, plane, stop, scraper }
    }

    /// Stop scraping, take the final scrape, write the `OPS_*` (and
    /// wall-trace) artifacts into `out_dir`, and reconcile the scraped
    /// `/metrics` counters against the finished manifest. Returns the
    /// reconciliation mismatches (empty = reconciled).
    fn finish(
        self,
        out_dir: &Path,
        manifest: &acctrade::telemetry::RunManifest,
    ) -> Vec<String> {
        self.stop.store(true, Ordering::Relaxed);
        let mid_scrapes = self.scraper.join().expect("join ops scraper");

        let transport = LoopbackTransport::new(self.server.addr());
        let metrics = ops_get(&transport, "/metrics").expect("final /metrics scrape");
        let statz = ops_get(&transport, "/statz").expect("final /statz scrape");
        let tracez = ops_get(&transport, "/tracez").expect("final /tracez scrape");
        let wall_trace = self.plane.tracer().chrome_json().render_pretty() + "\n";
        self.server.shutdown();

        std::fs::write(out_dir.join("OPS_metrics.prom"), &metrics).expect("write ops metrics");
        std::fs::write(out_dir.join("OPS_statz.json"), &statz).expect("write ops statz");
        std::fs::write(out_dir.join("OPS_tracez.json"), &tracez).expect("write ops tracez");
        std::fs::write(out_dir.join("TRACE_wall.json"), wall_trace)
            .expect("write wall trace");
        eprintln!(
            "campaign: ops plane scraped {mid_scrapes} times mid-run; final scrape in {}",
            out_dir.display()
        );
        acctrade::telemetry::reconcile_metrics(&metrics, manifest)
    }
}

/// The fixed configuration every campaign run shares, so clean and
/// crashed-then-resumed runs are comparable byte for byte.
fn campaign_config() -> StudyConfig {
    StudyConfig { seed: 2024, scale: 0.01, iterations: 4, scam: Default::default() }
}

/// `--campaign`: a persisted (and optionally crashed / resumed) study.
/// Returns the process exit code.
fn campaign_mode(args: &[String]) -> i32 {
    let store_dir = arg_value(args, "--store-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| acctrade::output::store_dir("quickstart"));
    let out_dir = arg_value(args, "--out").map(PathBuf::from).unwrap_or_else(acctrade::output::dir);
    let config = campaign_config();
    // Crawl-engine worker threads. Any value yields byte-identical
    // artifacts; it only changes wall-clock time.
    let workers: usize = arg_value(args, "--workers")
        .map(|w| w.parse().expect("--workers takes a thread count"))
        .unwrap_or(1);
    // The optional live economy: orders, repricing, and bot inventory
    // running between crawl passes.
    let scenario = arg_value(args, "--scenario");
    let economy =
        scenario.map(|name| acctrade::economy::EconomyConfig::scenario(name).ok_or(name));
    let economy = match economy.transpose() {
        Ok(economy) => economy,
        Err(name) => {
            eprintln!(
                "unknown --scenario {name:?} (expected one of {:?})",
                acctrade::economy::SCENARIO_NAMES
            );
            return 2;
        }
    };
    let build_study = || {
        let mut study = Study::new(config).with_workers(workers);
        if let Some(cfg) = economy.clone() {
            study = study.with_economy(cfg);
        }
        study
    };

    let rec = acctrade::telemetry::Recorder::new();
    let _scope = rec.enter();

    // The live ops plane: a real loopback server exposing this run's
    // recorder and trace ring while the study executes.
    let ops = arg_value(args, "--ops").map(|addr| OpsCampaign::start(addr, &rec));
    let trace_out = arg_value(args, "--trace-out").map(PathBuf::from);

    if let Some(k) = arg_value(args, "--kill-at") {
        let k: usize = k.parse().expect("--kill-at takes an iteration count");
        eprintln!("campaign: running with an injected crash after {k} iterations ...");
        let outcome = build_study()
            .run_persisted_with_kill(&store_dir, k)
            .expect("persisted run with kill");
        if outcome.is_none() {
            eprintln!(
                "campaign: killed after {k} iterations; interrupted store left at {}",
                store_dir.display()
            );
            return 3;
        }
        eprintln!("campaign: kill point {k} was never reached; study completed");
        return 0;
    }

    let report = if args.iter().any(|a| a == "--resume") {
        eprintln!("campaign: resuming interrupted store at {} ...", store_dir.display());
        let report =
            Study::resume_from_with_workers(config, &store_dir, workers).expect("resume");
        let recovery = report.recovery.as_ref().expect("resumed runs report recovery");
        eprintln!("campaign: {}", recovery.describe());
        // The resumed scenario comes from the checkpoint; a mismatched
        // --scenario on the resume command line is operator error.
        if let Some(requested) = scenario {
            let resumed = report.economy.as_ref().map(|e| e.scenario.as_str()).unwrap_or("");
            if resumed != requested {
                eprintln!(
                    "campaign: store ran scenario {resumed:?}, but --scenario {requested:?} \
                     was requested"
                );
                return 2;
            }
        }
        report
    } else {
        eprintln!("campaign: clean persisted run into {} ...", store_dir.display());
        build_study().run_persisted(&store_dir).expect("persisted run")
    };

    report.telemetry.validate().expect("campaign manifest must validate");
    std::fs::create_dir_all(&out_dir).expect("create --out directory");
    let dataset_path = out_dir.join("dataset.json");
    std::fs::write(&dataset_path, report.dataset.to_json()).expect("write dataset");
    let manifest_path = out_dir.join("TELEMETRY_deterministic.txt");
    std::fs::write(&manifest_path, report.telemetry.deterministic_string())
        .expect("write deterministic manifest");
    eprintln!(
        "campaign: {} offers, {} profiles, {} posts over {:.0} virtual days",
        report.dataset.offers.len(),
        report.dataset.profiles.len(),
        report.dataset.posts.len(),
        report.campaign_days,
    );
    eprintln!(
        "campaign: dataset written to {}; deterministic manifest to {}",
        dataset_path.display(),
        manifest_path.display()
    );

    // The deterministic virtual-time Chrome trace: a pure function of
    // the manifest, byte-identical across same-seed runs and workers.
    if let Some(path) = trace_out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create --trace-out directory");
        }
        let trace = acctrade::telemetry::virtual_trace(&report.telemetry);
        std::fs::write(&path, trace.render_pretty() + "\n").expect("write virtual trace");
        eprintln!("campaign: virtual trace written to {}", path.display());
    }

    // Final ops scrape + reconciliation: the live `/metrics` view must
    // agree with the manifest the study just exported.
    if let Some(ops) = ops {
        let mismatches = ops.finish(&out_dir, &report.telemetry);
        if !mismatches.is_empty() {
            eprintln!(
                "campaign: ops reconciliation FAILED — /metrics disagrees with the manifest:"
            );
            for line in &mismatches {
                eprintln!("  {line}");
            }
            return 6;
        }
        eprintln!(
            "campaign: ops reconciliation OK — {} manifest counters match the final scrape",
            report.telemetry.counters.len()
        );
    }

    if let Some(analysis) = &report.economy {
        let report_path = out_dir.join("ECONOMY_report.json");
        std::fs::write(&report_path, analysis.to_json_pretty()).expect("write economy report");
        let mut lines = String::new();
        for event in &report.economy_events {
            lines.push_str(&event.to_json_line());
            lines.push('\n');
        }
        let events_path = out_dir.join("ECONOMY_events.jsonl");
        std::fs::write(&events_path, lines).expect("write economy events");
        eprintln!(
            "campaign: economy scenario {:?} — {} events ({} orders opened, {} exit scams, \
             {} price observations); report at {}, stream at {}",
            analysis.scenario,
            analysis.events,
            analysis.funnel_all.opened,
            analysis.funnel_all.exit_scams,
            report.price_observations,
            report_path.display(),
            events_path.display()
        );
        if !analysis.reconciliation_ok {
            eprintln!(
                "campaign: payment reconciliation FAILED — a settled order used a method \
                 its marketplace does not list"
            );
            return 5;
        }
        eprintln!("campaign: payment reconciliation OK");
    }
    0
}

/// `--serve <addr>`: mount the seeded world on a real server and serve
/// until killed (wall-clock request contexts — demo mode, not parity).
fn serve_mode(addr: &str) -> ! {
    let world = World::generate(WorldParams { seed: 2024, scale: 0.05 });
    let net = SimNet::new(2024);
    world.deploy(&net);
    let hosts = HostTable::from_sim(&net);
    let mut names = hosts.hosts();
    let server = HttpServer::bind(
        addr,
        hosts,
        ServerConfig {
            workers: 4,
            time: TimeSource::Wall,
            ops: Some(OpsPlane::new()),
            ..ServerConfig::default()
        },
    )
    .expect("bind --serve address");
    names.push(OPS_HOST.to_string());
    eprintln!("serving the seeded world on http://{}", server.addr());
    eprintln!("virtual hosts (send a matching `host:` header):");
    for host in names {
        eprintln!("  {host}");
    }
    eprintln!("press ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Run the quickstart CLI on `args` (without the program name) and
/// return the process exit code.
fn run(args: &[String]) -> i32 {
    // `--scenario` implies a campaign: the economy only runs between
    // the passes of a full crawl campaign.
    if args.iter().any(|a| a == "--campaign") || arg_value(args, "--scenario").is_some() {
        return campaign_mode(args);
    }
    if let Some(addr) = arg_value(args, "--serve") {
        serve_mode(addr);
    }
    // Scope a telemetry recorder around the whole run: every instrumented
    // crate below records into it, and we export the manifest at the end.
    let rec = acctrade::telemetry::Recorder::new();
    let _scope = rec.enter();

    // A deterministic miniature of the measured ecosystem (5% of the
    // paper's scale).
    let world = World::generate(WorldParams { seed: 2024, scale: 0.05 });
    let net = SimNet::new(2024);
    {
        let _stage = acctrade::telemetry::span("deploy");
        world.deploy(&net);
    }

    // Crawl one marketplace, §3.2-style: storefront → listing pages →
    // every offer, politely.
    let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
    let market = MarketplaceId::Accsmarket;
    let mut crawler = MarketplaceCrawler::new(&client, market);
    let (offers, stats) = {
        let _stage = acctrade::telemetry::span("crawl");
        crawler.crawl(0)
    };
    println!("crawled {}:", market.name());
    println!("  pages fetched:    {}", stats.pages_fetched);
    println!("  offers collected: {}", stats.offers_collected);

    let visible: Vec<_> = offers.iter().filter(|o| o.is_visible()).collect();
    println!(
        "  visible profiles: {} ({:.0}%)",
        visible.len(),
        100.0 * visible.len() as f64 / offers.len().max(1) as f64
    );

    let prices: Vec<f64> = offers.iter().filter_map(|o| o.price_usd).collect();
    let total: f64 = prices.iter().sum();
    println!("  advertised value: ${total:.0}");

    // Resolve a few visible accounts against the platform APIs.
    let _stage = acctrade::telemetry::span("resolve");
    let resolver = ProfileResolver::new(&client);
    println!("\nfirst visible accounts:");
    for offer in visible.iter().take(5) {
        let handle = offer.handle.as_deref().expect("visible offers carry handles");
        let platform = offer
            .platform
            .as_deref()
            .and_then(acctrade::social::Platform::parse)
            .expect("known platform");
        let profile = resolver.resolve(platform, handle);
        println!(
            "  @{handle} on {} -> {:?}, {} followers",
            platform.name(),
            profile.status,
            profile.followers.unwrap_or(0)
        );
    }

    println!(
        "\nvirtual time elapsed: {:.1} hours across {} requests",
        net.clock().days_into_collection() * 24.0,
        net.request_count()
    );

    // Export the provenance manifest.
    drop(_stage);
    let manifest = rec.manifest("quickstart", 2024, &acctrade::telemetry::digest64("quickstart"));
    manifest.validate().expect("quickstart manifest must validate");
    let path = acctrade::output::artifact(acctrade::telemetry::REPORT_FILE);
    std::fs::write(&path, manifest.to_json_pretty()).expect("write manifest");
    println!("telemetry manifest written to {}", path.display());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::run;
    use acctrade::telemetry::{self, RunManifest};
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;

    /// A fresh scratch directory, as the string the CLI takes.
    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir()
            .join(format!("acctrade-quickstart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn read(dir: &Path, name: &str) -> String {
        let path = dir.join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    /// The clean `--ops` campaign: its exit code and `--out` directory.
    /// Run once and shared, because the kill/resume test must reproduce
    /// its artifacts byte for byte.
    fn clean_ops_run() -> &'static (i32, PathBuf) {
        static RUN: OnceLock<(i32, PathBuf)> = OnceLock::new();
        RUN.get_or_init(|| {
            let dir = scratch("ops");
            let (store, out) = (format!("{dir}/store"), format!("{dir}/out"));
            let trace = format!("{out}/TRACE_report.json");
            let code = run(&argv(&[
                "--campaign", "--ops", "127.0.0.1:0", "--trace-out", &trace,
                "--store-dir", &store, "--out", &out,
            ]));
            (code, PathBuf::from(out))
        })
    }

    #[test]
    fn default_run_exports_a_valid_manifest() {
        let path = acctrade::output::artifact(telemetry::REPORT_FILE);
        let _ = std::fs::remove_file(&path);
        assert_eq!(run(&[]), 0);
        let text = std::fs::read_to_string(&path).expect("manifest written");
        let manifest = RunManifest::parse(&text).expect("manifest parses");
        manifest.validate().expect("manifest validates");
    }

    #[test]
    fn ops_campaign_reconciles_and_writes_its_artifacts() {
        let (code, out) = clean_ops_run();
        assert_eq!(*code, 0, "the final /metrics scrape must reconcile with the manifest");
        let metrics = read(out, "OPS_metrics.prom");
        assert!(metrics.contains("source=\"campaign\""), "campaign samples scraped");
        assert!(metrics.contains("source=\"server\""), "server samples scraped");
        for name in ["OPS_statz.json", "OPS_tracez.json"] {
            assert!(!read(out, name).is_empty(), "{name} is empty");
        }
        for name in ["TRACE_wall.json", "TRACE_report.json"] {
            telemetry::validate_trace(&read(out, name))
                .unwrap_or_else(|e| panic!("{name} is not a valid trace: {e}"));
        }
    }

    #[test]
    fn killed_campaign_resumes_byte_identical_to_the_clean_run() {
        let dir = scratch("crash");
        let (store, out) = (format!("{dir}/store"), format!("{dir}/out"));
        let trace = format!("{out}/TRACE_report.json");
        let killed = run(&argv(&["--campaign", "--store-dir", &store, "--kill-at", "2"]));
        assert_eq!(killed, 3, "the injected kill must fire");
        let resumed = run(&argv(&[
            "--campaign", "--store-dir", &store, "--resume", "--workers", "4",
            "--trace-out", &trace, "--out", &out,
        ]));
        assert_eq!(resumed, 0);
        let (_, clean) = clean_ops_run();
        for name in ["dataset.json", "TELEMETRY_deterministic.txt", "TRACE_report.json"] {
            assert!(read(clean, name) == read(Path::new(&out), name), "{name} differs after resume");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_scenario_is_a_usage_error() {
        assert_eq!(run(&argv(&["--scenario", "bogus"])), 2);
    }
}
