//! `resume-economy`: a persisted study with the `all` economy scenario,
//! killed after iteration `kill_after` into a fresh on-disk store, then
//! resumed. The first half writes (WAL appends, fsync, per-iteration
//! checkpoints carrying a telemetry snapshot); the resume reads (WAL
//! replay, recovery, the economy rebuild integrity gate).

use crate::layers::{self, Layers};
use crate::{digest, sys, timed, Digest, Opts, Rep};
use acctrade_core::study::{Study, StudyReport};
use acctrade_crawler::CampaignStore;
use economy::EconomyConfig;
use std::path::PathBuf;
use telemetry::Recorder;

const SCENARIO: &str = "all";

fn study(opts: &Opts) -> Study {
    let scenario = EconomyConfig::scenario(SCENARIO).expect("the all scenario exists"); // a static scenario name
    Study::new(crate::paper::config(opts))
        .with_workers(opts.plan.workers)
        .with_economy(scenario)
}

fn store_dir(opts: &Opts, tag: &str) -> PathBuf {
    let dir = opts
        .work_dir
        .join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn digests(report: &StudyReport) -> Vec<Digest> {
    vec![
        ("dataset", digest(&report.dataset.to_json())),
        ("manifest", digest(&report.telemetry.deterministic_string())),
        ("economy", economy::stream_digest(&report.economy_events)),
        ("report", digest(&report.render_all())),
    ]
}

pub(crate) fn execute(opts: &Opts, traced: bool) -> Rep {
    let plan = &opts.plan;
    // Set-up is the seed world's generation and deploy; the pipeline
    // regenerates its own world inside the window, as a user's would.
    let fresh = layers::fresh_world(opts);
    let mut samples = vec![(fresh.generate_s, fresh.deploy_s)];
    drop(fresh);
    let dir = store_dir(opts, "run");

    let kill_rec = Recorder::new();
    let scope = kill_rec.enter();
    let before = sys::usage();
    let (killed, kill_s) = timed(|| study(opts).run_persisted_with_kill(&dir, plan.kill_after));
    let kill_cpu = sys::usage().cpu_s - before.cpu_s;
    drop(scope);

    let mut problems = Vec::new();
    match &killed {
        Ok(None) => {}
        Ok(Some(_)) => problems.push("the kill never fired".into()),
        Err(e) => problems.push(format!("killed run failed: {e}")),
    }
    // Traced runs time the store's read path on the killed store before
    // the resume appends to it (outside both timed windows).
    let replayed = traced.then(|| timed(|| CampaignStore::load(&dir)));

    let rec = Recorder::new();
    let scope = rec.enter();
    let before = sys::usage();
    let (resumed, resume_s) =
        timed(|| Study::resume_from_with_workers(crate::paper::config(opts), &dir, plan.workers));
    let cpu_s = kill_cpu + sys::usage().cpu_s - before.cpu_s;
    drop(scope);
    let study_s = kill_s + resume_s;
    let t0_unix = CampaignStore::read_checkpoint(&dir)
        .ok()
        .flatten()
        .map(|cp| cp.t0_unix);
    let _ = std::fs::remove_dir_all(&dir);

    let report = match resumed {
        Ok(report) => report,
        Err(e) => {
            problems.push(format!("resume failed: {e}"));
            let ops = crate::Ops {
                attempted: 1,
                failed: 1,
            };
            let layers = Layers::default();
            return Rep {
                study_s,
                cpu_s,
                ops,
                digests: Vec::new(),
                problems,
                layers,
            };
        }
    };
    problems.extend(crate::paper::checks(&report));
    if report.recovery.is_none() {
        problems.push("the resumed report carries no recovery".into());
    }
    if report.economy_events.is_empty() {
        problems.push("the economy emitted no events".into());
    }

    let mut layers = Layers::default();
    if traced {
        let mut replay = layers::fresh_world(opts);
        samples.push((replay.generate_s, replay.deploy_s));
        layers::setup_layers(&mut layers, &samples);

        // Stages of both halves; the resumed manifest also carries the
        // killed run's restored stages, counted once.
        let kill_stages = kill_rec
            .manifest("study", opts.seed, "0000000000000000")
            .stages;
        let mut stages = kill_stages.clone();
        stages.extend(
            report
                .telemetry
                .stages
                .iter()
                .filter(|s| !kill_stages.contains(s))
                .cloned(),
        );
        let staged = layers.stages(&stages);

        match replayed {
            Some((Ok((_, recovery)), s)) => {
                let replay = (s, recovery.records_replayed, recovery.bytes_replayed);
                let append_dir = store_dir(opts, "append");
                let events = &report.economy_events;
                if let Err(e) = layers::store_layers(
                    &mut layers,
                    replay,
                    &report.dataset,
                    events,
                    plan.iterations,
                    &append_dir,
                ) {
                    problems.push(e);
                }
            }
            Some((Err(e), _)) => problems.push(format!("store load failed: {e}")),
            None => {}
        }
        // In the window but outside any stage: both halves generate the
        // world, the resume redeploys it and recovers the store.
        let setup_in_window =
            2.0 * layers.get("workload.generate_s") + layers.get("market.deploy_s");
        layers.set(
            "unattributed_s",
            study_s - staged - setup_in_window - layers.get("store.replay_s"),
        );
        layers.check_unattributed = true;

        layers.manifest_counts(&report.telemetry);
        let crawl_s = layers.get("stage.crawl_campaign_s");
        layers.set("crawler.pages_per_s", layers.get("crawler.pages") / crawl_s);
        layers::replay_layers(
            &mut layers,
            &replay,
            &report.dataset.offers,
            plan.replay_offers,
        );
        if let Err(e) = layers::text_layers(
            &mut layers,
            &report.dataset.posts,
            report.config.scam,
            opts.plan.rounds,
        ) {
            problems.push(e);
        }
        layers::core_layers(&mut layers, &report.dataset);
        if let Some(t0) = t0_unix {
            let (analysis, s) = timed(|| {
                acctrade_core::economy::analyze(
                    SCENARIO,
                    &report.economy_events,
                    &replay.world,
                    t0,
                    report.campaign_days,
                )
            });
            if let Err(e) = analysis {
                problems.push(format!("economy analysis failed: {e}"));
            }
            layers.set("core.economy_s", s);
        }
        layers.set("economy.events", report.economy_events.len() as f64);
        // The killed run's recorder is the one its checkpoints snapshot
        // (the resume records into a recorder restored from them).
        layers::recorder_layers(&mut layers, &kill_rec, opts.seed);
        layers::telemetry_cost_layers(&mut layers, &mut replay, opts);
        layers::dataset_layers(&mut layers, &report.dataset);
    }
    Rep {
        study_s,
        cpu_s,
        ops: layers::manifest_ops(&report.telemetry),
        digests: digests(&report),
        problems,
        layers,
    }
}

/// An uninterrupted persisted run of the same seed and scenario.
pub(crate) fn reference(opts: &Opts) -> Vec<Digest> {
    let dir = store_dir(opts, "reference");
    let rec = Recorder::new();
    let scope = rec.enter();
    let report = study(opts).run_persisted(&dir);
    drop(scope);
    let _ = std::fs::remove_dir_all(&dir);
    match report {
        Ok(report) => digests(&report),
        Err(e) => vec![("dataset", format!("reference-run-failed:{e}"))],
    }
}
