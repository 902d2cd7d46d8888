//! `paper-study`: `Study::run_on`, the whole paper pipeline, on the sim
//! fabric, with no store and no economy. The crawl (fabric dispatch, market render,
//! HTML parse, extraction) and the NLP analysis do most of the work.

use crate::layers::{self, Layers, STAGES};
use crate::{digest, sys, timed, Opts, Rep};
use acctrade_core::study::{Study, StudyConfig, StudyReport};
use telemetry::Recorder;

pub(crate) fn config(opts: &Opts) -> StudyConfig {
    StudyConfig {
        seed: opts.seed,
        scale: opts.plan.scale,
        iterations: opts.plan.iterations,
        scam: Default::default(),
    }
}

pub(crate) fn execute(opts: &Opts, traced: bool) -> Rep {
    let mut fresh = layers::fresh_world(opts);
    let mut samples = vec![(fresh.generate_s, fresh.deploy_s)];

    let rec = Recorder::new();
    let scope = rec.enter();
    let before = sys::usage();
    let (report, study_s) = timed(|| {
        Study::new(config(opts))
            .with_workers(opts.plan.workers)
            .run_on(&mut fresh.world)
    });
    let cpu_s = sys::usage().cpu_s - before.cpu_s;
    drop(scope);
    drop(fresh);

    let mut problems = checks(&report);
    let digests = vec![
        ("dataset", digest(&report.dataset.to_json())),
        ("report", digest(&report.render_all())),
        ("manifest", digest(&report.telemetry.deterministic_string())),
    ];
    let mut layers = Layers::default();
    if traced {
        let mut replay = layers::fresh_world(opts);
        samples.push((replay.generate_s, replay.deploy_s));
        layers::setup_layers(&mut layers, &samples);
        let staged = layers.stages(&report.telemetry.stages);
        layers.set("unattributed_s", study_s - staged);
        layers.check_unattributed = true;
        layers.manifest_counts(&report.telemetry);
        let crawl_s = layers.get("stage.crawl_campaign_s");
        layers.set("crawler.pages_per_s", layers.get("crawler.pages") / crawl_s);
        layers::replay_layers(
            &mut layers,
            &replay,
            &report.dataset.offers,
            opts.plan.replay_offers,
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
        layers::recorder_layers(&mut layers, &rec, opts.seed);
        layers::telemetry_cost_layers(&mut layers, &mut replay, opts);
        layers::dataset_layers(&mut layers, &report.dataset);
    }
    Rep {
        study_s,
        cpu_s,
        ops: layers::manifest_ops(&report.telemetry),
        digests,
        problems,
        layers,
    }
}

/// Structural checks on a finished study: a valid manifest with every
/// stage and marketplace, and tables of the paper's shape.
pub(crate) fn checks(report: &StudyReport) -> Vec<String> {
    let mut problems = Vec::new();
    let m = &report.telemetry;
    if let Err(e) = m.validate() {
        problems.push(format!("manifest invalid: {e}"));
    }
    for stage in STAGES {
        if !m.stages.iter().any(|s| s.depth == 0 && s.name == stage) {
            problems.push(format!("manifest lacks stage {stage}"));
        }
    }
    if m.crawl.len() != 11 {
        problems.push(format!(
            "manifest crawl table has {} marketplaces, not 11",
            m.crawl.len()
        ));
    }
    if report.table1.len() != 11 {
        problems.push(format!("Table 1 has {} rows, not 11", report.table1.len()));
    }
    if report.table2.is_empty() || report.table4.is_empty() {
        problems.push("Table 2 or Table 4 is empty".into());
    }
    let d = &report.dataset;
    if d.offers.is_empty() || d.profiles.is_empty() || d.posts.is_empty() {
        problems.push("dataset lacks offers, profiles or posts".into());
    }
    if report.scam.total_posts != d.posts.len() {
        problems.push("scam analysis did not see every post".into());
    }
    problems
}
