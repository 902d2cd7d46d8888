//! Economy-subsystem guarantees, end to end through the study driver:
//!
//! * the live economy is a deterministic function of (seed, scenario) —
//!   worker counts are a pure performance knob, and a crash/resume
//!   cycle reproduces the identical economy event for event;
//! * with no economy attached, the subsystem is perfectly inert: no
//!   events, no counters, no report section — the study's artifacts are
//!   those of the pre-economy pipeline.

use acctrade::core::economy::EconomyAnalysis;
use acctrade::core::study::{Study, StudyConfig, StudyReport};
use acctrade::economy::{stream_digest, EconomyConfig};
use acctrade::telemetry;
use std::path::PathBuf;

const SEED: u64 = 20250808;

fn config() -> StudyConfig {
    StudyConfig { seed: SEED, scale: 0.01, iterations: 3, scam: Default::default() }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acctrade-econ-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The byte views of a report that must not depend on how the economy
/// was executed: the event stream, the E1–E3 analysis, the dataset, and
/// the rendered report.
fn byte_views(report: &StudyReport) -> (String, String, String, String) {
    let stream: String =
        report.economy_events.iter().map(|e| e.to_json_line() + "\n").collect();
    let analysis = report.economy.as_ref().expect("economy attached").to_json_pretty();
    (stream, analysis, report.dataset.to_json(), report.render_all())
}

fn persisted_scenario_run(workers: usize, tag: &str) -> (StudyReport, String) {
    let dir = scratch(tag);
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let report = Study::new(config())
        .with_workers(workers)
        .with_economy(EconomyConfig::scenario("all").expect("known scenario"))
        .run_persisted(&dir)
        .expect("persisted economy run");
    let checkpoint = std::fs::read_to_string(dir.join("checkpoint.json")).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    (report, checkpoint)
}

#[test]
fn worker_counts_do_not_perturb_the_economy() {
    let (base, base_cp) = persisted_scenario_run(1, "w1");
    assert!(!base.economy_events.is_empty(), "scenario `all` emits events");
    assert!(base.economy.as_ref().unwrap().funnel_all.opened > 0);
    assert!(
        base_cp.contains("\"economy_scenario\": \"all\""),
        "checkpoint records the scenario"
    );

    let (par, par_cp) = persisted_scenario_run(4, "w4");
    assert_eq!(byte_views(&base), byte_views(&par), "4 workers diverged from 1");
    assert_eq!(base_cp, par_cp, "final checkpoints differ across worker counts");

    // The E1–E3 report settles every order on a listed payment method,
    // and `ECONOMY_report.json` is canonical: decode, re-encode, same bytes.
    let analysis = base.economy.as_ref().unwrap();
    assert!(analysis.reconciliation_ok, "payment reconciliation failed");
    let json = analysis.to_json_pretty();
    let decoded: EconomyAnalysis = foundation::json::from_str(&json).expect("report decodes");
    assert_eq!(decoded.to_json_pretty(), json, "report does not re-encode byte-identically");
}

#[test]
fn kill_and_resume_reproduce_the_identical_economy() {
    let (clean, clean_cp) = persisted_scenario_run(1, "clean");

    let dir = scratch("crash");
    let study = || {
        Study::new(config())
            .with_economy(EconomyConfig::scenario("all").expect("known scenario"))
    };
    {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let killed = study()
            .run_persisted_with_kill(&dir, 2)
            .expect("killed economy run");
        assert!(killed.is_none(), "the injected kill must fire");
    }
    let resumed = {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::resume_from(config(), &dir).expect("resume rebuilds the economy")
    };
    assert!(resumed.recovery.is_some(), "resumed runs report recovery");
    let resumed_cp = std::fs::read_to_string(dir.join("checkpoint.json")).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        byte_views(&clean),
        byte_views(&resumed),
        "crash/resume diverged from the uninterrupted run"
    );
    assert_eq!(clean_cp, resumed_cp, "final checkpoints differ across kill/resume");
    assert_eq!(
        stream_digest(&clean.economy_events),
        stream_digest(&resumed.economy_events),
    );
}

#[test]
fn disabled_economy_is_perfectly_inert() {
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let report = Study::new(config()).run();

    assert!(report.economy.is_none(), "no economy attached, no analysis");
    assert!(report.economy_events.is_empty());
    assert_eq!(report.price_observations, 0, "a static world never reprices");
    for counter in &report.telemetry.counters {
        assert!(
            !counter.key.starts_with("economy.")
                && !counter.key.starts_with("campaign.price_observations"),
            "disabled economy leaked counter {}",
            counter.key
        );
    }
    assert!(
        !report.render_all().contains("Economy E1"),
        "disabled economy must not render a report section"
    );
}

/// Scenario packs really gate their engines: an escrow-only economy
/// emits no price ticks or bot posts, and a bot-only economy opens no
/// orders.
#[test]
fn scenario_packs_gate_their_engines() {
    let run = |name: &str| {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::new(config())
            .with_economy(EconomyConfig::scenario(name).expect("known scenario"))
            .run()
    };

    let escrow = run("escrow-basic");
    let analysis = escrow.economy.as_ref().unwrap();
    assert!(analysis.funnel_all.opened > 0, "escrow engine runs");
    assert!(analysis.cadence.is_empty(), "no bot engine, no cadence rows");

    let bots = run("bot-inventory");
    let analysis = bots.economy.as_ref().unwrap();
    assert_eq!(analysis.funnel_all.opened, 0, "no escrow engine, no orders");
    assert!(!analysis.cadence.is_empty(), "bot engine posts inventory");
}
