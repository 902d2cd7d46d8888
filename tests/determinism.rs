//! Determinism: every artifact of a study is a pure function of the seed.
//!
//! The reproduction leans on this everywhere — CI compares artifacts
//! byte-for-byte, and the paper's tables are regenerated from a pinned
//! seed. With `foundation` supplying the RNG, JSON encoder, and thread
//! primitives, the whole pipeline is deterministic end to end: same seed
//! ⇒ byte-identical JSON, different seed ⇒ a different world.

use acctrade::core::{Study, StudyConfig};
use acctrade::crawler::record::Dataset;

#[test]
fn identical_seeds_identical_reports() {
    let config = StudyConfig { seed: 31337, scale: 0.01, iterations: 3, scam: Default::default() };
    let a = Study::new(config).run();
    let b = Study::new(config).run();
    assert_eq!(a.render_all(), b.render_all());
    assert_eq!(a.dataset.to_json(), b.dataset.to_json());
    assert_eq!(a.requests_issued, b.requests_issued);
}

/// The headline guarantee: two independent `Study` runs from one seed
/// serialize to *byte-identical* JSON — not merely equal values. The
/// `foundation::json` encoder preserves field order (insertion order of
/// the codec macros), so equality of bytes is achievable and asserted.
#[test]
fn identical_seeds_byte_identical_json() {
    let config = StudyConfig { seed: 777, scale: 0.01, iterations: 2, scam: Default::default() };
    let a = Study::new(config).run().dataset.to_json();
    let b = Study::new(config).run().dataset.to_json();
    assert_eq!(a.as_bytes(), b.as_bytes(), "report JSON must be byte-identical");

    // And the encoding is stable through a decode/re-encode cycle: the
    // parsed dataset re-renders to the very same bytes.
    let decoded = Dataset::from_json(&a).expect("study JSON parses");
    assert_eq!(decoded.to_json().as_bytes(), a.as_bytes(), "re-encode must be stable");
}

/// Determinism holds even when the two runs race each other on separate
/// threads — nothing in the pipeline leaks wall-clock or scheduler state
/// into the artifacts.
#[test]
fn concurrent_runs_agree() {
    let config = StudyConfig { seed: 4242, scale: 0.01, iterations: 2, scam: Default::default() };
    let (a, b) = foundation::sync::scope(|s| {
        let ha = s.spawn(move || Study::new(config).run());
        let hb = s.spawn(move || Study::new(config).run());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.dataset.to_json(), b.dataset.to_json());
    assert_eq!(a.render_all(), b.render_all());
}

/// The telemetry manifest's virtual-time view is part of the determinism
/// contract: two same-seed runs must serialize to *byte-identical*
/// deterministic JSON once the clearly-named `wall_*` fields are
/// stripped. (Wall-clock timings legitimately differ between runs; the
/// counters, stage virtual times, crawl/API tallies, and events must
/// not.)
#[test]
fn telemetry_manifests_byte_identical_without_wall_fields() {
    let config = StudyConfig { seed: 909, scale: 0.01, iterations: 2, scam: Default::default() };
    let a = Study::new(config).run().telemetry;
    let b = Study::new(config).run().telemetry;
    assert!(a.validate().is_ok());
    assert_eq!(
        a.deterministic_string().as_bytes(),
        b.deterministic_string().as_bytes(),
        "virtual-time manifest fields must be byte-identical"
    );
    // And the full manifest roundtrips through its JSON codec.
    let parsed = acctrade::telemetry::RunManifest::parse(&a.to_json_string())
        .expect("manifest JSON parses");
    assert_eq!(parsed.deterministic_string(), a.deterministic_string());
    // The deterministic view is exactly the centralized wall-stripping
    // normalization applied to the full manifest — every consumer
    // (deterministic_string, validate_manifest, the CI cmp gates) goes
    // through the same `normalize_for_determinism`.
    let full = foundation::json::Json::parse(&a.to_json_string()).expect("full manifest JSON");
    assert_eq!(
        acctrade::telemetry::normalize_for_determinism(&full).render_pretty(),
        a.deterministic_string(),
    );
}

/// The persistence layer must not weaken the determinism contract: an
/// interrupted-then-resumed persisted study produces the same bytes as
/// an *uninterrupted, unpersisted* same-seed run — the WAL, checkpoints,
/// and recovery machinery are invisible in the artifacts. (The deeper
/// per-kill-point variants live in `tests/crash_recovery.rs`; this is
/// the determinism-suite view: persisted == resumed == in-memory.)
#[test]
fn interrupted_and_resumed_run_matches_uninterrupted_run() {
    let config =
        StudyConfig { seed: 5150, scale: 0.01, iterations: 3, scam: Default::default() };

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir()
            .join(format!("acctrade-determinism-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // Uninterrupted runs: one in-memory, one persisted (the persisted
    // run's manifest additionally carries the `store.*` counters, so the
    // manifest comparison is persisted-vs-persisted).
    let clean_mem = Study::new(config).run();
    let clean_dir = scratch("clean");
    let clean = {
        let rec = acctrade::telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::new(config).run_persisted(&clean_dir).unwrap()
    };

    // Persisted run killed after one iteration, then resumed cold.
    let crash_dir = scratch("crash");
    {
        let rec = acctrade::telemetry::Recorder::new();
        let _scope = rec.enter();
        let outcome = Study::new(config).run_persisted_with_kill(&crash_dir, 1).unwrap();
        assert!(outcome.is_none(), "kill after iteration 1 must interrupt the run");
    }
    let resumed = {
        let rec = acctrade::telemetry::Recorder::new();
        let _scope = rec.enter();
        Study::resume_from_with_workers(config, &crash_dir, 1).unwrap()
    };
    assert!(resumed.recovery.is_some(), "resumed runs report their recovery");

    // Persistence itself is artifact-invisible: the persisted clean run
    // matches the in-memory run's dataset and rendered report …
    assert_eq!(clean.dataset.to_json().as_bytes(), clean_mem.dataset.to_json().as_bytes());
    assert_eq!(clean.render_all(), clean_mem.render_all());

    // … and the interruption is too: resumed == uninterrupted, to the byte.
    assert_eq!(
        resumed.dataset.to_json().as_bytes(),
        clean.dataset.to_json().as_bytes(),
        "resumed dataset JSON must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        resumed.telemetry.deterministic_string().as_bytes(),
        clean.telemetry.deterministic_string().as_bytes(),
        "resumed telemetry manifest (wall fields stripped) must be byte-identical"
    );
    assert_eq!(resumed.render_all(), clean.render_all(), "every table and figure agrees");
    assert_eq!(resumed.requests_issued, clean.requests_issued);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn different_seeds_different_worlds() {
    let a = Study::new(StudyConfig { seed: 1, scale: 0.01, iterations: 2, scam: Default::default() })
        .run();
    let b = Study::new(StudyConfig { seed: 2, scale: 0.01, iterations: 2, scam: Default::default() })
        .run();
    // Same *shape*, different content.
    assert_eq!(a.table1.len(), b.table1.len());
    assert_ne!(a.dataset.to_json(), b.dataset.to_json());
}
