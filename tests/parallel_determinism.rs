//! Parallel determinism: the sharded parallel crawl engine must be
//! a pure performance knob, never an output knob.
//!
//! The honesty claim behind `--workers N` is sharp: the *entire*
//! persisted artifact set of a campaign — dataset JSON, deterministic
//! telemetry manifest (wall-clock fields stripped), the WAL segment
//! bytes themselves, the store manifest, and the final checkpoint
//! (including its per-shard lane cursors) — must be byte-identical at
//! every worker count. These tests pin that claim at workers ∈
//! {1, 2, 4, 8}, then stress the shared shard queue itself on 8
//! threads and demand conservation: every frontier shard processed
//! exactly once, no loss, no duplication, whichever worker pulls it.

use acctrade::core::study::{Study, StudyConfig, StudyReport};
use acctrade::crawler::{merge, steal};
use acctrade::net::{Client, SimNet};
use acctrade::telemetry;
use acctrade::workload::world::{World, WorldParams};
use std::path::{Path, PathBuf};

const SEED: u64 = 20250807;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config() -> StudyConfig {
    StudyConfig { seed: SEED, scale: 0.01, iterations: 3, scam: Default::default() }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acctrade-par-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a persisted campaign leaves behind that must not depend
/// on the worker count.
struct Artifacts {
    dataset_json: String,
    manifest: String,
    segments: Vec<(String, Vec<u8>)>,
    store_manifest: String,
    checkpoint: String,
}

fn collect_artifacts(report: &StudyReport, dir: &Path) -> Artifacts {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    let segments = names
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).unwrap();
            (n, bytes)
        })
        .collect();
    Artifacts {
        dataset_json: report.dataset.to_json(),
        manifest: report.telemetry.deterministic_string(),
        segments,
        store_manifest: std::fs::read_to_string(dir.join("store_manifest.json")).unwrap(),
        checkpoint: std::fs::read_to_string(dir.join("checkpoint.json")).unwrap(),
    }
}

/// One full persisted campaign at the given worker count.
fn persisted_run(workers: usize) -> Artifacts {
    let dir = scratch(&format!("w{workers}"));
    let rec = telemetry::Recorder::new();
    let _scope = rec.enter();
    let report = Study::new(config()).with_workers(workers).run_persisted(&dir).unwrap();
    assert!(report.recovery.is_none(), "clean runs perform no recovery");
    let artifacts = collect_artifacts(&report, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    artifacts
}

/// The tentpole guarantee: same seed, any worker count, byte-identical
/// everything.
#[test]
fn worker_counts_produce_byte_identical_artifacts() {
    let baseline = persisted_run(WORKER_COUNTS[0]);
    assert!(!baseline.dataset_json.is_empty());
    assert!(!baseline.segments.is_empty(), "campaign persists WAL segments");
    assert!(
        baseline.checkpoint.contains("shard_cursors"),
        "v2 checkpoints carry per-shard lane cursors"
    );

    for &workers in &WORKER_COUNTS[1..] {
        let run = persisted_run(workers);
        assert_eq!(
            run.dataset_json.as_bytes(),
            baseline.dataset_json.as_bytes(),
            "dataset JSON differs at workers={workers}"
        );
        assert_eq!(
            run.manifest.as_bytes(),
            baseline.manifest.as_bytes(),
            "deterministic telemetry manifest differs at workers={workers}"
        );
        assert_eq!(
            run.segments.len(),
            baseline.segments.len(),
            "WAL segment count differs at workers={workers}"
        );
        for ((rn, rb), (bn, bb)) in run.segments.iter().zip(&baseline.segments) {
            assert_eq!(rn, bn, "segment names differ at workers={workers}");
            assert_eq!(rb, bb, "segment {rn} differs at workers={workers}");
        }
        assert_eq!(
            run.store_manifest, baseline.store_manifest,
            "store manifest differs at workers={workers}"
        );
        assert_eq!(
            run.checkpoint, baseline.checkpoint,
            "final checkpoint (with shard cursors) differs at workers={workers}"
        );
    }
}

fn engine_setup(seed: u64) -> std::sync::Arc<SimNet> {
    let world = World::generate(WorldParams { seed, scale: 0.02 });
    let net = SimNet::new(seed);
    world.deploy(&net);
    net
}

/// 8-thread shard-queue stress: conservation of the frontier. Every
/// planned shard is executed exactly once — by someone.
#[test]
fn eight_worker_stress_conserves_every_shard() {
    let net = engine_setup(SEED);
    let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);

    for iteration in 0..3 {
        let run = steal::run_iteration(&client, iteration, 8, None);
        assert!(!run.killed);
        assert!(run.shards_total > 8, "more shards than workers, so workers contend for the queue");

        // Exactly once: indices are a permutation of 0..shards_total,
        // and no (marketplace, chain) pair appears twice.
        let indexes: Vec<usize> = run.outcomes.iter().map(|o| o.index).collect();
        assert_eq!(indexes, (0..run.shards_total).collect::<Vec<_>>());
        let mut keys: Vec<(&str, usize)> =
            run.outcomes.iter().map(|o| (o.market.name(), o.chain)).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "no shard is crawled twice");

        // Fold the iteration back into the fabric exactly as the
        // campaign scheduler does, so iteration i+1 starts from the
        // same shared clock a sequential run would reach.
        for (_, lane) in &run.discovery {
            net.absorb_lane(lane);
        }
        for outcome in &run.outcomes {
            net.absorb_lane(&outcome.lane);
        }
    }
}

/// The merged record stream is invariant not just across worker counts
/// but across *which* worker ran which shard: an 8-way stressed run
/// merges to the same bytes as the sequential reference.
#[test]
fn stressed_merge_matches_sequential_reference() {
    let sequential = {
        let net = engine_setup(SEED + 1);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
        let run = steal::run_iteration(&client, 0, 1, None);
        merge::merge_shards(run.outcomes.into_iter().map(|o| o.records).collect())
    };
    let stressed = {
        let net = engine_setup(SEED + 1);
        let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
        let run = steal::run_iteration(&client, 0, 8, None);
        merge::merge_shards(run.outcomes.into_iter().map(|o| o.records).collect())
    };
    assert!(!sequential.is_empty());
    assert_eq!(sequential, stressed, "pull order must never leak into the merged stream");

    // And the merge really is ordered by the canonical key, not by
    // shard arrival: adjacent records never violate the total order.
    for pair in stressed.windows(2) {
        assert!(
            merge::merge_key(&pair[0]) <= merge::merge_key(&pair[1]),
            "merged stream is sorted by (virtual time, marketplace, url, iteration)"
        );
    }
}
