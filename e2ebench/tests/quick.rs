//! The benchmark's own tests. Every workload runs offline at a tiny
//! scale, untraced and traced, and must pass its output checks and
//! print every declared metric with a unit and a finite value, under a
//! name made only of the allowed characters. The metric catalog must
//! match `BENCHMARK.json`.

use e2ebench::{result_json, run, MetricSpec, Opts, Plan, Workload, END_TO_END, PER_LAYER};
use foundation::json::Json;

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn quick(workload: Workload, trace: bool) {
    let opts = Opts {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        plan: Plan::new(workload, true),
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "e2ebench-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    };
    let outcome = run(&opts);
    assert!(
        outcome.correct,
        "{} failed its checks: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);

    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = catalog.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        want,
        "{} trace={trace} printed a different metric set",
        workload.name()
    );
    for (m, spec) in outcome.metrics.iter().zip(catalog) {
        assert!(name_ok(m.name), "bad metric name {}", m.name);
        assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
        assert_eq!(m.unit, spec.unit);
        assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
    }

    // The result line is one JSON object with exactly the four keys.
    let line = result_json(&outcome);
    let json = Json::parse(&line).expect("the result line is JSON");
    let Json::Obj(entries) = &json else {
        panic!("the result line is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), catalog.len());
    for (name, m) in metrics {
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name} value"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some_and(unit_ok),
            "{name} unit"
        );
    }
}

#[test]
fn paper_study_quick() {
    quick(Workload::PaperStudy, false);
    quick(Workload::PaperStudy, true);
}

#[test]
fn loopback_crawl_quick() {
    quick(Workload::LoopbackCrawl, false);
    quick(Workload::LoopbackCrawl, true);
}

#[test]
fn resume_economy_quick() {
    quick(Workload::ResumeEconomy, false);
    quick(Workload::ResumeEconomy, true);
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark prints.
#[test]
fn catalog_matches_benchmark_json() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let field = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);

    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = catalog
            .iter()
            .map(|&MetricSpec { name, unit, better }| (name.into(), unit.into(), better.into()))
            .collect();
        assert_eq!(
            declared, want,
            "{key} in BENCHMARK.json differs from the catalog"
        );
        assert!(declared.iter().all(|(n, u, _)| name_ok(n) && unit_ok(u)));
    }
}
