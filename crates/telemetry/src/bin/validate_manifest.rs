//! Parse and schema-check the workspace's JSON artifacts.
//!
//! ```sh
//! cargo run -p acctrade-telemetry --bin validate_manifest -- target/TELEMETRY_report.json
//! cargo run -p acctrade-telemetry --bin validate_manifest -- target/BENCH_report.json
//! cargo run -p acctrade-telemetry --bin validate_manifest -- target/ops/TRACE_report.json
//! ```
//!
//! The artifact kind is inferred from the file name:
//!
//! * `TELEMETRY*` — full [`telemetry::RunManifest`] structural
//!   validation, plus a stability check: the deterministic view must
//!   re-render byte-identically (sorted keys, canonical formatting);
//! * `BENCH*` — every entry must carry the harness's stats keys (or the
//!   known hand-merged shapes), all values numeric and ordered, in the
//!   canonical pretty-rendered form;
//! * `TRACE*` — Chrome `trace_event` schema via
//!   [`telemetry::validate_trace`].
//!
//! The economy report and the conformance documents are `JsonCodec`
//! types, checked by their round-trip tests.
//!
//! Exits 0 when valid; exits 1 (with a reason on stderr) otherwise.

use foundation::json::Json;
use telemetry::RunManifest;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("target/{}", telemetry::REPORT_FILE));
    match check(&path) {
        Ok(summary) => println!("artifact OK: {summary}"),
        Err(err) => {
            eprintln!("artifact INVALID ({path}): {err}");
            std::process::exit(1);
        }
    }
}

fn check(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"))?;
    let file = path.rsplit('/').next().unwrap_or(path);
    if file.starts_with("BENCH") {
        check_bench(&text)
    } else if file.starts_with("TRACE") {
        telemetry::validate_trace(&text)
    } else {
        check_telemetry(&text)
    }
}

fn check_telemetry(text: &str) -> Result<String, String> {
    let manifest = RunManifest::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    manifest.validate()?;
    // The deterministic view must be stable: normalize, re-render,
    // re-normalize — same bytes. This is the property every byte
    // comparison of TELEMETRY_deterministic.txt artifacts rests on.
    let det = manifest.deterministic_string();
    let reparsed = Json::parse(&det).map_err(|e| format!("deterministic view unparsable: {e}"))?;
    if telemetry::normalize_for_determinism(&reparsed).render_pretty() != det {
        return Err("deterministic view is not canonically rendered".into());
    }
    Ok(format!(
        "kind=telemetry run={} seed={} stages={} counters={} crawl_rows={} api_rows={}",
        manifest.run,
        manifest.seed,
        manifest.stages.len(),
        manifest.counters.len(),
        manifest.crawl.len(),
        manifest.api.len(),
    ))
}

/// Keys the `foundation::bench` harness writes for every timed entry.
const STATS_KEYS: [&str; 6] = ["samples", "mean_ns", "median_ns", "p95_ns", "min_ns", "max_ns"];

fn check_bench(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Json::Obj(entries) = &doc else {
        return Err("top level must be an object of bench entries".into());
    };
    if entries.is_empty() {
        return Err("no bench entries recorded".into());
    }
    check_stable_reencode(&doc, text)?;
    let mut timed = 0usize;
    for (id, value) in entries {
        let Json::Obj(fields) = value else {
            return Err(format!("entry {id:?} is not an object"));
        };
        let has = |k: &str| value.get(k).and_then(Json::as_num);
        if value.get("samples").is_some() {
            timed += 1;
            for key in STATS_KEYS {
                let v = has(key).ok_or_else(|| format!("entry {id:?}: missing numeric {key:?}"))?;
                if v < 0.0 {
                    return Err(format!("entry {id:?}: negative {key:?}"));
                }
            }
            let (min, median, p95, max) = (
                has("min_ns").unwrap(),
                has("median_ns").unwrap(),
                has("p95_ns").unwrap(),
                has("max_ns").unwrap(),
            );
            if !(min <= median && median <= p95 && p95 <= max) {
                return Err(format!("entry {id:?}: percentile ordering violated"));
            }
        } else {
            // Hand-merged trajectory entries: every field must still be
            // a non-negative number.
            for (key, field) in fields {
                let v = field
                    .as_num()
                    .ok_or_else(|| format!("entry {id:?}: non-numeric field {key:?}"))?;
                if v < 0.0 {
                    return Err(format!("entry {id:?}: negative field {key:?}"));
                }
            }
        }
    }
    Ok(format!("kind=bench entries={} timed={timed}", entries.len()))
}

/// Parse → re-render must reproduce the input: artifacts are written in
/// canonical pretty form so runs can be byte-compared.
fn check_stable_reencode(doc: &Json, text: &str) -> Result<(), String> {
    let rendered = doc.render_pretty();
    if rendered != text && rendered + "\n" != text {
        return Err("not in canonical pretty-rendered form (unstable key order or formatting)".into());
    }
    Ok(())
}
