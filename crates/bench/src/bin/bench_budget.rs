//! The perf-budget check: diff a `BENCH_report.json` against
//! the committed `BENCH_budget.json` floors and ceilings.
//!
//! ```sh
//! cargo run -p acctrade-bench --bin bench_budget -- \
//!     target/BENCH_report.json BENCH_budget.json
//! ```
//!
//! The budget document pins one metric per bench entry to a `min`
//! floor (throughput, speedup) or a `max` ceiling (latency medians). A
//! `tolerance_pct` band absorbs machine noise: floors are checked at
//! `min * (1 - tol)`, ceilings at `max * (1 + tol)`. Budgets are
//! deliberately conservative multiples of measured values — the gate
//! exists to catch order-of-magnitude regressions (a lost fast path, an
//! accidental O(n²)), not 5% jitter.
//!
//! Exits 0 when every budgeted metric is inside its band; exits 1 with
//! a per-entry verdict table on any regression, missing entry, or
//! malformed budget.

use foundation::json::Json;

const BUDGET_SCHEMA: &str = "acctrade-bench-budget/v1";

fn main() {
    let mut args = std::env::args().skip(1);
    let report_path = args.next().unwrap_or_else(|| "target/BENCH_report.json".into());
    let budget_path = args.next().unwrap_or_else(|| "BENCH_budget.json".into());
    match check(&report_path, &budget_path) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            println!("bench budget OK ({report_path} within {budget_path})");
        }
        Err(err) => {
            eprintln!("bench budget FAILED: {err}");
            std::process::exit(1);
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))
}

fn check(report_path: &str, budget_path: &str) -> Result<Vec<String>, String> {
    let report = load(report_path)?;
    let budget = load(budget_path)?;
    let schema = budget.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BUDGET_SCHEMA {
        return Err(format!("{budget_path}: unknown budget schema {schema:?}"));
    }
    let tolerance = budget.get("tolerance_pct").and_then(Json::as_num).unwrap_or(0.0) / 100.0;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("{budget_path}: tolerance_pct out of range"));
    }
    let Some(Json::Obj(entries)) = budget.get("entries") else {
        return Err(format!("{budget_path}: missing entries object"));
    };
    if entries.is_empty() {
        return Err(format!("{budget_path}: empty budget"));
    }

    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (id, spec) in entries {
        match check_entry(&report, id, spec, tolerance) {
            Ok(line) => lines.push(line),
            Err(reason) => failures.push(format!("{id}: {reason}")),
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        for line in &lines {
            eprintln!("{line}");
        }
        Err(failures.join("; "))
    }
}

fn check_entry(report: &Json, id: &str, spec: &Json, tolerance: f64) -> Result<String, String> {
    let metric = spec
        .get("metric")
        .and_then(Json::as_str)
        .ok_or_else(|| "budget entry missing metric name".to_string())?;
    let value = report
        .get(id)
        .ok_or_else(|| "entry missing from bench report".to_string())?
        .get(metric)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("report entry has no numeric {metric:?}"))?;
    let floor = spec.get("min").and_then(Json::as_num);
    let ceiling = spec.get("max").and_then(Json::as_num);
    if floor.is_none() && ceiling.is_none() {
        return Err("budget entry needs a min or a max".into());
    }
    if let Some(min) = floor {
        let bound = min * (1.0 - tolerance);
        if value < bound {
            return Err(format!(
                "{metric} = {value:.1} below floor {min:.1} (tolerance-adjusted {bound:.1})"
            ));
        }
    }
    if let Some(max) = ceiling {
        let bound = max * (1.0 + tolerance);
        if value > bound {
            return Err(format!(
                "{metric} = {value:.1} above ceiling {max:.1} (tolerance-adjusted {bound:.1})"
            ));
        }
    }
    let bounds = match (floor, ceiling) {
        (Some(min), Some(max)) => format!("within [{min:.1}, {max:.1}]"),
        (Some(min), None) => format!(">= floor {min:.1}"),
        (None, _) => format!("<= ceiling {:.1}", ceiling.unwrap()),
    };
    Ok(format!("  {id}: {metric} = {value:.1} {bounds}"))
}
