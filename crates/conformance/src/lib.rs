//! # acctrade-conformance
//!
//! The workspace's in-tree static conformance analyzer. The repo's
//! scientific claim is determinism — byte-identical datasets, telemetry
//! manifests, and WAL artifacts from a seed — and this crate enforces
//! the source-level invariants that claim rests on, the way sanitizers
//! guard a training stack:
//!
//! * [`lexer`] — a self-contained Rust token scanner (raw strings,
//!   nested block comments, lifetime-vs-char disambiguation; no `syn`);
//! * [`workspace`] — deterministic discovery of every `.rs` file and
//!   `Cargo.toml` in the tree;
//! * [`resolve`] — the structural resolver: module trees, `use`/path
//!   graphs, module-level `pub` items, and per-file policy pragmas
//!   recovered from the token stream;
//! * [`manifest`] — rule `zero-dep` over manifests;
//! * [`rules`] — per-file rules (`determinism`, `panic-policy`,
//!   `lock-discipline`, `unsafe-audit`, `atomics-ordering`,
//!   `blocking-call`) with `#[cfg(test)]`-region tracking and
//!   `// conformance: allow(<rule>)` annotations, plus
//!   `stale-suppression` over the annotations themselves;
//! * [`arch`] — the cross-file pass: the crate dependency DAG checked
//!   against the committed `ARCH_baseline.json` (cycles, undeclared
//!   edges, canonical formatting), source-level edge consistency,
//!   module-tree orphans, and `pub-hygiene` dead exports;
//! * [`report`] — the sorted, `JsonCodec`-backed [`report::LintReport`]
//!   (schema `acctrade-lint/v2`: per-rule counts, the workspace unsafe
//!   inventory, the architecture digest) written to `LINT_report.json`,
//!   byte-identical across runs.
//!
//! The dynamic complement lives in `foundation::sync`: a debug-build
//! lock-order registry that panics on acquisition-order cycles (see
//! DESIGN.md §2.3). Run the analyzer with
//! `cargo run -p acctrade-conformance`; the tests below hold the tree to
//! zero findings and two passes to byte-identical reports.

#![warn(missing_docs)]

pub mod arch;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod workspace;

use report::{LintReport, RuleCount};
use std::fmt;
use std::path::Path;

/// Analyzer failure (I/O or discovery), distinct from lint findings.
#[derive(Debug)]
pub struct Error {
    /// Human-readable description, including the path involved.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conformance: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Run the full conformance pass over the workspace rooted at `root`.
///
/// Every `.rs` file is lexed and structurally resolved (totality
/// exercise for scanner and resolver); per-file rules apply per the
/// role matrix in [`rules`], then the architecture pass checks the
/// whole workspace against `ARCH_baseline.json`. The returned report
/// is sorted and ready to serialize.
pub fn run(root: &Path) -> Result<LintReport, Error> {
    let ws = workspace::discover(root)
        .map_err(|e| Error { msg: format!("discovering {}: {e}", root.display()) })?;

    let mut report = LintReport::default();

    // Per-file pass: scan every source, remembering `#[cfg(test)]
    // mod x;` out-of-line declarations so the files they point at are
    // exempt from every rule (they are test code in their entirety).
    let mut analyses: Vec<rules::FileAnalysis> = Vec::new();
    let mut test_module_files: Vec<String> = Vec::new();
    for file in &ws.sources {
        let text = std::fs::read_to_string(ws.abs(&file.rel))
            .map_err(|e| Error { msg: format!("reading {}: {e}", file.rel) })?;
        let analysis = rules::analyze_file(file, &text);
        for module in &analysis.test_modules {
            let dir = match file.rel.rsplit_once('/') {
                Some((dir, _)) => dir,
                None => "",
            };
            test_module_files.push(format!("{dir}/{module}.rs"));
            test_module_files.push(format!("{dir}/{module}/mod.rs"));
        }
        analyses.push(analysis);
        report.files_scanned += 1;
    }

    // Manifest pass: `zero-dep` findings plus the parsed facts the
    // architecture pass builds its DAG from.
    let mut manifests: Vec<arch::ManifestInfo> = Vec::new();
    for rel in &ws.manifests {
        let text = std::fs::read_to_string(ws.abs(rel))
            .map_err(|e| Error { msg: format!("reading {rel}: {e}") })?;
        report.findings.extend(manifest::check(rel, &text));
        manifests.push(arch::parse_manifest(rel, &text));
        report.manifests_scanned += 1;
    }

    // Architecture pass over every non-test-module file (a whole-file
    // test module is invisible to layering the same way a `#[cfg(test)]`
    // region is).
    let arch_sources: Vec<arch::ArchSource<'_>> = ws
        .sources
        .iter()
        .zip(analyses.iter())
        .filter(|(file, _)| !test_module_files.contains(&file.rel))
        .map(|(file, analysis)| arch::ArchSource { file, analysis })
        .collect();
    let baseline_text = std::fs::read_to_string(ws.abs(arch::BASELINE_PATH)).ok();
    let baseline = baseline_text
        .as_deref()
        .and_then(|t| foundation::json::from_str::<report::ArchBaseline>(t).ok());
    let outcome =
        arch::check(&manifests, &arch_sources, baseline.as_ref(), baseline_text.as_deref());
    report.arch_digest = outcome.digest.clone();
    report.unsafe_inventory = arch::unsafe_inventory(&arch_sources);
    report.findings.extend(outcome.findings);

    // Assemble per-file results. Stale-suppression runs last: only now
    // have all passes (per-file and cross-file) marked consumption.
    let mut per_rule_suppressed: Vec<(String, u64)> = outcome.suppressed;
    for (file, analysis) in ws.sources.iter().zip(analyses.iter()) {
        if test_module_files.contains(&file.rel) {
            continue; // the whole file is a #[cfg(test)] module
        }
        report.findings.extend(analysis.findings.iter().cloned());
        report.findings.extend(analysis.stale_suppressions(file));
        for (rule, n) in &analysis.suppressed {
            match per_rule_suppressed.iter_mut().find(|(r, _)| r == rule) {
                Some((_, total)) => *total += n,
                None => per_rule_suppressed.push((rule.clone(), *n)),
            }
        }
    }
    report.suppressed = per_rule_suppressed.iter().map(|(_, n)| n).sum();

    // Per-rule tallies, every known rule present (zeros included).
    report.rule_counts = rules::KNOWN_RULES
        .iter()
        .map(|rule| RuleCount {
            rule: rule.to_string(),
            findings: report.findings.iter().filter(|f| f.rule == *rule).count() as u64,
            suppressed: per_rule_suppressed
                .iter()
                .find(|(r, _)| r == rule)
                .map(|(_, n)| *n)
                .unwrap_or(0),
        })
        .collect();

    report.sort();
    Ok(report)
}

/// Regenerate `ARCH_baseline.json` from the workspace's manifests and
/// write it at the root in canonical form. Returns the rendered text.
pub fn write_arch_baseline(root: &Path) -> Result<String, Error> {
    let ws = workspace::discover(root)
        .map_err(|e| Error { msg: format!("discovering {}: {e}", root.display()) })?;
    let mut manifests = Vec::new();
    for rel in &ws.manifests {
        let text = std::fs::read_to_string(ws.abs(rel))
            .map_err(|e| Error { msg: format!("reading {rel}: {e}") })?;
        manifests.push(arch::parse_manifest(rel, &text));
    }
    let rendered = arch::render_baseline(&arch::current_graph(&manifests));
    let path = ws.abs(arch::BASELINE_PATH);
    std::fs::write(&path, &rendered)
        .map_err(|e| Error { msg: format!("writing {}: {e}", path.display()) })?;
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
    }

    #[test]
    fn full_pass_over_this_workspace_is_deterministic() {
        let a = run(&repo_root()).expect("first pass");
        let b = run(&repo_root()).expect("second pass");
        assert_eq!(a, b, "two scans of the same tree must agree exactly");
        assert_eq!(
            foundation::json::to_string_pretty(&a),
            foundation::json::to_string_pretty(&b)
        );
        assert!(a.files_scanned > 100, "the whole tree is scanned");
        assert!(a.manifests_scanned >= 12, "every crate manifest is scanned");
    }

    #[test]
    fn this_tree_is_conformance_clean() {
        let report = run(&repo_root()).expect("pass");
        let rendered: Vec<String> =
            report.findings.iter().map(|f| f.to_string()).collect();
        assert!(
            report.clean(),
            "the tree must lint clean; findings:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn v2_report_carries_arch_digest_and_rule_counts() {
        let report = run(&repo_root()).expect("pass");
        assert_eq!(report.schema, report::LINT_SCHEMA);
        assert_eq!(report.arch_digest.len(), 16, "16-hex-digit FNV digest");
        let rules: Vec<&str> = report.rule_counts.iter().map(|c| c.rule.as_str()).collect();
        let mut expected: Vec<&str> = rules::KNOWN_RULES.to_vec();
        expected.sort_unstable();
        assert_eq!(rules, expected, "every known rule is tallied, zeros included");
        assert!(
            report.unsafe_inventory.iter().any(|s| s.file == "crates/telemetry/src/trace.rs"),
            "the trace ring's unsafe sites are inventoried: {:?}",
            report.unsafe_inventory
        );
        assert!(
            report.unsafe_inventory.iter().any(|s| s.file == "crates/foundation/src/json.rs"),
            "the json scanner's unsafe site is inventoried"
        );
    }
}
