//! Fixture-workspace tests: the analyzer against a synthetic two-crate
//! tree it can mutate freely.
//!
//! The unit tests pin each rule on snippets and the integration tests
//! pin "this repo is clean" — what neither shows is the analyzer
//! *catching* a violation end-to-end through [`conformance::run`]:
//! discovery, resolution, the architecture pass, and the report
//! assembly all firing on a tree that genuinely contains the defect.
//! Each scenario here starts from a clean fixture, injects exactly one
//! defect, and asserts exactly one finding of exactly the right rule —
//! the must-fail proof that the lint gate has teeth.

use std::fs;
use std::path::{Path, PathBuf};

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("fixture paths have parents")).expect("mkdir");
    fs::write(path, text).expect("write fixture file");
}

fn append(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    let mut current = fs::read_to_string(&path).expect("read fixture file");
    current.push_str(text);
    fs::write(path, current).expect("append fixture file");
}

/// Build a clean two-crate fixture workspace under the test scratch
/// dir: `alpha` (leaf) and `beta` (depends on `alpha`), plus a virtual
/// workspace root and a freshly generated `ARCH_baseline.json`.
fn fixture(tag: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("conf_fixture_{tag}"));
    let _ = fs::remove_dir_all(&root);
    write(
        &root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/alpha\", \"crates/beta\"]\nresolver = \"2\"\n",
    );
    write(
        &root,
        "crates/alpha/Cargo.toml",
        "[package]\nname = \"alpha\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    );
    write(&root, "crates/alpha/src/lib.rs", "//! Alpha: the leaf crate.\n\npub fn greet() -> u32 {\n    1\n}\n");
    write(
        &root,
        "crates/beta/Cargo.toml",
        "[package]\nname = \"beta\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [dependencies]\nalpha = { path = \"../alpha\" }\n",
    );
    write(
        &root,
        "crates/beta/src/lib.rs",
        "//! Beta: depends on alpha.\n\nuse alpha::greet;\n\npub fn double() -> u32 {\n    greet() * 2\n}\n",
    );
    write(
        &root,
        "crates/beta/tests/basic.rs",
        "use beta::double;\n\n#[test]\nfn doubles() {\n    assert_eq!(double(), 2);\n}\n",
    );
    conformance::write_arch_baseline(&root).expect("baseline");
    root
}

fn run(root: &Path) -> conformance::report::LintReport {
    conformance::run(root).expect("analyzer runs")
}

#[test]
fn clean_fixture_is_clean_and_deterministic() {
    let root = fixture("clean");
    let a = run(&root);
    let rendered: Vec<String> = a.findings.iter().map(|f| f.to_string()).collect();
    assert!(a.clean(), "clean fixture must lint clean; findings:\n{}", rendered.join("\n"));
    assert_eq!(a.files_scanned, 3);
    assert_eq!(a.manifests_scanned, 3);
    let b = run(&root);
    assert_eq!(
        foundation::json::to_string_pretty(&a),
        foundation::json::to_string_pretty(&b),
        "double run is byte-identical"
    );
}

#[test]
fn layering_violation_produces_exactly_one_arch_finding() {
    let root = fixture("layering");
    // alpha reaching *up* into beta: a source-level edge its manifest
    // never declared.
    append(&root, "crates/alpha/src/lib.rs", "\nuse beta::double;\n\nfn cheat() -> u32 {\n    double()\n}\n");
    let report = run(&root);
    assert_eq!(report.findings.len(), 1, "exactly one finding: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "arch");
    assert_eq!(f.file, "crates/alpha/src/lib.rs");
    assert!(
        f.message.contains("undeclared edge") && f.message.contains("`beta`"),
        "names the undeclared crate: {}",
        f.message
    );
}

#[test]
fn undeclared_manifest_edge_is_caught_against_the_baseline() {
    let root = fixture("baseline_edge");
    // A manifest edge appears without the committed baseline being
    // regenerated.
    append(&root, "crates/alpha/Cargo.toml", "\n[dependencies]\nbeta = { path = \"../beta\" }\n");
    let report = run(&root);
    // One baseline-diff finding for the new edge, plus the cycle the
    // edge closes (alpha → beta → alpha) — the analyzer reports both
    // facts, each exactly once.
    let diffs: Vec<_> =
        report.findings.iter().filter(|f| f.message.contains("undeclared edge")).collect();
    assert_eq!(diffs.len(), 1, "one undeclared-edge finding: {:?}", report.findings);
    assert!(diffs[0].message.contains("`alpha` → `beta`"), "{}", diffs[0].message);
    let cycles: Vec<_> =
        report.findings.iter().filter(|f| f.message.contains("dependency cycle")).collect();
    assert_eq!(cycles.len(), 1, "the closed cycle is reported: {:?}", report.findings);
    assert_eq!(report.findings.len(), 2, "nothing else fires: {:?}", report.findings);
}

#[test]
fn unannotated_unsafe_produces_exactly_one_finding() {
    let root = fixture("unsafe");
    append(&root, "crates/alpha/src/lib.rs", "\nfn danger() {\n    unsafe { std::ptr::null::<u8>(); }\n}\n");
    let report = run(&root);
    assert_eq!(report.findings.len(), 1, "exactly one finding: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "unsafe-audit");
    assert_eq!(f.file, "crates/alpha/src/lib.rs");
    // The site is inventoried even while undocumented — the inventory
    // describes reality, the finding demands the justification.
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert_eq!(report.unsafe_inventory[0].kind, "block");
}

/// The CLI's exit code is the gate: 0 on a clean tree, 1 once a
/// violation is injected.
#[test]
fn cli_exits_nonzero_once_a_violation_is_injected() {
    let root = fixture("cli");
    let out = root.join("target").join("LINT_report.json");
    let lint = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_acctrade-conformance"))
            .arg("--root")
            .arg(&root)
            .arg("--quiet")
            .arg("--out")
            .arg(&out)
            .status()
            .expect("run the conformance CLI")
            .code()
    };
    assert_eq!(lint(), Some(0), "clean fixture");
    append(&root, "crates/alpha/src/lib.rs", "\nfn danger() {\n    unsafe { std::ptr::null::<u8>(); }\n}\n");
    assert_eq!(lint(), Some(1), "unannotated unsafe");
}

#[test]
fn safety_comment_clears_the_unsafe_finding() {
    let root = fixture("unsafe_ok");
    append(
        &root,
        "crates/alpha/src/lib.rs",
        "\nfn danger() {\n    // SAFETY: null is a valid const pointer; nothing is dereferenced.\n    unsafe { std::ptr::null::<u8>(); }\n}\n",
    );
    let report = run(&root);
    assert!(report.clean(), "documented unsafe is clean: {:?}", report.findings);
    assert_eq!(report.unsafe_inventory.len(), 1, "and still inventoried");
}

#[test]
fn reactor_path_sleep_produces_exactly_one_finding() {
    let root = fixture("reactor");
    append(
        &root,
        "crates/alpha/src/lib.rs",
        "\n// conformance: reactor-path\nfn nap() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
    );
    let report = run(&root);
    assert_eq!(report.findings.len(), 1, "exactly one finding: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "blocking-call");
    assert!(f.message.contains("sleep"), "{}", f.message);
    // Without the pragma the same code is rule-silent (the rule arms
    // per-file, not globally).
    let root2 = fixture("reactor_unarmed");
    append(
        &root2,
        "crates/alpha/src/lib.rs",
        "\nfn nap() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
    );
    assert!(run(&root2).clean(), "no pragma, no blocking-call findings");
}

#[test]
fn seqcst_is_flagged_even_under_a_policy() {
    let root = fixture("seqcst");
    append(
        &root,
        "crates/alpha/src/lib.rs",
        "\n// conformance: atomics(relaxed)\nuse std::sync::atomic::{AtomicU32, Ordering};\n\n\
         static N: AtomicU32 = AtomicU32::new(0);\n\nfn bump() -> u32 {\n    N.fetch_add(1, Ordering::SeqCst)\n}\n",
    );
    let report = run(&root);
    assert_eq!(report.findings.len(), 1, "exactly one finding: {:?}", report.findings);
    assert_eq!(report.findings[0].rule, "atomics-ordering");
}

#[test]
fn stale_allow_produces_a_stale_suppression_finding() {
    let root = fixture("stale");
    append(
        &root,
        "crates/alpha/src/lib.rs",
        "\n// conformance: allow(determinism) — waives nothing\nfn idle() {}\n",
    );
    let report = run(&root);
    assert_eq!(report.findings.len(), 1, "exactly one finding: {:?}", report.findings);
    assert_eq!(report.findings[0].rule, "stale-suppression");
}

#[test]
fn missing_baseline_is_itself_a_finding() {
    let root = fixture("no_baseline");
    fs::remove_file(root.join("ARCH_baseline.json")).expect("remove baseline");
    let report = run(&root);
    let arch: Vec<_> = report.findings.iter().filter(|f| f.rule == "arch").collect();
    assert_eq!(arch.len(), 1, "one missing-baseline finding: {:?}", report.findings);
    assert!(arch[0].message.contains("ARCH_baseline.json"), "{}", arch[0].message);
}
