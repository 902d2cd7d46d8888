//! The conformance analyzer itself — scanner throughput and the cost of
//! a full workspace pass (what the conformance tests pay per scan).

use conformance::lexer::tokenize;
use foundation::bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn bench_lint(c: &mut Criterion) {
    let root = workspace_root();

    // A corpus that exercises every lexer mode: the analyzer's own rule
    // engine (annotation comments, cfg-test regions) plus the property
    // harness (raw strings, escapes, pattern literals).
    let mut corpus = String::new();
    for rel in ["crates/conformance/src/rules.rs", "crates/foundation/src/check.rs"] {
        corpus.push_str(&std::fs::read_to_string(root.join(rel)).expect("corpus file"));
    }
    let tokens = tokenize(&corpus).len();
    eprintln!("[lint] corpus={} bytes, {tokens} tokens", corpus.len());

    c.bench_function("scanner_tokenize_corpus", |b| {
        b.iter(|| tokenize(black_box(&corpus)))
    });

    let report = conformance::run(&root).expect("full pass");
    eprintln!(
        "[lint] full pass: {} files, {} manifests, {} findings, {} suppressed",
        report.files_scanned,
        report.manifests_scanned,
        report.findings.len(),
        report.suppressed
    );

    let mut group = c.benchmark_group("full_pass");
    group.sample_size(10);
    group.bench_function("workspace_lint", |b| {
        b.iter(|| conformance::run(black_box(&root)).expect("full pass"))
    });
    group.finish();

    // The graph-resolution pass in isolation: every source resolved to
    // `FileFacts` and the manifest DAG rebuilt — the architecture
    // check's input, with the rule engine and I/O factored out.
    let ws = conformance::workspace::discover(&root).expect("workspace");
    let sources: Vec<String> = ws
        .sources
        .iter()
        .map(|f| std::fs::read_to_string(ws.abs(&f.rel)).expect("source"))
        .collect();
    let manifests: Vec<String> = ws
        .manifests
        .iter()
        .map(|m| std::fs::read_to_string(ws.abs(m)).expect("manifest"))
        .collect();
    eprintln!(
        "[lint] graph-resolution input: {} sources, {} manifests",
        sources.len(),
        manifests.len()
    );

    let mut group = c.benchmark_group("graph_resolution");
    group.sample_size(10);
    group.bench_function("resolve_workspace", |b| {
        b.iter(|| {
            sources
                .iter()
                .map(|s| conformance::resolve::resolve_file(black_box(s)).idents.len())
                .sum::<usize>()
        })
    });
    group.bench_function("manifest_dag", |b| {
        b.iter(|| {
            let infos: Vec<_> = ws
                .manifests
                .iter()
                .zip(&manifests)
                .map(|(rel, text)| conformance::arch::parse_manifest(rel, black_box(text)))
                .collect();
            conformance::arch::current_graph(&infos).crates.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lint
}
criterion_main!(benches);
