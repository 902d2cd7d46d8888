#!/usr/bin/env bash
# CI entry point for the acctrade workspace.
#
# The workspace is zero-dependency (std + the in-tree `foundation` crate
# only), so everything here runs fully offline — no registry, no network.
#
#   ./ci.sh            # build + test + clippy + telemetry-manifest gate
#
# Gating steps (any failure fails CI):
#   1. release build           2. full test suite, plus the e2ebench
#                                 workspace's own tests
#   3. clippy -D warnings      (skipped gracefully when the toolchain
#                               ships without clippy)
#   4. quickstart example must produce a well-formed
#      target/TELEMETRY_report.json (validated by the
#      acctrade-telemetry `validate_manifest` binary)
#   5. crash recovery: a persisted quickstart campaign is killed
#      mid-run (exit code 3), resumed, and its dataset + deterministic
#      telemetry manifest must be byte-identical to a clean
#      uninterrupted same-seed run
#   6. conformance: the in-tree static analyzer
#      (`acctrade-conformance`) must report zero findings over the
#      workspace, and two back-to-back runs must emit byte-identical
#      LINT_report.json files
#   7. parallel determinism: the persisted quickstart campaign run at
#      --workers 4 must produce byte-identical artifacts to the
#      --workers 1 run from gate 5, and the parallel-crawl bench
#      records the speedup trajectory into target/BENCH_report.json
#   8. serving layer: the quickstart loopback run (real HTTP/1.1 server
#      + sockets) must report parity with the simulated crawl in
#      target/PARITY_loopback.json, and the httpd bench records
#      req/s + latency percentiles into target/BENCH_report.json
#   9. economy determinism: the quickstart campaign with --scenario all
#      must produce byte-identical ECONOMY_report.json +
#      ECONOMY_events.jsonl across two clean runs, across --workers 1
#      vs 4, and across a kill-at-2/resume cycle (proving the economy
#      WAL record kinds survive crash recovery); the economy bench
#      records events/sec into target/BENCH_report.json
#  10. live ops plane: two campaigns run with --ops (the
#      ops.acctrade.local vhost is scraped over real sockets mid-run,
#      and the quickstart exits 6 unless the final /metrics scrape
#      reconciles with the manifest); their virtual-time
#      TRACE_report.json files must be byte-identical across workers
#      1 vs 4; and the TRACE/BENCH/ECONOMY artifacts must pass
#      validate_manifest
#  11. conformance v2 + perf budget: the LINT report and the committed
#      ARCH baseline must pass validate_manifest's schema checks; the
#      analyzer gate is proven to have teeth by three injected
#      violations (an undeclared manifest edge, an undocumented unsafe
#      block, a blocking call on a reactor path), each of which must
#      drive the analyzer to a nonzero exit with the tree restored and
#      re-proven clean afterwards; the lint bench records the
#      graph-resolution pass; and the accumulated bench report must sit
#      inside BENCH_budget.json (with a deliberately degraded budget
#      proven to fail the gate)

set -uo pipefail

cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

fail=0

# 1. Release build of every crate, offline.
run cargo build --release --offline --workspace || fail=1

# 2. The full test suite (unit + integration + property + doc), offline,
#    then the end-to-end benchmark's own tests: `e2ebench/` is a separate
#    workspace, so the workspace build never compiles it and an API change
#    that breaks the benchmark would otherwise surface only at bench time.
#    One test thread: each test checks that timed layers add up to the
#    measured total, which concurrent tests competing for the CPUs upset.
run cargo test -q --offline --workspace || fail=1
run cargo test --release --offline --manifest-path e2ebench/Cargo.toml -- --test-threads=1 || fail=1

if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (build or tests)"
    exit 1
fi

# 3. Clippy, gating when the toolchain provides it.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --offline --workspace --all-targets -- -D warnings || fail=1
    if [ "$fail" -ne 0 ]; then
        echo
        echo "ci: FAILED (clippy)"
        exit 1
    fi
    echo "ci: clippy clean"
else
    echo
    echo "ci: clippy unavailable on this toolchain — skipping (not a failure)"
fi

# 4. Telemetry-manifest gate: the quickstart run must emit a well-formed
#    target/TELEMETRY_report.json.
rm -f target/TELEMETRY_report.json
run cargo run --release --offline --example quickstart || fail=1
if [ "$fail" -ne 0 ] || [ ! -f target/TELEMETRY_report.json ]; then
    echo
    echo "ci: FAILED (quickstart did not produce target/TELEMETRY_report.json)"
    exit 1
fi
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/TELEMETRY_report.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (telemetry manifest invalid)"
    exit 1
fi

# 5. Crash-recovery gate: kill a persisted campaign mid-run, resume it,
#    and demand byte-identical artifacts versus a clean same-seed run.
rm -rf target/store/ci-clean target/store/ci-crash target/gate-clean target/gate-crash

run cargo run --release --offline --example quickstart -- --campaign \
    --store-dir target/store/ci-clean --out target/gate-clean || fail=1

echo
echo "==> cargo run --release --offline --example quickstart -- --campaign" \
     "--store-dir target/store/ci-crash --kill-at 2   (expecting exit code 3)"
cargo run --release --offline --example quickstart -- --campaign \
    --store-dir target/store/ci-crash --kill-at 2
kill_status=$?
if [ "$kill_status" -ne 3 ]; then
    echo
    echo "ci: FAILED (injected kill exited with $kill_status, expected 3)"
    exit 1
fi

run cargo run --release --offline --example quickstart -- --campaign \
    --store-dir target/store/ci-crash --resume --out target/gate-crash || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (crash-recovery runs did not complete)"
    exit 1
fi

run cmp target/gate-clean/dataset.json target/gate-crash/dataset.json || fail=1
run cmp target/gate-clean/TELEMETRY_deterministic.txt \
        target/gate-crash/TELEMETRY_deterministic.txt || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (resumed campaign artifacts differ from the clean run)"
    exit 1
fi
echo "ci: crash-recovery artifacts byte-identical"

# 6. Conformance gate: the tree must lint clean, and the report must be
#    deterministic — two runs, byte-compared.
rm -f target/LINT_report.json target/LINT_report.second.json

run cargo run --release --offline -p acctrade-conformance -- \
    --out target/LINT_report.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (conformance findings — see lines above)"
    exit 1
fi
run cargo run --release --offline -p acctrade-conformance -- --quiet \
    --out target/LINT_report.second.json || fail=1
run cmp target/LINT_report.json target/LINT_report.second.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (conformance report not deterministic across runs)"
    exit 1
fi
echo "ci: conformance clean, report deterministic"

# 7. Parallel-determinism gate: the same campaign on 4 crawl workers
#    must be byte-identical to the sequential gate-5 run, and the
#    parallel-crawl bench records the speedup trajectory.
rm -rf target/store/ci-parallel target/gate-parallel

run cargo run --release --offline --example quickstart -- --campaign \
    --store-dir target/store/ci-parallel --workers 4 --out target/gate-parallel || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (parallel campaign run did not complete)"
    exit 1
fi

run cmp target/gate-clean/dataset.json target/gate-parallel/dataset.json || fail=1
run cmp target/gate-clean/TELEMETRY_deterministic.txt \
        target/gate-parallel/TELEMETRY_deterministic.txt || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (--workers 4 artifacts differ from --workers 1)"
    exit 1
fi
echo "ci: campaign artifacts byte-identical at 1 and 4 workers"

echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline" \
     "-p acctrade-bench --bench parallel_crawl"
# Absolute path: cargo runs bench binaries from the package directory,
# not the workspace root.
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline \
    -p acctrade-bench --bench parallel_crawl || fail=1
if [ "$fail" -ne 0 ] || [ ! -f target/BENCH_report.json ]; then
    echo
    echo "ci: FAILED (parallel-crawl bench did not record target/BENCH_report.json)"
    exit 1
fi
echo "ci: parallel-crawl speedup trajectory recorded in target/BENCH_report.json"

# 8. Serving-layer gate: the quickstart loopback run crawls a real
#    HTTP/1.1 server over real sockets and must surface the exact same
#    offers as the simulated fabric; the httpd bench then records
#    keep-alive throughput + latency percentiles.
rm -f target/PARITY_loopback.json

run cargo run --release --offline --example quickstart -- --transport loopback || fail=1
if [ "$fail" -ne 0 ] || [ ! -f target/PARITY_loopback.json ]; then
    echo
    echo "ci: FAILED (loopback run did not produce target/PARITY_loopback.json)"
    exit 1
fi
if ! grep -q '"parity": true' target/PARITY_loopback.json; then
    echo
    echo "ci: FAILED (loopback crawl diverged from the simulated crawl)"
    cat target/PARITY_loopback.json
    exit 1
fi
echo "ci: loopback crawl byte-identical to simulated crawl (after normalization)"

echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline" \
     "-p acctrade-bench --bench httpd"
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline \
    -p acctrade-bench --bench httpd || fail=1
if [ "$fail" -ne 0 ] || ! grep -q '"httpd/keepalive_throughput"' target/BENCH_report.json; then
    echo
    echo "ci: FAILED (httpd bench did not record httpd/ entries in target/BENCH_report.json)"
    exit 1
fi
echo "ci: httpd throughput + latency percentiles recorded in target/BENCH_report.json"

# 9. Economy-determinism gate: the live economy (escrow orders, price
#    trajectories, bot inventory) must be byte-identical run to run,
#    across worker counts, and across a crash/resume cycle — the resume
#    path replays the economy WAL record kinds and verifies the rebuilt
#    stream against them.
rm -rf target/store/ci-econ-a target/store/ci-econ-b target/store/ci-econ-par \
       target/store/ci-econ-crash \
       target/gate-econ-a target/gate-econ-b target/gate-econ-par target/gate-econ-crash

run cargo run --release --offline --example quickstart -- --campaign --scenario all \
    --store-dir target/store/ci-econ-a --out target/gate-econ-a || fail=1
run cargo run --release --offline --example quickstart -- --campaign --scenario all \
    --store-dir target/store/ci-econ-b --out target/gate-econ-b || fail=1
run cargo run --release --offline --example quickstart -- --campaign --scenario all \
    --store-dir target/store/ci-econ-par --workers 4 --out target/gate-econ-par || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (economy campaign runs did not complete)"
    exit 1
fi

echo
echo "==> cargo run --release --offline --example quickstart -- --campaign --scenario all" \
     "--store-dir target/store/ci-econ-crash --kill-at 2   (expecting exit code 3)"
cargo run --release --offline --example quickstart -- --campaign --scenario all \
    --store-dir target/store/ci-econ-crash --kill-at 2
kill_status=$?
if [ "$kill_status" -ne 3 ]; then
    echo
    echo "ci: FAILED (economy injected kill exited with $kill_status, expected 3)"
    exit 1
fi
run cargo run --release --offline --example quickstart -- --campaign --scenario all \
    --store-dir target/store/ci-econ-crash --resume --out target/gate-econ-crash || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (economy crash-recovery run did not complete)"
    exit 1
fi

for variant in gate-econ-b gate-econ-par gate-econ-crash; do
    run cmp target/gate-econ-a/ECONOMY_report.json "target/$variant/ECONOMY_report.json" || fail=1
    run cmp target/gate-econ-a/ECONOMY_events.jsonl "target/$variant/ECONOMY_events.jsonl" || fail=1
    run cmp target/gate-econ-a/dataset.json "target/$variant/dataset.json" || fail=1
done
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (economy artifacts differ across runs/workers/resume)"
    exit 1
fi
echo "ci: economy artifacts byte-identical across reruns, 1 vs 4 workers, and kill/resume"

echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline" \
     "-p acctrade-bench --bench economy"
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline \
    -p acctrade-bench --bench economy || fail=1
if [ "$fail" -ne 0 ] || ! grep -q '"economy/scenario_all_campaign"' target/BENCH_report.json; then
    echo
    echo "ci: FAILED (economy bench did not record economy/ entries in target/BENCH_report.json)"
    exit 1
fi
echo "ci: economy simulation throughput recorded in target/BENCH_report.json"

# 10. Ops-plane gate. Two campaigns run with the live ops vhost
#     mounted: the quickstart itself scrapes /metrics over real
#     loopback sockets while the study executes and exits 6 unless the
#     final scrape reconciles with TELEMETRY_report.json. The exported
#     virtual-time Chrome traces must be byte-identical across
#     --workers 1 vs 4 (and hence across the double run), and the JSON
#     artifacts must pass validate_manifest's schema checks.
rm -rf target/store/ci-ops-a target/store/ci-ops-b target/gate-ops-a target/gate-ops-b

run cargo run --release --offline --example quickstart -- --campaign \
    --ops 127.0.0.1:0 --trace-out target/gate-ops-a/TRACE_report.json \
    --store-dir target/store/ci-ops-a --out target/gate-ops-a || fail=1
run cargo run --release --offline --example quickstart -- --campaign --workers 4 \
    --ops 127.0.0.1:0 --trace-out target/gate-ops-b/TRACE_report.json \
    --store-dir target/store/ci-ops-b --out target/gate-ops-b || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (ops campaigns did not complete with /metrics reconciled — exit 6" \
         "means the live scrape disagreed with the manifest)"
    exit 1
fi

for artifact in OPS_metrics.prom OPS_statz.json OPS_tracez.json TRACE_wall.json; do
    if [ ! -s "target/gate-ops-a/$artifact" ]; then
        echo
        echo "ci: FAILED (ops campaign did not write $artifact)"
        exit 1
    fi
done
if ! grep -q 'source="campaign"' target/gate-ops-a/OPS_metrics.prom \
    || ! grep -q 'source="server"' target/gate-ops-a/OPS_metrics.prom; then
    echo
    echo "ci: FAILED (OPS_metrics.prom is missing the campaign/server source split)"
    exit 1
fi
echo "ci: ops vhost scraped mid-run over real sockets; /metrics reconciled with the manifest"

run cmp target/gate-ops-a/TRACE_report.json target/gate-ops-b/TRACE_report.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (virtual-time traces differ across --workers 1 vs 4)"
    exit 1
fi
echo "ci: virtual-time TRACE_report.json byte-identical across runs and worker counts"

run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/gate-ops-a/TRACE_report.json || fail=1
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/gate-ops-a/TRACE_wall.json || fail=1
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/gate-econ-a/ECONOMY_report.json || fail=1

echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline" \
     "-p acctrade-bench --bench store"
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline \
    -p acctrade-bench --bench store || fail=1
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/BENCH_report.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (TRACE/BENCH/ECONOMY artifacts did not pass schema validation)"
    exit 1
fi
echo "ci: TRACE/BENCH/ECONOMY artifacts pass validate_manifest schema checks"

# 11. Conformance-v2 + perf-budget gate. The LINT report from gate 6
#     and the committed architecture baseline must pass
#     validate_manifest's schema checks; then the analyzer gate is
#     proven to have teeth: three violations are injected one at a
#     time — an undeclared manifest edge (the baseline-diff rule), an
#     undocumented unsafe block (unsafe-audit), and a thread::sleep in
#     a reactor-path file (blocking-call) — and each must drive the
#     analyzer to a nonzero exit. The tree is restored after each
#     injection and re-proven clean (byte-identical to the gate-6
#     report). Finally the lint bench records the graph-resolution
#     pass and the accumulated bench report must sit inside the
#     committed perf budget — with a deliberately degraded budget
#     proven to fail.
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/LINT_report.json || fail=1
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    ARCH_baseline.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (LINT/ARCH artifacts did not pass schema validation)"
    exit 1
fi

conformance_must_fail() {
    echo
    echo "==> cargo run --release --offline -p acctrade-conformance -- --quiet" \
         "  (expecting findings: $1)"
    if cargo run --release --offline -p acctrade-conformance -- --quiet \
        --out target/LINT_must_fail.json; then
        echo
        echo "ci: FAILED (injected $1 did not fail the conformance gate)"
        return 1
    fi
    echo "ci: injected $1 correctly failed the analyzer"
    return 0
}

# a. Undeclared manifest edge: a dependency appears in a Cargo.toml
#    without ARCH_baseline.json being regenerated alongside it.
cp crates/net/Cargo.toml target/ci-net-manifest.bak
sed -i 's/^acctrade-telemetry.workspace = true$/acctrade-telemetry.workspace = true\nacctrade-html.workspace = true/' \
    crates/net/Cargo.toml
conformance_must_fail "undeclared arch edge (net -> html)" || fail=1
mv target/ci-net-manifest.bak crates/net/Cargo.toml

# b. An unsafe block with no SAFETY comment.
cp crates/text/src/stopwords.rs target/ci-stopwords.bak
printf '\nfn ci_injected_unsafe() {\n    unsafe { std::ptr::null::<u8>(); }\n}\n' \
    >> crates/text/src/stopwords.rs
conformance_must_fail "unsafe block without SAFETY comment" || fail=1
mv target/ci-stopwords.bak crates/text/src/stopwords.rs

# c. A blocking call in a reactor-path file.
cp crates/net/src/url.rs target/ci-url.bak
printf '\nfn ci_injected_nap() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n' \
    >> crates/net/src/url.rs
conformance_must_fail "thread::sleep on a reactor path" || fail=1
mv target/ci-url.bak crates/net/src/url.rs

if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (a conformance must-fail injection was not caught)"
    exit 1
fi

# The restored tree must scan clean again, byte-identical to gate 6 —
# proving both the analyzer and the restore.
run cargo run --release --offline -p acctrade-conformance -- --quiet \
    --out target/LINT_report.restored.json || fail=1
run cmp target/LINT_report.json target/LINT_report.restored.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (tree not clean after must-fail injections were restored)"
    exit 1
fi
echo "ci: all three injected violations caught; restored tree scans clean"

echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline" \
     "-p acctrade-bench --bench lint"
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline \
    -p acctrade-bench --bench lint || fail=1
if [ "$fail" -ne 0 ] || ! grep -q '"graph_resolution/resolve_workspace"' target/BENCH_report.json; then
    echo
    echo "ci: FAILED (lint bench did not record graph_resolution/ entries in target/BENCH_report.json)"
    exit 1
fi
echo "ci: conformance scanner + graph-resolution timings recorded in target/BENCH_report.json"

run cargo run --release --offline -p acctrade-bench --bin bench_budget -- \
    target/BENCH_report.json BENCH_budget.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (bench report regressed outside BENCH_budget.json)"
    exit 1
fi

# The gate must have teeth: a budget demanding impossible throughput
# has to fail against the very same report.
sed 's/"min": 15000/"min": 99000000/' BENCH_budget.json > target/BENCH_budget_degraded.json
echo
echo "==> cargo run --release --offline -p acctrade-bench --bin bench_budget --" \
     "target/BENCH_report.json target/BENCH_budget_degraded.json   (expecting failure)"
if cargo run --release --offline -p acctrade-bench --bin bench_budget -- \
    target/BENCH_report.json target/BENCH_budget_degraded.json; then
    echo
    echo "ci: FAILED (degraded perf budget did not fail the gate)"
    exit 1
fi
echo "ci: perf budget holds, and a degraded budget demonstrably fails the gate"

echo
echo "ci: OK"
