#!/usr/bin/env bash
# CI entry point for the acctrade workspace.
#
# The workspace is zero-dependency (std + the in-tree `foundation` crate
# only), so everything here runs fully offline — no registry, no network.
#
#   ./ci.sh
#
# Every guarantee the project claims (determinism across seeds and
# worker counts, kill/resume byte identity, sim/loopback parity, the
# ops-plane reconciliation, the quickstart's exit codes, a lint-clean
# tree and the analyzer's must-fail cases) is a test, so step 2 proves
# them all. The rest is what tests cannot do:
#
#   1. release build
#   2. the full test suite (every workspace crate, plus the quickstart
#      example's own tests) under a fresh TMPDIR that it must leave
#      empty, then the e2ebench workspace's own tests
#   3. clippy -D warnings (skipped gracefully when the toolchain ships
#      without clippy)
#   4. the parallel_crawl, httpd, economy, store, lint, scam_pipeline and
#      extract benches record into target/BENCH_report.json, which must pass
#      validate_manifest's schema check and sit inside BENCH_budget.json
#      (httpd records keep-alive req/s twice: plain, and with an ops plane
#      mounted so the trace rings are on the request path) — with a
#      deliberately degraded budget proven to fail the gate

set -uo pipefail

cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

fail=0

# 1. Release build of every crate, offline.
run cargo build --release --offline || fail=1

# 2. The full test suite (unit + integration + property + doc + the
#    quickstart's CLI tests), offline, then the end-to-end benchmark's
#    own tests: `e2ebench/` is a separate workspace, so the workspace
#    build never compiles it and an API change that breaks the benchmark
#    would otherwise surface only at bench time. One test thread: each
#    test checks that timed layers add up to the measured total, which
#    concurrent tests competing for the CPUs upset. Tests must clean up
#    after themselves: anything left in their TMPDIR fails the step.
tests_tmp=$(mktemp -d)
run env TMPDIR="$tests_tmp" cargo test -q --offline || fail=1
if [ -n "$(ls -A "$tests_tmp")" ]; then
    echo "ci: tests left files behind in TMPDIR:"
    ls -A "$tests_tmp"
    fail=1
fi
rm -rf "$tests_tmp"
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

# 4. Perf budget. The benches merge their stats into one fresh report
#    (an absolute path: cargo runs bench binaries from the package
#    directory, not the workspace root).
rm -f target/BENCH_report.json
echo
echo "==> BENCH_REPORT_PATH=target/BENCH_report.json cargo bench --offline -p acctrade-bench" \
     "--bench parallel_crawl --bench httpd --bench economy --bench store --bench lint" \
     "--bench scam_pipeline --bench extract"
BENCH_REPORT_PATH="$PWD/target/BENCH_report.json" cargo bench --offline -p acctrade-bench \
    --bench parallel_crawl --bench httpd --bench economy --bench store --bench lint \
    --bench scam_pipeline --bench extract || fail=1
run cargo run --release --offline -p acctrade-telemetry --bin validate_manifest -- \
    target/BENCH_report.json || fail=1
run cargo run --release --offline -p acctrade-bench --bin bench_budget -- \
    target/BENCH_report.json BENCH_budget.json || fail=1
if [ "$fail" -ne 0 ]; then
    echo
    echo "ci: FAILED (benches did not record, or the report left BENCH_budget.json)"
    exit 1
fi

# The gate must have teeth: a budget demanding impossible throughput
# (both httpd floors) has to fail against the very same report.
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
