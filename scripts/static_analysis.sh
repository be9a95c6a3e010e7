#!/usr/bin/env bash
# Static-analysis gate for the workspace. Run from the repository root.
#
#   scripts/static_analysis.sh          # full gate (fmt, clippy, verify, proptests)
#   scripts/static_analysis.sh --quick  # skip the proptest suites
#
# Every step must pass; the script stops at the first failure.
#
# Runtime sanitizers (TSan/ASan over the thread-bearing crates) live in
# scripts/sanitizers.sh — separate because they need a nightly toolchain
# with rust-src and rebuild std, which is too slow for this gate.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

step() {
    echo
    echo "==> $*"
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

step "cargo clippy (telemetry feature) -- -D warnings"
cargo clippy -q -p pstore-bench -p pstore-sim --all-targets \
    --features telemetry -- -D warnings

step "pstore-lint: project-specific static analysis (SA-00..06)"
# Source-level rules clippy cannot express: invariant-registry coherence,
# telemetry kind/span discipline, determinism, concurrency hygiene,
# SAFETY comments, #[allow] justifications. See docs/static_analysis.md.
cargo run -q --release -p pstore-lint

step "pstore-verify invariant sweep (incl. ISO and PRV phases)"
# The telemetry feature arms the ISO and PRV phases: fixed-seed
# detailed runs whose captured traces go through the ISO/PRV checkers
# and the TEL/TXN battery.
cargo run -q --release -p pstore-verify --features telemetry

step "microbenchmarks compile (cargo bench --no-run)"
cargo bench -q --no-run

step "perf baseline smoke + sweep determinism (--threads 1 vs 2)"
BENCH_T1="$(mktemp /tmp/pstore-bench-t1.XXXXXX.json)"
BENCH_T2="$(mktemp /tmp/pstore-bench-t2.XXXXXX.json)"
# The serial run is also gated against the committed baseline: it must
# keep >= 95% of BENCH_sim.json's throughput.
cargo run -q --release -p pstore-bench --bin bench_baseline -- \
    --quick --threads 1 --quiet --out "$BENCH_T1" \
    --check-against BENCH_sim.json > /dev/null
cargo run -q --release -p pstore-bench --bin bench_baseline -- \
    --quick --threads 2 --quiet --out "$BENCH_T2" > /dev/null
# Timing fields legitimately differ; the simulation counters must not
# differ across thread counts.
diff <(grep -E 'committed_txns|dropped_txns|"cells"' "$BENCH_T1") \
     <(grep -E 'committed_txns|dropped_txns|"cells"' "$BENCH_T2")
rm -f "$BENCH_T1" "$BENCH_T2"

step "telemetry smoke: traced run + live exposition + pstore-trace validation"
TRACE_FILE="$(mktemp /tmp/pstore-smoke.XXXXXX.jsonl)"
SMOKE_SUMMARY="$(mktemp /tmp/pstore-smoke.XXXXXX.summary.json)"
trap 'rm -f "$TRACE_FILE" "$SMOKE_SUMMARY"' EXIT
# --expose-metrics 0 serves live Prometheus text on an ephemeral port;
# the smoke binary scrapes itself once and asserts the format.
cargo run -q --release -p pstore-bench --features telemetry \
    --bin telemetry_smoke -- --quiet --trace "$TRACE_FILE" \
    --summary "$SMOKE_SUMMARY" --expose-metrics 0
# pstore-trace exits 1 on parse errors, unmatched spans, or ordering
# violations (TEL-01/02/04).
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- report "$TRACE_FILE"
# The profiler, timeline, and slo attribution must all render the trace.
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    profile "$TRACE_FILE" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    timeline "$TRACE_FILE" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    slo "$TRACE_FILE" > /dev/null
# A run diffed against its own summary must be clean.
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    diff "$SMOKE_SUMMARY" "$TRACE_FILE"

step "trace-diff regression gate vs results/golden/ (two --quick runs)"
GOLDEN_TMP="$(mktemp -d /tmp/pstore-golden.XXXXXX)"
cargo run -q --release -p pstore-bench --features telemetry \
    --bin fig9_comparison -- --quick --quiet \
    --trace "$GOLDEN_TMP/fig9_quick.jsonl" \
    --summary "$GOLDEN_TMP/fig9_quick.summary.json" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    diff results/golden/fig9_quick.summary.json "$GOLDEN_TMP/fig9_quick.summary.json"
# SLA attribution: the slo report must render, and its slo.* metrics must
# match the committed golden (reactive blows the SLA during chunk moves,
# P-Store does not — the paper's headline, regression-gated).
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    slo "$GOLDEN_TMP/fig9_quick.jsonl" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    diff results/golden/fig9_slo_quick.summary.json "$GOLDEN_TMP/fig9_quick.summary.json"
cargo run -q --release -p pstore-bench --features telemetry \
    --bin table2_sla -- --quick --quiet \
    --summary "$GOLDEN_TMP/table2_quick.summary.json" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    diff results/golden/table2_quick.summary.json "$GOLDEN_TMP/table2_quick.summary.json"
# Provisioning observatory: the same quick workload with the prov_*
# family enabled (the default run above stays byte-stable because
# emission is gated). Reactive must under-provision, P-Store must not;
# gated via the prov.* metrics in the committed golden.
PSTORE_PROV_EVENTS=1 cargo run -q --release -p pstore-bench --features telemetry \
    --bin fig9_comparison -- --quick --quiet \
    --trace "$GOLDEN_TMP/fig9_prov_quick.jsonl" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    provisioning "$GOLDEN_TMP/fig9_prov_quick.jsonl" \
    --summary "$GOLDEN_TMP/fig9_prov_quick.summary.json" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    diff results/golden/fig9_prov_quick.summary.json "$GOLDEN_TMP/fig9_prov_quick.summary.json"
rm -rf "$GOLDEN_TMP"

if [[ "$QUICK" == "0" ]]; then
    step "property-test suites"
    cargo test -q -p pstore-verify --tests
    step "pstore-sim tests with telemetry feature"
    cargo test -q -p pstore-sim --features telemetry
    step "loom model checking: thread-pool concurrency invariants (CON-01..03)"
    # Exhaustively explores the pool's interleavings with its primitives
    # swapped to the vendored loom types (see docs/invariants.md).
    RUSTFLAGS="--cfg loom" cargo test -q -p rayon --release
    if cargo miri --version > /dev/null 2>&1; then
        step "cargo miri test: UB check on core crates + dbms engine"
        cargo miri test -q -p pstore-core -p pstore-forecast -p pstore-dbms
        step "cargo miri test: telemetry unit tests"
        # Lib tests only: the trace_cli integration test spawns the
        # pstore-trace binary (unsupported under miri) and the proptest
        # suite is impractically slow there. Socket/file-I/O unit tests
        # carry #[cfg_attr(miri, ignore)].
        cargo miri test -q -p pstore-telemetry --lib
        step "cargo miri test: verify checker unit tests"
        # Lib tests only: the pure checker logic (ISO-01..03 DSG
        # construction and cycle detection included). The runtime
        # sweeps that spawn threads and run full simulations carry
        # #[cfg_attr(miri, ignore)].
        cargo miri test -q -p pstore-verify --lib
    else
        step "cargo miri test: skipped (miri not installed on this toolchain)"
    fi
    step "fig9 serial-vs-parallel determinism (release, ~4 min)"
    cargo test -q --release -p pstore-bench --test sweep_determinism \
        -- --ignored
fi

echo
echo "static analysis: all checks passed"
