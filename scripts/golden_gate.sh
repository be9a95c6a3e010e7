#!/usr/bin/env bash
# Golden gate: regenerates the quick fig9/table2 runs and diffs their
# summaries against the committed goldens under results/golden/. Run from
# any directory:
#
#   scripts/golden_gate.sh <outdir>
#
# <outdir> receives the regenerated traces and summaries plus the two
# rendered reports, fig9_slo_report.txt (`pstore-trace slo`) and
# fig9_prov_report.txt (`pstore-trace provisioning`). The experiment
# bins run inside <outdir>, so the CSVs they write land in
# <outdir>/results/, not over the committed ones. Exits non-zero at the
# first diff that fails.

set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <outdir>" >&2
    exit 2
fi
mkdir -p "$1"
OUT="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

# Runs an experiment bin (telemetry on) from inside $OUT.
bench() {
    (cd "$OUT" && cargo run -q --release --manifest-path "$ROOT/Cargo.toml" \
        -p pstore-bench --features telemetry --bin "$@")
}

trace() {
    cargo run -q --release -p pstore-telemetry --bin pstore-trace -- "$@"
}

echo "==> regenerate quick-run summaries"
bench fig9_comparison -- --quick --quiet \
    --trace "$OUT/fig9_quick.jsonl" \
    --summary "$OUT/fig9_quick.summary.json" > /dev/null
bench table2_sla -- --quick --quiet \
    --summary "$OUT/table2_quick.summary.json" > /dev/null

echo "==> diff against committed goldens (results/golden/)"
trace diff results/golden/fig9_quick.summary.json "$OUT/fig9_quick.summary.json" --verbose
trace diff results/golden/table2_quick.summary.json "$OUT/table2_quick.summary.json" --verbose

echo "==> SLA attribution report + golden gate (pstore-trace slo)"
# Reactive must blow the SLA during chunk moves and P-Store must not:
# the paper's headline result, gated via the slo.* metrics.
trace slo "$OUT/fig9_quick.jsonl" > "$OUT/fig9_slo_report.txt"
trace diff results/golden/fig9_slo_quick.summary.json "$OUT/fig9_quick.summary.json" --verbose

echo "==> provisioning report + golden gate (pstore-trace provisioning)"
# The same quick fig9 workload re-run with the prov_* event family on
# (PSTORE_PROV_EVENTS=1; the default trace above stays byte-stable
# because emission is gated). Reactive must show under-provisioned
# machine-seconds and under-forecast windows, P-Store (SPAR) must not:
# the Fig 9 capacity areas, gated via the prov.* metrics.
PSTORE_PROV_EVENTS=1 bench fig9_comparison -- --quick --quiet \
    --trace "$OUT/fig9_prov_quick.jsonl" > /dev/null
trace provisioning "$OUT/fig9_prov_quick.jsonl" \
    --summary "$OUT/fig9_prov_quick.summary.json" > "$OUT/fig9_prov_report.txt"
trace diff results/golden/fig9_prov_quick.summary.json "$OUT/fig9_prov_quick.summary.json" --verbose
