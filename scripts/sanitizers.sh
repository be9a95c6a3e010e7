#!/usr/bin/env bash
# Sanitizer sweep for the concurrency-bearing code paths. Run from the
# repository root:
#
#   scripts/sanitizers.sh            # thread + address sanitizers
#   scripts/sanitizers.sh thread     # one sanitizer only
#
# ThreadSanitizer exercises the *real* thread interleavings that the loom
# models explore symbolically: the vendored rayon pool, the fault-injected
# parallel sweeps, and the telemetry sink/exposer handoff. AddressSanitizer
# covers the same targets for memory errors that miri cannot reach once
# real threads are involved.
#
# Requirements (both checked; the script SKIPS cleanly when absent, like
# the miri step of static_analysis.sh, so offline toolchains still pass):
#   * a nightly toolchain (`-Zsanitizer` / `-Zbuild-std` are unstable);
#   * the nightly `rust-src` component (std must be rebuilt instrumented).

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=("${@:-thread}")
if [[ $# -eq 0 ]]; then
    SANITIZERS=(thread address)
fi

step() {
    echo
    echo "==> $*"
}

if ! cargo +nightly --version > /dev/null 2>&1; then
    step "sanitizers: skipped (no nightly toolchain installed)"
    exit 0
fi
SYSROOT="$(rustc +nightly --print sysroot)"
if [[ ! -d "$SYSROOT/lib/rustlib/src/rust/library" ]]; then
    step "sanitizers: skipped (nightly rust-src component not installed)"
    exit 0
fi
HOST="$(rustc +nightly -vV | sed -n 's/^host: //p')"

# The sanitizer-instrumented targets. Each entry is "<cargo args>": the
# vendored pool's own tests, the fault-injected sweep suite that drives
# it from pstore-bench, the telemetry sink/exposer tests, and the
# execution engine's unit tests (memory errors under ASan).
TARGETS=(
    "-p rayon --lib"
    "-p pstore-bench --lib"
    "-p pstore-telemetry --lib"
    "-p pstore-dbms --lib"
)

for SAN in "${SANITIZERS[@]}"; do
    for T in "${TARGETS[@]}"; do
        step "cargo +nightly test ($SAN sanitizer) $T"
        # -Zbuild-std rebuilds std instrumented so the sanitizer sees
        # through its synchronisation primitives; separate target dirs
        # keep the per-sanitizer caches from clobbering each other.
        # shellcheck disable=SC2086
        RUSTFLAGS="-Zsanitizer=$SAN" \
        CARGO_TARGET_DIR="target/san-$SAN" \
            cargo +nightly test -q -Zbuild-std --target "$HOST" $T
    done
    step "pstore-verify sweep incl. ISO serializability phase ($SAN sanitizer)"
    # The full invariant sweep (the CON-01..03 pool checks plus the
    # ISO-01..03 key-level history phase) under real instrumented
    # threads.
    RUSTFLAGS="-Zsanitizer=$SAN" \
    CARGO_TARGET_DIR="target/san-$SAN" \
        cargo +nightly run -q -Zbuild-std --target "$HOST" \
        -p pstore-verify --features telemetry
done

echo
echo "sanitizers: all checks passed"
