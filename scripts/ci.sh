#!/usr/bin/env bash
# CI: the gate is `cargo test` — every protocol and CLI property is
# asserted there, through `automon_cli::dispatch` where `main` enters.
# This script adds what a test cannot hold. Run from the repository root.
#
#   scripts/ci.sh
#
# Steps:
#   1. release build of the whole workspace
#   2. full test suite
#   3. clippy, warnings denied
#   4. zero-overhead bench smoke — decompose_observed with
#      Telemetry::disabled() must cost what the bare decompose costs
#      (DESIGN.md §3.9's near-no-op contract). The bench runs three
#      times; each repetition yields its own disabled/bare ratio from two
#      timings taken seconds apart in one process, and the step fails
#      only if the *smallest* ratio exceeds 1 + BENCH_SMOKE_TOLERANCE
#      (default 10%). A real overhead inflates every repetition's ratio;
#      a busy sibling core inflates one of a repetition's two timings and
#      so only some of the ratios.
#   5. benchmark package — the repository's benchmark (BENCHMARK.json,
#      crates/bench/src/bin/benchmark/) is a package outside the
#      workspace, so steps 1–3 never compile it and a public-API break
#      in core/net/linalg would first show when the pipeline runs it.
#      Build it, run its unit tests, and run its `--smoke` (all five
#      workloads at tiny sizes, untraced and traced, checks only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> zero-overhead bench smoke (tolerance ${BENCH_SMOKE_TOLERANCE:-0.10})"
for _ in 1 2 3; do
    cargo bench -q -p automon-bench --bench obs_overhead 2>&1 | grep '^BENCHLINE' || true
done | awk -v tol="${BENCH_SMOKE_TOLERANCE:-0.10}" '
    $3 == "median_ns" { split($2, key, "/"); ns[key[2], key[3], ++seen[key[2], key[3]]] = $4 }
    END {
        for (d = 10; d <= 40; d += 30) {
            reps = seen["decompose_bare", d]
            if (!reps || reps != seen["decompose_disabled_tel", d]) {
                print "FAIL: d=" d ": missing BENCHLINE output"; failed = 1; continue
            }
            min = ""; ratios = ""
            for (i = 1; i <= reps; i++) {
                ratio = ns["decompose_disabled_tel", d, i] / ns["decompose_bare", d, i]
                ratios = ratios sprintf(" %.3f", ratio)
                if (min == "" || ratio < min) min = ratio
            }
            printf "    d=%d: disabled/bare per repetition%s (min %.3f)\n", d, ratios, min
            if (min > 1 + tol) {
                print "FAIL: d=" d ": disabled telemetry exceeds bare by more than " tol \
                    " in every repetition"; failed = 1
            }
        }
        exit failed
    }'
echo "    disabled telemetry within noise of bare decompose"

echo "==> benchmark package (tests + smoke)"
BENCHMARK_MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
cargo test --offline -q --manifest-path "$BENCHMARK_MANIFEST"
cargo run --release --offline -q --manifest-path "$BENCHMARK_MANIFEST" -- --smoke

echo "==> CI green"
