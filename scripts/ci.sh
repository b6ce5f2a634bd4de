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
#   4. benchmark package — the repository's benchmark (BENCHMARK.json,
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

echo "==> benchmark package (tests + smoke)"
BENCHMARK_MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
cargo test --offline -q --manifest-path "$BENCHMARK_MANIFEST"
cargo run --release --offline -q --manifest-path "$BENCHMARK_MANIFEST" -- --smoke

echo "==> CI green"
