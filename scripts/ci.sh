#!/usr/bin/env bash
# CI gate: everything a PR must pass, in the order a failure is
# cheapest to diagnose. Run from the repository root.
#
#   scripts/ci.sh
#
# Steps:
#   1. release build of the whole workspace
#   2. full test suite
#   3. clippy, warnings denied
#   4. chaos determinism + link parity smoke — (a) the same --chaos-seed
#      must produce a byte-identical report (DESIGN.md §3.8); catches
#      any accidental nondeterminism (HashMap iteration, extra RNG
#      draws, time). (b) One round driver serves every link: a plain run
#      and the same run under a zero-rate fault plan (--chaos-seed 1,
#      which swaps the bare fabric for the chaos fabric) must agree on
#      every stats key they share — for inner-product (constant Hessian,
#      never tunes) and for rozenbrock (Algorithm 2 tunes r first, with
#      or without a plan).
#   5. zero-overhead bench smoke — decompose_observed with
#      Telemetry::disabled() must cost what the bare decompose costs
#      (DESIGN.md §3.9's near-no-op contract). The bench runs three
#      times; each repetition yields its own disabled/bare ratio from two
#      timings taken seconds apart in one process, and the step fails
#      only if the *smallest* ratio exceeds 1 + BENCH_SMOKE_TOLERANCE
#      (default 10%). A real overhead inflates every repetition's ratio;
#      a busy sibling core inflates one of a repetition's two timings and
#      so only some of the ratios.
#   6. spectral parity smoke — Jacobi, QL, and Lanczos must agree on a
#      fixed-seed d=40 symmetric matrix (DESIGN.md §3.10); catches any
#      drift between the production QL/Lanczos kernels and the Jacobi
#      oracle before the proptest suite would.
#   7. decomposition-cache parity smoke — enabling --decomp-cache must
#      leave the simulate output byte-identical to the cache-off run
#      (DESIGN.md §3.11's bit-identity contract), and the cached run's
#      --metrics-out must show cache misses, i.e. the cache really was
#      consulted; the retired knobs (`--decomp-cache arc`,
#      `--decomp-cache-warm`) must exit non-zero, not run something else.
#   8. trace determinism + diff smoke — same-seed runs must emit
#      byte-identical --trace-out files (`automon trace diff` exits 0);
#      a perturbed run must be pinpointed with its first divergent seq
#      and span path (DESIGN.md §3.12).
#   9. ledger conservation + summarize smoke — the per-cause ledger in
#      the --json output must sum exactly to messages/payload_bytes,
#      and `automon trace summarize` must render the bytes/update-by-
#      cause table, for inner-product and variance.
#  10. crash-coordinator determinism smoke — killing the coordinator
#      mid-run and rebuilding it from the durable store must stay
#      byte-deterministic: same seed + --crash-coordinator gives an
#      identical --json report and a byte-identical trace (`automon
#      trace diff` exits 0), with the recovery resync charged to the
#      `recovery` ledger cause (docs/DURABILITY.md).
#  11. fleet determinism smoke — the two-tier sharded run (1k streams,
#      8 shards, a node crash/restart and a leaf crash) must be
#      byte-deterministic: two identical invocations give the same
#      --json report and byte-identical traces (`automon trace diff`
#      exits 0), the combined two-tier ledger must conserve the fleet's
#      message/byte totals, and the root tier must carry fewer messages
#      than the leaf tier (DESIGN.md §3.14).
#  12. net runtime smoke — every net-smoke backend is a link of the one
#      round driver (sim::Simulation); the socket backends carry each hop
#      of its FIFO cascade over real loopback sockets. (a) reactor
#      determinism: the sim-poller backend under frame-level chaos must
#      give a byte-identical --trace-out and identical stats for the
#      same seeds, and that trace must be the standard telemetry JSONL
#      (`automon trace diff` exits 0 on the pair, `trace summarize`
#      renders its by-cause table); (b) backend parity: the threaded and
#      reactor socket backends and the fault-free sim backend must print
#      the same whole `stats` object (the driver's RunStats, ledger
#      included) for the same workload seed, and the socket backends'
#      --trace-out must pass `trace diff` against the sim backend's —
#      the transport must not change what the monitor computes
#      (DESIGN.md §3.15); `cargo test` already asserts (b) in
#      crates/cli/tests/net_smoke.rs. (c) an invalid fault schedule (--drop-rate 2)
#      must end in the CLI's error exit, not in a panic (exit 101): the
#      one validator answers for every subcommand (DESIGN.md §3.8).
#  13. benchmark package — the repository's benchmark (BENCHMARK.json,
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

echo "==> chaos determinism + link parity smoke"
CHAOS_ARGS=(simulate --function inner-product --dim 4 --nodes 4
    --rounds 90 --epsilon 0.3
    --chaos-seed 7 --drop-rate 0.1 --crash-node 2:30:60 --partition 1:10:20)
run_a=$(cargo run --release -q -p automon-cli -- "${CHAOS_ARGS[@]}")
run_b=$(cargo run --release -q -p automon-cli -- "${CHAOS_ARGS[@]}")
if [[ "$run_a" != "$run_b" ]]; then
    echo "FAIL: identical --chaos-seed produced different reports" >&2
    diff <(printf '%s\n' "$run_a") <(printf '%s\n' "$run_b") >&2 || true
    exit 1
fi
if ! grep -q "quiesced" <<<"$run_a"; then
    echo "FAIL: chaos run did not reach quiescence" >&2
    printf '%s\n' "$run_a" >&2
    exit 1
fi
echo "    deterministic, quiesced"
for fn in "inner-product --dim 4" rozenbrock; do
    # shellcheck disable=SC2086  # word-split into name + its flag on purpose
    PARITY_ARGS=(simulate --function $fn --nodes 4 --rounds 90 --epsilon 0.3 --json)
    plain=$(cargo run --release -q -p automon-cli -- "${PARITY_ARGS[@]}")
    zero=$(cargo run --release -q -p automon-cli -- "${PARITY_ARGS[@]}" --chaos-seed 1)
    python3 - <<PYEOF
import json, sys

plain = json.loads("""${plain}""")
zero = json.loads("""${zero}""")
shared = sorted(set(plain) & set(zero))
bad = [k for k in shared if plain[k] != zero[k]]
if bad or "ledger" not in shared or zero.get("quiesced") is not True:
    print("FAIL: ${fn}: a zero-rate fault plan changed the run", file=sys.stderr)
    for k in bad:
        print(f"  {k}: plain={plain[k]!r} zero-rate={zero[k]!r}", file=sys.stderr)
    sys.exit(1)
print(f"    ${fn}: plain == zero-rate chaos on all {len(shared)} shared stats keys")
PYEOF
done

echo "==> zero-overhead bench smoke (tolerance ${BENCH_SMOKE_TOLERANCE:-0.10})"
BENCH_OUT=$(for _ in 1 2 3; do
    cargo bench -q -p automon-bench --bench obs_overhead 2>&1 | grep '^BENCHLINE' || true
done)
python3 - <<PYEOF
import os, sys

tol = float(os.environ.get("BENCH_SMOKE_TOLERANCE", "0.10"))
# One list of medians per key, in repetition order.
medians = {}
for line in """${BENCH_OUT}""".splitlines():
    parts = line.split()
    if len(parts) == 4 and parts[0] == "BENCHLINE" and parts[2] == "median_ns":
        medians.setdefault(parts[1], []).append(float(parts[3]))

failures = []
for d in (10, 40):
    bare = medians.get(f"obs_overhead/decompose_bare/{d}", [])
    off = medians.get(f"obs_overhead/decompose_disabled_tel/{d}", [])
    if not bare or len(bare) != len(off):
        failures.append(f"d={d}: missing BENCHLINE output")
        continue
    ratios = [o / b for o, b in zip(off, bare)]
    print(f"    d={d}: disabled/bare per repetition "
          + " ".join(f"{r:.3f}" for r in ratios) + f" (min {min(ratios):.3f})")
    if min(ratios) > 1.0 + tol:
        failures.append(
            f"d={d}: disabled telemetry exceeds bare by more than {tol:.0%} "
            f"in every repetition (smallest ratio {min(ratios):.3f})")
if failures:
    print("FAIL: disabled telemetry is not zero-overhead", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
PYEOF
echo "    disabled telemetry within noise of bare decompose"

echo "==> spectral parity smoke (d=40, seed 1)"
SMOKE_OUT=$(cargo run --release -q -p automon-cli -- spectral-smoke --dim 40 --seed 1)
if ! grep -q "PASS" <<<"$SMOKE_OUT"; then
    echo "FAIL: spectral backends disagree" >&2
    printf '%s\n' "$SMOKE_OUT" >&2
    exit 1
fi
echo "    $SMOKE_OUT"

TDIR=$(mktemp -d)
trap 'rm -rf "$TDIR"' EXIT

echo "==> decomposition-cache parity smoke"
CACHE_ARGS=(simulate --function rozenbrock --nodes 4 --rounds 90
    --epsilon 0.2 --json)
base=$(cargo run --release -q -p automon-cli -- "${CACHE_ARGS[@]}")
cached=$(cargo run --release -q -p automon-cli -- "${CACHE_ARGS[@]}" \
    --decomp-cache --metrics-out "$TDIR/cache-metrics.txt")
if [[ "$cached" != "$base" ]]; then
    echo "FAIL: --decomp-cache changed the monitoring output" >&2
    diff <(printf '%s\n' "$base") <(printf '%s\n' "$cached") >&2 || true
    exit 1
fi
misses=$(awk '$1 == "automon_coord_decomp_cache_misses_total" { print $2 }' \
    "$TDIR/cache-metrics.txt")
if [[ -z "$misses" || "$misses" -le 0 ]]; then
    echo "FAIL: the cached run never consulted the cache (misses: '${misses}')" >&2
    exit 1
fi
echo "    bit-identical to cache-off; cache consulted ($misses misses)"
for retired in "--decomp-cache arc" "--decomp-cache-warm"; do
    # shellcheck disable=SC2086  # word-split into flag + value on purpose
    if cargo run --release -q -p automon-cli -- "${CACHE_ARGS[@]}" $retired \
        >/dev/null 2>&1; then
        echo "FAIL: retired flag '$retired' was accepted" >&2
        exit 1
    fi
    echo "    $retired: rejected"
done

echo "==> trace determinism + diff smoke"
TRACE_ARGS=(simulate --function inner-product --dim 4 --nodes 3
    --rounds 80 --epsilon 0.2)
cargo run --release -q -p automon-cli -- "${TRACE_ARGS[@]}" \
    --trace-out "$TDIR/a.jsonl" >/dev/null
cargo run --release -q -p automon-cli -- "${TRACE_ARGS[@]}" \
    --trace-out "$TDIR/b.jsonl" >/dev/null
cargo run --release -q -p automon-cli -- trace diff \
    --left "$TDIR/a.jsonl" --right "$TDIR/b.jsonl" >/dev/null
cargo run --release -q -p automon-cli -- "${TRACE_ARGS[@]}" --seed 2 \
    --trace-out "$TDIR/c.jsonl" >/dev/null
if DIFF_OUT=$(cargo run --release -q -p automon-cli -- trace diff \
    --left "$TDIR/a.jsonl" --right "$TDIR/c.jsonl" 2>&1); then
    echo "FAIL: trace diff missed a perturbed run" >&2
    exit 1
fi
if ! grep -q "diverge at seq" <<<"$DIFF_OUT"; then
    echo "FAIL: divergence report lacks the first divergent seq" >&2
    printf '%s\n' "$DIFF_OUT" >&2
    exit 1
fi
if ! grep -q "span path:" <<<"$DIFF_OUT"; then
    echo "FAIL: divergence report lacks the span path" >&2
    printf '%s\n' "$DIFF_OUT" >&2
    exit 1
fi
echo "    same seed byte-identical; perturbed run pinpointed with span path"

echo "==> ledger conservation + summarize smoke"
for fn in inner-product variance; do
    JSON_OUT=$(cargo run --release -q -p automon-cli -- simulate \
        --function "$fn" --nodes 4 --rounds 80 --epsilon 0.2 --json \
        --trace-out "$TDIR/$fn.jsonl")
    python3 - <<PYEOF
import json, sys

stats = json.loads("""${JSON_OUT}""")
rows = stats.get("ledger") or []
if not rows:
    print("FAIL: ${fn}: --json output has no ledger", file=sys.stderr)
    sys.exit(1)
msgs = sum(r["msgs"] for r in rows)
nbytes = sum(r["bytes"] for r in rows)
if msgs != stats["messages"] or nbytes != stats["payload_bytes"]:
    print(f"FAIL: ${fn}: ledger ({msgs} msgs, {nbytes} B) != counters "
          f"({stats['messages']} msgs, {stats['payload_bytes']} B)",
          file=sys.stderr)
    sys.exit(1)
print(f"    ${fn}: ledger conserves {msgs} msgs / {nbytes} bytes "
      f"across {len(rows)} causes")
PYEOF
    SUMMARY=$(cargo run --release -q -p automon-cli -- trace summarize \
        --input "$TDIR/$fn.jsonl")
    if ! grep -q "comm by cause (bytes/update" <<<"$SUMMARY"; then
        echo "FAIL: $fn: summarize lacks the bytes/update-by-cause table" >&2
        printf '%s\n' "$SUMMARY" >&2
        exit 1
    fi
    if ! grep -q "registration" <<<"$SUMMARY" || ! grep -q "full_sync" <<<"$SUMMARY"; then
        echo "FAIL: $fn: summarize table is missing protocol causes" >&2
        printf '%s\n' "$SUMMARY" >&2
        exit 1
    fi
    echo "    $fn: bytes/update-by-cause table rendered"
done

echo "==> crash-coordinator determinism smoke"
CRASH_ARGS=(simulate --function inner-product --dim 4 --nodes 4
    --rounds 90 --epsilon 0.3
    --chaos-seed 7 --drop-rate 0.1 --crash-coordinator 40 --json)
crash_a=$(cargo run --release -q -p automon-cli -- "${CRASH_ARGS[@]}" \
    --trace-out "$TDIR/crash-a.jsonl")
crash_b=$(cargo run --release -q -p automon-cli -- "${CRASH_ARGS[@]}" \
    --trace-out "$TDIR/crash-b.jsonl")
if [[ "$crash_a" != "$crash_b" ]]; then
    echo "FAIL: identical --crash-coordinator runs produced different reports" >&2
    diff <(printf '%s\n' "$crash_a") <(printf '%s\n' "$crash_b") >&2 || true
    exit 1
fi
cargo run --release -q -p automon-cli -- trace diff \
    --left "$TDIR/crash-a.jsonl" --right "$TDIR/crash-b.jsonl" >/dev/null
python3 - <<PYEOF
import json, sys

stats = json.loads("""${crash_a}""")
if stats.get("coordinator_recoveries") != 1:
    print(f"FAIL: expected 1 coordinator recovery, report says "
          f"{stats.get('coordinator_recoveries')!r}", file=sys.stderr)
    sys.exit(1)
rows = [r for r in (stats.get("ledger") or []) if r["cause"] == "recovery"]
if not rows or rows[0]["msgs"] <= 0:
    print("FAIL: ledger has no recovery cause with msgs > 0", file=sys.stderr)
    sys.exit(1)
print(f"    recovery resync charged: {rows[0]['msgs']} msgs / "
      f"{rows[0]['bytes']} bytes")
PYEOF
echo "    crash/replay byte-deterministic; trace diff clean"

echo "==> fleet determinism smoke (1k streams, 8 shards)"
FLEET_ARGS=(simulate --function inner-product --dim 4 --nodes 1000
    --rounds 60 --epsilon 0.3 --fleet --shards 8
    --crash-node 3:10:25 --crash-leaf 5:30 --json)
fleet_a=$(cargo run --release -q -p automon-cli -- "${FLEET_ARGS[@]}" \
    --trace-out "$TDIR/fleet-a.jsonl")
fleet_b=$(cargo run --release -q -p automon-cli -- "${FLEET_ARGS[@]}" \
    --trace-out "$TDIR/fleet-b.jsonl")
if [[ "$fleet_a" != "$fleet_b" ]]; then
    echo "FAIL: identical fleet runs produced different reports" >&2
    diff <(printf '%s\n' "$fleet_a") <(printf '%s\n' "$fleet_b") >&2 || true
    exit 1
fi
cargo run --release -q -p automon-cli -- trace diff \
    --left "$TDIR/fleet-a.jsonl" --right "$TDIR/fleet-b.jsonl" >/dev/null
python3 - <<PYEOF
import json, sys

report = json.loads("""${fleet_a}""")
stats = report["stats"]
rows = stats.get("ledger") or []
if not rows:
    print("FAIL: fleet --json output has no combined ledger", file=sys.stderr)
    sys.exit(1)
msgs = sum(r["msgs"] for r in rows)
nbytes = sum(r["bytes"] for r in rows)
total_bytes = report["root_payload_bytes"] + report["leaf_payload_bytes"]
if msgs != stats["messages"] or nbytes != stats["payload_bytes"]:
    print(f"FAIL: combined ledger ({msgs} msgs, {nbytes} B) != totals "
          f"({stats['messages']} msgs, {stats['payload_bytes']} B)",
          file=sys.stderr)
    sys.exit(1)
if report["root_messages"] + report["leaf_messages"] != stats["messages"]:
    print("FAIL: per-tier message split does not sum to the total",
          file=sys.stderr)
    sys.exit(1)
if nbytes != total_bytes:
    print("FAIL: per-tier byte split does not sum to the ledger total",
          file=sys.stderr)
    sys.exit(1)
if report["root_messages"] >= report["leaf_messages"]:
    print(f"FAIL: root tier ({report['root_messages']} msgs) should be "
          f"quieter than the leaf tier ({report['leaf_messages']} msgs)",
          file=sys.stderr)
    sys.exit(1)
if report["leaf_crashes"] != 1 or report["rebalances"] != 1:
    print("FAIL: leaf crash was not rebalanced exactly once", file=sys.stderr)
    sys.exit(1)
print(f"    two-tier ledger conserves {msgs} msgs / {nbytes} bytes; "
      f"root {report['root_messages']} vs leaf {report['leaf_messages']} msgs")
PYEOF
echo "    fleet run byte-deterministic under faults; trace diff clean"

echo "==> net runtime smoke (sim determinism + threaded/reactor/sim parity)"
NET_SIM_ARGS=(net-smoke --net-backend sim --nodes 4 --rounds 60
    --dim 2 --seed 5 --epsilon 0.4
    --chaos-seed 9 --drop-rate 0.1 --duplicate-rate 0.05 --delay-rate 0.05)
net_a=$(cargo run --release -q -p automon-cli -- "${NET_SIM_ARGS[@]}" \
    --trace-out "$TDIR/net-a.jsonl")
net_b=$(cargo run --release -q -p automon-cli -- "${NET_SIM_ARGS[@]}" \
    --trace-out "$TDIR/net-b.jsonl")
if [[ "$net_a" != "$net_b" ]]; then
    echo "FAIL: identical net-smoke sim runs produced different reports" >&2
    diff <(printf '%s\n' "$net_a") <(printf '%s\n' "$net_b") >&2 || true
    exit 1
fi
if ! cmp -s "$TDIR/net-a.jsonl" "$TDIR/net-b.jsonl"; then
    echo "FAIL: sim-poller traces differ for the same seeds" >&2
    diff "$TDIR/net-a.jsonl" "$TDIR/net-b.jsonl" >&2 || true
    exit 1
fi
cargo run --release -q -p automon-cli -- trace diff \
    --left "$TDIR/net-a.jsonl" --right "$TDIR/net-b.jsonl" >/dev/null
NET_SUMMARY=$(cargo run --release -q -p automon-cli -- trace summarize \
    --input "$TDIR/net-a.jsonl")
if ! grep -q "comm by cause (bytes/update" <<<"$NET_SUMMARY" \
    || ! grep -q "retransmit" <<<"$NET_SUMMARY"; then
    echo "FAIL: sim-backend trace is not the standard telemetry JSONL" >&2
    printf '%s\n' "$NET_SUMMARY" >&2
    exit 1
fi
echo "    sim backend byte-deterministic under frame-level chaos;" \
    "trace diff clean, summarize renders"

NET_PAR_ARGS=(net-smoke --nodes 4 --rounds 40 --dim 2 --seed 3 --epsilon 0.4)
net_thr=$(cargo run --release -q -p automon-cli -- "${NET_PAR_ARGS[@]}" \
    --net-backend threaded --trace-out "$TDIR/net-thr.jsonl")
net_rea=$(cargo run --release -q -p automon-cli -- "${NET_PAR_ARGS[@]}" \
    --net-backend reactor --trace-out "$TDIR/net-rea.jsonl")
net_sim=$(cargo run --release -q -p automon-cli -- "${NET_PAR_ARGS[@]}" \
    --net-backend sim --trace-out "$TDIR/net-sim.jsonl")
python3 - <<PYEOF
import json, sys

runs = {
    "threaded": json.loads("""${net_thr}""")["stats"],
    "reactor": json.loads("""${net_rea}""")["stats"],
    "sim": json.loads("""${net_sim}""")["stats"],
}
ref = runs["sim"]
for name, stats in runs.items():
    if stats != ref:
        print(f"FAIL: {name} and sim backends disagree on protocol stats",
              file=sys.stderr)
        for k in sorted(set(stats) | set(ref)):
            if stats.get(k) != ref.get(k):
                print(f"  {k}: {name}={stats.get(k)!r} sim={ref.get(k)!r}",
                      file=sys.stderr)
        sys.exit(1)
print(f"    threaded == reactor == sim: {ref['messages']} messages, "
      f"{ref['safezone_violations']} safe-zone violations, "
      f"{ref['full_syncs']} full syncs, {ref['lazy_syncs']} lazy syncs, "
      f"{len(ref['ledger'])} ledger rows")
PYEOF
for backend in thr rea; do
    cargo run --release -q -p automon-cli -- trace diff \
        --left "$TDIR/net-sim.jsonl" --right "$TDIR/net-$backend.jsonl" >/dev/null
done
echo "    socket backends protocol-identical to the driver's sim link;" \
    "traces diff clean"

set +e
cargo run --release -q -p automon-cli -- net-smoke --net-backend sim \
    --drop-rate 2 >/dev/null 2>"$TDIR/bad-rate.err"
bad_rate=$?
set -e
if [[ $bad_rate -eq 0 || $bad_rate -eq 101 ]]; then
    echo "FAIL: net-smoke --drop-rate 2 exited $bad_rate (want a CLI error)" >&2
    cat "$TDIR/bad-rate.err" >&2
    exit 1
fi
echo "    invalid fault schedule refused with exit $bad_rate, no panic"

echo "==> benchmark package (tests + smoke)"
BENCHMARK_MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
cargo test --offline -q --manifest-path "$BENCHMARK_MANIFEST"
cargo run --release --offline -q --manifest-path "$BENCHMARK_MANIFEST" -- --smoke

echo "==> CI green"
