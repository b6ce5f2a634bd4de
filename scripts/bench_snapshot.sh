#!/usr/bin/env bash
# Snapshot the ADCD hot-path benches into BENCH_adcd_hotpath.json and
# the telemetry-overhead benches into BENCH_obs_overhead.json.
#
# Runs the coordinator_full_sync, substrates and store_wal Criterion
# benches (coordinator runtime, primed Hessian-vector products, the
# Jacobi eigensolver, wire codecs, and the durable store's journal-append
# and crash-recovery replay) plus obs_overhead (bare vs
# disabled-telemetry vs live-telemetry decompose, metric primitives) and
# records every BENCHLINE median, keyed "<group>/<bench>/<dim>" in
# nanoseconds. If a snapshot already exists, its "current" section is
# rotated into "previous", so consecutive runs (and consecutive PRs)
# keep a before/after trajectory.
#
# Measurement protocol: each bench binary runs REPS times (default 3)
# and the snapshot keeps the per-key MINIMUM of the per-run medians.
# Scheduler and cache noise only ever inflate a timing, so min-of-medians
# is the stable lower envelope. The snapshot also records the host
# kernel and core count, since absolute nanoseconds are only comparable
# on like machines.
#
# The substrates bench carries one gate of its own: `hvp/kld_repeat/20`
# (a further Hessian-vector product at a primed point: the tangent sweep
# alone) must stay at or below 0.7x `hvp/kld_first/20` (the first product
# at a new point: primal sweep + tangent sweep). A healthy tree sits at
# 0.40-0.48 — the primal sweep costs about one tangent sweep — and an
# `apply` that fell back to redoing the primal work per product would sit
# at 1.0, so 0.7 separates the two with room for this box's noise on
# either side. A failing gate leaves the snapshot file untouched.
#
# The substrates bench has no `opt/rosenbrock_box_2d` row: it timed
# `opt::minimize_box`, which the eq.-3 search never called and PR 19
# deleted. PR 21's rotation dropped the key from "current"; it lingers one
# more rotation in "previous". That is this deletion, not a bench that
# stopped printing.
#
# A rotation keeps the rotated section's host beside it
# ("previous_host"): the two sections are comparable only when kernel and
# core count match, and the snapshots on file were taken on 1- and 2-core
# hosts.
#
# The net_throughput bench (NETLINE rows, BENCH_net_throughput.json)
# blasts real frames over real sockets: reports/sec and syscalls/report
# for the epoll reactor vs the thread-per-connection transport at 1k
# and 10k connections (DESIGN.md §3.15), plus the node side of one
# connection (`node_transport/*`: an idle `try_recv`, and a report-up /
# request-down round trip). The bench takes best-of-2 internally; the
# snapshot gate requires the reactor to hold ≥2.5× threaded reports/sec
# at 1k conns — a regression floor under the 3–5× wall-clock the
# shared-core container typically measures — to stay at ≤0.1
# syscalls/report there, and to keep ≥3× fewer syscalls/report than the
# threaded backend. The ratio floor was 10× while the threaded reader
# paid two `read`s per frame (2.02 syscalls/report); since it shares the
# reactor's buffered framing it pays 0.4–0.9 (one `recv` per burst it
# wakes up to), so the ratio narrowed from the threaded side — the
# reactor's own numbers (`current` vs `previous` in the snapshot that
# first carries `node_transport` rows: 0.060 vs 0.051 syscalls/report,
# 498k vs 323k reports/sec at 1k conns) are no worse, and the absolute
# ≤0.1 gate now guards them directly.
# An idle `try_recv` must stay ≤2 µs: it is one non-blocking `recv`
# (~0.2 µs), and the regression it guards against was an 8 ms timer.
#
# Usage: scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

REPS=${BENCH_SNAPSHOT_REPS:-3}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

snapshot() {
    local out=$1
    shift
    local benches=("$@")
    for rep in $(seq 1 "$REPS"); do
        for bench in "${benches[@]}"; do
            echo "running $bench (rep $rep/$REPS) ..." >&2
            cargo bench -q -p automon-bench --bench "$bench" 2>&1 \
                | grep '^BENCHLINE' || true
        done
    done > "$RAW"
    BENCH_HOST_UNAME=$(uname -srm) BENCH_HOST_CORES=$(nproc) BENCH_REPS=$REPS \
        python3 - "$RAW" "$out" "${benches[@]}" <<'PYEOF'
import json
import os
import sys
from datetime import datetime, timezone

raw_path, out_path, benches = sys.argv[1], sys.argv[2], sys.argv[3:]

current = {}
with open(raw_path) as fh:
    for line in fh:
        # BENCHLINE <group>/<bench>/<dim> median_ns <float>
        parts = line.split()
        if len(parts) == 4 and parts[0] == "BENCHLINE" and parts[2] == "median_ns":
            key, v = parts[1], float(parts[3])
            current[key] = min(current.get(key, v), v)

if not current:
    sys.exit("bench_snapshot: no BENCHLINE output captured")

if "substrates" in benches:
    first = current.get("hvp/kld_first/20")
    repeat = current.get("hvp/kld_repeat/20")
    if first is None or repeat is None:
        sys.exit("bench_snapshot: substrates printed no hvp/kld_{first,repeat}/20")
    if repeat > 0.7 * first:
        sys.exit(
            f"bench_snapshot: hvp/kld_repeat/20 {repeat:.0f} ns is above 0.7x "
            f"hvp/kld_first/20 {first:.0f} ns: apply is redoing the primal sweep"
        )

previous = previous_host = None
try:
    with open(out_path) as fh:
        old = json.load(fh)
    previous, previous_host = old.get("current"), old.get("host")
except (FileNotFoundError, json.JSONDecodeError):
    pass

snapshot = {
    "unit": "median_ns",
    "protocol": f"min of {os.environ.get('BENCH_REPS', '3')} per-run medians",
    "captured_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": {
        "uname": os.environ.get("BENCH_HOST_UNAME", "unknown"),
        "cores": int(os.environ.get("BENCH_HOST_CORES", "0")),
    },
    "benches": benches,
    "previous_host": previous_host,
    "previous": previous,
    "current": dict(sorted(current.items())),
}
with open(out_path, "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_path}: {len(current)} medians"
      + (" (rotated previous snapshot)" if previous else ""))
PYEOF
}

snapshot BENCH_adcd_hotpath.json coordinator_full_sync substrates store_wal
snapshot BENCH_obs_overhead.json obs_overhead

# Net throughput: real-socket blast, NETLINE rows (best-of-2 inside the
# bench binary, so one outer run).
echo "running net_throughput (sockets, 1 rep) ..." >&2
cargo bench -q -p automon-bench --bench net_throughput 2>/dev/null \
    | grep '^NETLINE' > "$RAW"
BENCH_HOST_UNAME=$(uname -srm) BENCH_HOST_CORES=$(nproc) \
    python3 - "$RAW" BENCH_net_throughput.json <<'PYEOF'
import json
import os
import sys
from datetime import datetime, timezone

raw_path, out_path = sys.argv[1], sys.argv[2]

current = {}
with open(raw_path) as fh:
    for line in fh:
        # NETLINE net_throughput/<backend>/<conns>/<metric> value <float>
        parts = line.split()
        if len(parts) == 4 and parts[0] == "NETLINE" and parts[2] == "value":
            current[parts[1]] = float(parts[3])

if not current:
    sys.exit("bench_snapshot: no NETLINE output captured")

speedup = current.get("net_throughput/reactor_over_threaded/conns1000/speedup", 0.0)
syscall_ratio = current.get(
    "net_throughput/reactor_over_threaded/conns1000/syscall_ratio", 0.0
)
reactor_syscalls = current.get(
    "net_throughput/reactor/conns1000/syscalls_per_report", float("inf")
)
idle_ns = current.get(
    "net_throughput/node_transport/try_recv_idle/median_ns", float("inf")
)
if speedup < 2.5:
    sys.exit(f"bench_snapshot: reactor speedup {speedup:.2f}x below 2.5x floor")
if reactor_syscalls > 0.1:
    sys.exit(
        f"bench_snapshot: reactor at {reactor_syscalls:.3f} syscalls/report, above 0.1"
    )
if syscall_ratio < 3.0:
    sys.exit(
        f"bench_snapshot: reactor syscall advantage {syscall_ratio:.1f}x below 3x floor"
    )
if idle_ns > 2000.0:
    sys.exit(f"bench_snapshot: idle try_recv {idle_ns:.0f} ns, above 2 us")

previous = None
try:
    with open(out_path) as fh:
        previous = json.load(fh).get("current")
except (FileNotFoundError, json.JSONDecodeError):
    pass

snapshot = {
    "unit": "reports/sec, syscalls/report, and ratios",
    "protocol": "best-of-2 socket blasts; at 1k conns speedup >= 2.5, reactor <= 0.1 syscalls/report, syscall_ratio >= 3; idle try_recv <= 2 us",
    "captured_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": {
        "uname": os.environ.get("BENCH_HOST_UNAME", "unknown"),
        "cores": int(os.environ.get("BENCH_HOST_CORES", "0")),
    },
    "benches": ["net_throughput"],
    "previous": previous,
    "current": dict(sorted(current.items())),
}
with open(out_path, "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")
print(
    f"wrote {out_path}: {len(current)} values, "
    f"speedup {speedup:.2f}x, syscall ratio {syscall_ratio:.1f}x, "
    f"idle try_recv {idle_ns:.0f} ns"
    + (" (rotated previous snapshot)" if previous else "")
)
PYEOF
