#!/usr/bin/env bash
# A/B a base revision against the working tree: first the same bytes on a
# checked-in list of CLI command lines, then the repository's benchmark
# (BENCHMARK.json) in alternating pairs. Run from anywhere:
#
#   scripts/ab.sh <base-rev>
#
# Environment (all optional):
#   AB_WORKLOADS  workloads, space-separated   (default: every one in BENCHMARK.json)
#   AB_SEEDS      seeds, space-separated       (default: 1)
#   AB_PAIRS      pairs per workload and seed  (default: 10)
#   AB_DIR        scratch directory            (default: a fresh `mktemp -d`)
#
# The base revision is exported with `git archive` into $AB_DIR/base: a
# plain tree, so no worktree is registered in this repository. Each side
# builds its benchmark and its release CLI (`automon`) in target
# directories of its own before the first run, so nothing compiles while
# something is timed.
#
# The argv half: every line of scripts/ab_argv.txt (the working tree's
# copy, for both sides) runs from each side's CLI twice, once plain and
# once with `--trace-out`; then that side's `automon trace summarize`
# reads the trace. Stdout, minus the `trace written to` line and any
# `elapsed_ms` field, the trace file and the summary (its trace path
# written as TRACE) must be byte-identical between the sides; the
# outputs are kept under $AB_DIR/argv/{base,change}. A line may name
# `@DIR@` (e.g. `--wal-dir @DIR@`): each run gets a fresh, empty directory
# of its own there, and what the run leaves in it (WAL segments,
# snapshots) must be `diff -r` identical between the sides too.
# On any difference, or a line that exits non-zero, the script names it,
# still runs the benchmark half (a change that moves some lines by design
# gets its pairs too), names it again at the end and exits 1.
#
# The benchmark half: a run is the BENCHMARK.json command, unmodified,
# executed from its side's checkout with `--workload W --seed S
# --seconds N --trace 0`, N being BENCHMARK.json's `run_seconds`; pair k
# runs the base first when k is even and the working tree first when k is
# odd. The result line of every run is kept as
# $AB_DIR/runs/W.S.k.{base,change}.json.
#
# Prints, per workload, seed and end-to-end metric: both medians and
# their ratio (change / base), the base's q1..q3, the pairs the working
# tree won (by the metric's `better` direction), and for the count
# metrics (`msgs_per_update`, `bytes_per_update`) whether every run of
# both sides read the same bits; then `correct` and `failed` over every
# run. Exits non-zero on any count difference, any `correct: false` or
# any `failed > 0`, and on any argv difference.
set -euo pipefail

BASE_REV=${1:?usage: scripts/ab.sh <base-rev>}
REPO=$(cd "$(dirname "$0")/.." && pwd)
AB_DIR=${AB_DIR:-$(mktemp -d)}
AB_SEEDS=${AB_SEEDS:-1}
AB_PAIRS=${AB_PAIRS:-10}
SPEC="$REPO/BENCHMARK.json"

json() { python3 -c "import json, sys; s = json.load(open(sys.argv[1])); $1" "$SPEC"; }
AB_WORKLOADS=${AB_WORKLOADS:-$(json 'print(" ".join(w["name"] for w in s["workloads"]))')}
SECONDS_PER_RUN=$(json 'print(s["run_seconds"])')
mapfile -t RUN < <(json 'print("\n".join(s["command"]))')
# The same argv with `run` as `build` and nothing after `--`.
mapfile -t BUILD < <(json 'c = s["command"]; c = c[:c.index("--")] if "--" in c else c; print("\n".join("build" if a == "run" else a for a in c))')

mkdir -p "$AB_DIR/runs"
rm -rf "$AB_DIR/base"
mkdir -p "$AB_DIR/base"
git -C "$REPO" archive "$BASE_REV" | tar -x -C "$AB_DIR/base"

checkout() { if [ "$1" = base ]; then echo "$AB_DIR/base"; else echo "$REPO"; fi; }
for side in base change; do
    echo "==> building $side" >&2
    (cd "$(checkout $side)" && CARGO_TARGET_DIR="$AB_DIR/target-$side" "${BUILD[@]}")
    (cd "$(checkout $side)" && CARGO_TARGET_DIR="$AB_DIR/cli-$side" \
        cargo build --release --offline -q -p automon-cli)
done

mapfile -t ARGV < <(grep -v -e '^#' -e '^[[:space:]]*$' "$REPO/scripts/ab_argv.txt")
for side in base change; do
    echo "==> argv list, $side" >&2
    out="$AB_DIR/argv/$side"
    rm -rf "$out"
    mkdir -p "$out"
    for k in "${!ARGV[@]}"; do
        read -ra argv <<< "${ARGV[$k]}"
        for mode in off on; do
            extra=()
            if [ "$mode" = on ]; then extra=(--trace-out "$out/$k.jsonl"); fi
            dir="$out/$k.$mode.dir"
            if [[ "${ARGV[$k]}" == *@DIR@* ]]; then mkdir -p "$dir"; fi
            run_argv=("${argv[@]//@DIR@/$dir}")
            status=0
            "$AB_DIR/cli-$side/release/automon" "${run_argv[@]}" "${extra[@]}" > "$out/$k.$mode.out" || status=$?
            sed -i -E -e '/^trace written to /d' -e 's/"elapsed_ms":[0-9]+,?//' "$out/$k.$mode.out"
            if [ "$status" != 0 ]; then echo "exit status $status" >> "$out/$k.$mode.out"; fi
        done
        status=0
        "$AB_DIR/cli-$side/release/automon" trace summarize --input "$out/$k.jsonl" \
            > "$out/$k.summary" || status=$?
        sed -i -e "s|$out/$k.jsonl|TRACE|g" "$out/$k.summary"
        if [ "$status" != 0 ]; then echo "exit status $status" >> "$out/$k.summary"; fi
    done
done
differences=()
for k in "${!ARGV[@]}"; do
    for f in "$k.off.out" "$k.on.out" "$k.jsonl" "$k.summary"; do
        if ! cmp -s "$AB_DIR/argv/base/$f" "$AB_DIR/argv/change/$f"; then
            differences+=("argv $k ($f) differs: ${ARGV[$k]}")
        fi
    done
    for mode in off on; do
        d="$k.$mode.dir"
        if [ -e "$AB_DIR/argv/base/$d" ] || [ -e "$AB_DIR/argv/change/$d" ]; then
            if ! diff -r -q "$AB_DIR/argv/base/$d" "$AB_DIR/argv/change/$d" > /dev/null 2>&1; then
                differences+=("argv $k ($d) differs: ${ARGV[$k]}")
            fi
        fi
    done
    if grep -q '^exit status' "$AB_DIR/argv/change/$k".{off.out,on.out,summary}; then
        differences+=("argv $k exits non-zero: ${ARGV[$k]}")
    fi
done
argv_summary() {
    if [ "${#differences[@]}" != 0 ]; then printf '%s\n' "${differences[@]}"; fi
    echo "argv ${#ARGV[@]} lines, telemetry off and on: ${#differences[@]} difference(s) in stdout, --trace-out, trace summarize, @DIR@ contents or exit status"
}
argv_summary

one_run() { # side workload seed pair
    local out="$AB_DIR/runs/$2.$3.$4.$1.json"
    (cd "$(checkout "$1")" && CARGO_TARGET_DIR="$AB_DIR/target-$1" "${RUN[@]}" \
        --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0) | tail -n 1 > "$out" || true
}

for w in $AB_WORKLOADS; do
    for s in $AB_SEEDS; do
        for ((k = 0; k < AB_PAIRS; k++)); do
            echo "==> $w seed $s pair $k" >&2
            if ((k % 2 == 0)); then order="base change"; else order="change base"; fi
            for side in $order; do one_run "$side" "$w" "$s" "$k"; done
        done
    done
done

status=0
python3 - "$SPEC" "$AB_DIR/runs" "$AB_WORKLOADS" "$AB_SEEDS" "$AB_PAIRS" <<'PY' || status=$?
import json, statistics, sys

spec, runs, workloads, seeds, pairs = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
counts = {"msgs_per_update", "bytes_per_update"}

def load(path):
    try:
        return json.loads(open(path).read())
    except (OSError, ValueError):
        return {"correct": False, "failed": None, "metrics": {}}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

bad = 0
runs_total = correct = 0
failed = 0
for w in workloads.split():
    for s in seeds.split():
        res = {side: [load(f"{runs}/{w}.{s}.{k}.{side}.json") for k in range(int(pairs))]
               for side in ("base", "change")}
        for side in res.values():
            for r in side:
                runs_total += 1
                correct += bool(r.get("correct"))
                failed += r.get("failed") or 0
                if not r.get("correct") or r.get("failed") != 0:
                    bad += 1
        print(f"{w} seed {s} ({pairs} pairs)")
        print(f"  {'metric':<18} {'base':>12} {'change':>12} {'ratio':>7}  {'base q1..q3':>25}  wins  bits")
        for m in metrics:
            name = m["name"]
            val = {side: [r["metrics"].get(name, {}).get("value") for r in rs]
                   for side, rs in res.items()}
            if any(v is None for vs in val.values() for v in vs):
                print(f"  {name:<18} missing")
                bad += 1
                continue
            b, c = val["base"], val["change"]
            mb, mc = statistics.median(b), statistics.median(c)
            q1, q3 = quartiles(b)
            higher = m["better"] == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
            bits = ""
            if name in counts:
                same = len({v.hex() for v in b + c}) == 1
                bits = "equal" if same else "DIFFER"
                bad += not same
            ratio = mc / mb if mb else float("nan")
            print(f"  {name:<18} {mb:>12.6g} {mc:>12.6g} {ratio:>7.3f}  {q1:>12.6g}..{q3:<12.6g}  {wins:>2}/{len(b)}  {bits}")
print(f"runs {runs_total}: correct {correct}, failed {failed}")
sys.exit(1 if bad else 0)
PY

argv_summary
if [ "${#differences[@]}" != 0 ]; then exit 1; fi
exit "$status"
