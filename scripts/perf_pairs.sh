#!/usr/bin/env bash
# Paired, alternating hyrd-perf runs of a base revision against the
# working tree — the protocol every wall-clock claim needs on a host
# that drifts ±20 % with identical code (choosing-metrics §8,
# hyrd-perf/README.md "Bounds").
#
#   scripts/perf_pairs.sh <base-rev> <workload>[,<workload>...]|all [pairs=10]
#
# Unpacks <base-rev> with `git archive` and builds it and the working
# tree, each with its own CARGO_TARGET_DIR, runs the benchmark command of
# BENCHMARK.json `pairs` times per side and workload (the side that goes
# first alternates; with several workloads every pair visits each of them
# in turn, so the claimed row and the "must not move" rows are measured
# over the same minutes), and prints each side's `host` line once, then
# per workload and end-to-end metric each side's median and quartiles
# and how many pairs the working tree won. A gain may be claimed where
# the change wins at least 9/10 of the pairs and the medians differ by
# more than the base's own inter-quartile range.
#
# Exit status: 1 when any run reports `correct: false` or failed
# operations, or any row reads "WORSE than bound" (median worse than the
# base's by more than BENCHMARK.json's bound); 0 otherwise — so the
# command can gate.
#
# The run length is the benchmark's own (--seconds 20); PERF_SEED
# (default 11) picks the seed, for repeating a claim on a second one.
# Scratch space: <repo>/target/perf-pairs.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
pairs=${3:-10}
seed=${PERF_SEED:-11}

root=$(git rev-parse --show-toplevel)
if [ "$2" = all ]; then
    workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
else
    workloads=${2//,/ }
fi
work=$root/target/perf-pairs
base_dir=$work/base
rm -rf "$base_dir"
mkdir -p "$base_dir"
git -C "$root" archive "$base_rev" | tar -x -C "$base_dir"
for workload in $workloads; do
    mkdir -p "$work/runs/$workload-seed$seed"
    rm -f "$work/runs/$workload-seed$seed"/*.json
done
rm -f "$work/runs"/host_*.txt

build() { # <checkout> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/hyrd-perf/Cargo.toml"
}
echo "building base $(git -C "$root" rev-parse --short "$base_rev") and the working tree ..." >&2
build "$base_dir" "$work/target-base"
build "$root" "$work/target-change"

run() { # <side> <checkout> <target-dir> <workload> <pair>
    (cd "$2" && "$3/release/hyrd-perf" --workload "$4" --seed "$seed" \
        --seconds 20 --trace 0) >"$work/runs/last.out"
    tail -n 1 "$work/runs/last.out" >"$work/runs/$4-seed$seed/$1_$5.json"
    # The side's `host` line, kept from its first run.
    [ -s "$work/runs/host_$1.txt" ] ||
        { grep -m 1 '^host ' "$work/runs/last.out" || true; } >"$work/runs/host_$1.txt"
}
for i in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$base_dir" "$work/target-base" "$workload" "$i"
            run change "$root" "$work/target-change" "$workload" "$i"
        else
            run change "$root" "$work/target-change" "$workload" "$i"
            run base "$base_dir" "$work/target-base" "$workload" "$i"
        fi
    done
    echo "pair $i/$pairs done" >&2
done

# What each side ran on and as — `cpu_features`, the SHA-256 kernel, the
# commit, the compiler — once: a claim that holds only where the CPU has
# a feature carries the evidence that it did.
for side in base change; do
    printf '%6s: %s\n' "$side" "$(cat "$work/runs/host_$side.txt")"
done

# Per workload and end-to-end metric: each side's median and quartiles,
# the median change, and the pairs the change won / tied / lost (direction
# and bound from BENCHMARK.json). Exits 1 on a failed gate.
# shellcheck disable=SC2086
python3 - "$root/BENCHMARK.json" "$work/runs" "$seed" "$pairs" $workloads <<'PY'
import json
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def report(metrics, runs, pairs):
    """Prints one workload's table; returns whether its gates hold."""
    load = lambda side, i: json.loads((runs / f"{side}_{i}.json").read_text())
    base = [load("base", i) for i in range(1, pairs + 1)]
    change = [load("change", i) for i in range(1, pairs + 1)]

    ok = True
    for side, results in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct and failed == 0
        print(f"{side:>6}: {len(results)} runs, correct={correct}, failed {failed} of {attempted} ops")

    print(f"{'metric':<28} {'base median [q1, q3]':<38} {'change median [q1, q3]':<38} "
          f"{'median':>8} {'won/tie/lost':>13}  verdict")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        tied = sum(x == y for x, y in zip(b, c))
        delta = (cmed - bmed) / bmed if bmed else 0.0
        better = delta if higher else -delta
        if tied == pairs:
            verdict = "identical"
        elif won * 10 >= 9 * pairs and abs(cmed - bmed) > (bq3 - bq1):
            verdict = "gain"
        elif -better > m["bound"]:
            verdict = "WORSE than bound"
            ok = False
        else:
            verdict = "no claim"
        fmt = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
        print(f"{name:<28} {fmt(bmed, bq1, bq3):<38} {fmt(cmed, cq1, cq3):<38} "
              f"{delta:>+8.1%} {f'{won}/{tied}/{pairs - won - tied}':>13}  {verdict}")
    return ok


def main():
    manifest, runs, seed, pairs = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], int(sys.argv[4])
    metrics = json.loads(manifest.read_text())["end_to_end"]
    failed_gates = []
    for workload in sys.argv[5:]:
        print(f"== {workload}, seed {seed}, {pairs} pairs")
        if not report(metrics, runs / f"{workload}-seed{seed}", pairs):
            failed_gates.append(workload)
    if failed_gates:
        print(f"GATE FAILED on {', '.join(failed_gates)}: a run was incorrect or had failed "
              "operations, or a metric is WORSE than bound")
        sys.exit(1)


if __name__ == "__main__":
    main()
PY
