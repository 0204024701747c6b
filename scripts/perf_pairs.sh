#!/usr/bin/env bash
# Paired, alternating hyrd-perf runs of a base revision against the
# working tree — the protocol every wall-clock claim needs on a host
# that drifts ±20 % with identical code (choosing-metrics §8,
# hyrd-perf/README.md "Bounds").
#
#   scripts/perf_pairs.sh <base-rev> <workload> [pairs=10]
#
# Builds <base-rev> in a git worktree and the working tree in place, each
# with its own CARGO_TARGET_DIR, runs the benchmark command of
# BENCHMARK.json `pairs` times per side (the side that goes first
# alternates), and prints per end-to-end metric each side's median and
# quartiles and how many pairs the working tree won. A gain may be
# claimed where the change wins at least 9/10 of the pairs and the
# medians differ by more than the base's own inter-quartile range.
#
# The run length is the benchmark's own (--seconds 20); PERF_SEED
# (default 11) picks the seed, for repeating a claim on a second one.
# Scratch space: <repo>/target/perf-pairs.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seed=${PERF_SEED:-11}

root=$(git rev-parse --show-toplevel)
work=$root/target/perf-pairs
base_dir=$work/base
runs=$work/runs/$workload-seed$seed
mkdir -p "$work" "$runs"
rm -f "$runs"/*.json

cleanup() { git -C "$root" worktree remove --force "$base_dir" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
git -C "$root" worktree add --quiet --detach "$base_dir" "$base_rev"

build() { # <checkout> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/hyrd-perf/Cargo.toml"
}
echo "building base $(git -C "$base_dir" rev-parse --short HEAD) and the working tree ..." >&2
build "$base_dir" "$work/target-base"
build "$root" "$work/target-change"

run() { # <side> <checkout> <target-dir> <pair>
    (cd "$2" && "$3/release/hyrd-perf" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 | tail -n 1) >"$runs/$1_$4.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$base_dir" "$work/target-base" "$i"
        run change "$root" "$work/target-change" "$i"
    else
        run change "$root" "$work/target-change" "$i"
        run base "$base_dir" "$work/target-base" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

# Per end-to-end metric: each side's median and quartiles, the median
# change, and the pairs the change won / tied / lost (direction and bound
# from BENCHMARK.json).
python3 - "$root/BENCHMARK.json" "$runs" "$pairs" <<'PY'
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


def main():
    manifest, runs, pairs = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
    metrics = json.loads(manifest.read_text())["end_to_end"]
    load = lambda side, i: json.loads((runs / f"{side}_{i}.json").read_text())
    base = [load("base", i) for i in range(1, pairs + 1)]
    change = [load("change", i) for i in range(1, pairs + 1)]

    for side, results in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
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
        else:
            verdict = "no claim"
        fmt = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
        print(f"{name:<28} {fmt(bmed, bq1, bq3):<38} {fmt(cmed, cq1, cq3):<38} "
              f"{delta:>+8.1%} {f'{won}/{tied}/{pairs - won - tied}':>13}  {verdict}")


if __name__ == "__main__":
    main()
PY
