#!/usr/bin/env bash
# The per-layer ledger of a base revision against the working tree: where
# a wall-clock change went, and proof that no count moved.
#
#   scripts/ledger_cmp.sh <base-rev> <workload> [runs=3]
#
# Unpacks <base-rev> with `git archive` and builds it and the working
# tree, each with its own CARGO_TARGET_DIR (as scripts/perf_pairs.sh
# does), then runs the benchmark command of BENCHMARK.json with
# `--trace 1` `runs` times per side, alternating which side goes first,
# and prints for every per-layer metric of BENCHMARK.json both sides'
# medians and their ratio (change / base).
#
# Count rows — what the workload did, not how fast — must not move by a
# digit: cloudsim.{provider_ops,put_ops,get_ops,bytes_in_mib,
# bytes_out_mib,op_errors}, metastore.{flush_bytes_per_txn,
# full_block_flush_ratio}, integrity.hashed_mib, gfec.*_calls and
# telemetry.{records_per_op,trace_bytes_per_op}. Exit status 1 when any
# run of either side reads a different value on one of them, or a run is
# incorrect or failed operations; 0 otherwise.
#
# The run length is the benchmark's own (--seconds 20); PERF_SEED
# (default 11) picks the seed. Scratch space: <repo>/target/ledger-cmp.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
workload=$2
runs=${3:-3}
seed=${PERF_SEED:-11}

root=$(git rev-parse --show-toplevel)
work=$root/target/ledger-cmp
base_dir=$work/base
rm -rf "$base_dir" "$work/runs"
mkdir -p "$base_dir" "$work/runs"
git -C "$root" archive "$base_rev" | tar -x -C "$base_dir"

build() { # <checkout> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/hyrd-perf/Cargo.toml"
}
echo "building base $(git -C "$root" rev-parse --short "$base_rev") and the working tree ..." >&2
build "$base_dir" "$work/target-base"
build "$root" "$work/target-change"

run() { # <side> <checkout> <target-dir> <run>
    (cd "$2" && "$3/release/hyrd-perf" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 1) | tail -n 1 >"$work/runs/$1_$4.json"
}
for i in $(seq 1 "$runs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$base_dir" "$work/target-base" "$i"
        run change "$root" "$work/target-change" "$i"
    else
        run change "$root" "$work/target-change" "$i"
        run base "$base_dir" "$work/target-base" "$i"
    fi
    echo "run $i/$runs done" >&2
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$workload" "$seed" "$runs" <<'PY'
import fnmatch
import json
import statistics
import sys
from pathlib import Path

COUNTS = [
    "cloudsim.provider_ops", "cloudsim.put_ops", "cloudsim.get_ops",
    "cloudsim.bytes_in_mib", "cloudsim.bytes_out_mib", "cloudsim.op_errors",
    "metastore.flush_bytes_per_txn", "metastore.full_block_flush_ratio",
    "integrity.hashed_mib", "gfec.*_calls",
    "telemetry.records_per_op", "telemetry.trace_bytes_per_op",
]

manifest, runs, workload, seed, n = (
    Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4], int(sys.argv[5]))
metrics = json.loads(manifest.read_text())["per_layer"]
sides = {
    side: [json.loads((runs / f"{side}_{i}.json").read_text()) for i in range(1, n + 1)]
    for side in ("base", "change")
}

ok = True
for side, results in sides.items():
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    ok = ok and correct and failed == 0
    print(f"{side:>6}: {len(results)} traced runs, correct={correct}, failed ops {failed}")

print(f"== {workload}, seed {seed}, median of {n} traced runs per side")
print(f"{'metric':<34} {'base':>14} {'change':>14} {'ratio':>8}  note")
moved = []
for m in metrics:
    name = m["name"]
    b = [r["metrics"][name]["value"] for r in sides["base"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    bmed, cmed = statistics.median(b), statistics.median(c)
    ratio = f"{cmed / bmed:8.3f}" if bmed else ("       =" if cmed == bmed else "     inf")
    note = ""
    if any(fnmatch.fnmatchcase(name, pattern) for pattern in COUNTS):
        if len(set(b + c)) > 1:
            note = "COUNT MOVED"
            moved.append(name)
        else:
            note = "count, identical"
    print(f"{name:<34} {bmed:>14.6g} {cmed:>14.6g} {ratio}  {note}")

if moved or not ok:
    print("LEDGER GATE FAILED: " + (f"count rows moved: {', '.join(moved)}" if moved
                                    else "a run was incorrect or had failed operations"))
    sys.exit(1)
PY
