#!/usr/bin/env bash
# Byte-identity of everything the telemetry path writes, a base revision
# against the working tree: a change to the collector, the writer, the
# parser or the observatory's fold that claims to keep every trace byte
# proves it here.
#
#   scripts/trace_cmp.sh <base-rev>
#
# Unpacks <base-rev> with `git archive` (as scripts/perf_pairs.sh does),
# builds `hyrd-bench` there and in the working tree, each with its own
# CARGO_TARGET_DIR, runs the same seeded smoke commands on both sides and
# `cmp`s five outputs:
#
#   chaos_trace.jsonl     chaos_drill --smoke --trace
#   obs_report.txt        chaos_drill --smoke --obs (the observatory's report)
#   trace_report_j4.txt   trace_report --jobs 4 over that chaos trace
#   mc_trace_c04.jsonl    multi_client --smoke --clients 4 --trace
#   tail_trace.jsonl      tail_latency --smoke --trace
#
# Exit status: 1 when any pair differs, 0 when all five are identical.
# Scratch space: <repo>/target/trace-cmp.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1

root=$(git rev-parse --show-toplevel)
work=$root/target/trace-cmp
base_dir=$work/base
rm -rf "$base_dir" "$work/out"
mkdir -p "$base_dir"
git -C "$root" archive "$base_rev" | tar -x -C "$base_dir"

build() { # <checkout> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet -p hyrd-bench \
        --manifest-path "$1/Cargo.toml"
}
echo "building base $(git -C "$root" rev-parse --short "$base_rev") and the working tree ..." >&2
build "$base_dir" "$work/target-base"
build "$root" "$work/target-change"

outputs="chaos_trace.jsonl obs_report.txt trace_report_j4.txt mc_trace_c04.jsonl tail_trace.jsonl"

produce() { # <side> <checkout> <target-dir>
    local out=$work/out/$1 bin=$3/release
    mkdir -p "$out"
    # From the side's own checkout: the bins drop their JSON reports under
    # its target/experiments.
    (
        cd "$2"
        "$bin/chaos_drill" --smoke --trace "$out/chaos_trace.jsonl" --obs "$out/obs_report.txt"
        "$bin/trace_report" --trace "$out/chaos_trace.jsonl" --jobs 4 --out "$out/trace_report_j4.txt"
        "$bin/multi_client" --smoke --clients 4 --trace "$out/mc_trace_c04.jsonl"
        "$bin/tail_latency" --smoke --trace "$out/tail_trace.jsonl"
    ) >"$work/out/$1.log"
}
produce base "$base_dir" "$work/target-base"
produce change "$root" "$work/target-change"

status=0
for f in $outputs; do
    if cmp -s "$work/out/base/$f" "$work/out/change/$f"; then
        printf '%-22s identical (%s bytes)\n' "$f" "$(wc -c <"$work/out/change/$f")"
    else
        printf '%-22s DIFFERS: ' "$f"
        cmp "$work/out/base/$f" "$work/out/change/$f" || true
        status=1
    fi
done
exit $status
