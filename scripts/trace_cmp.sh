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
# CARGO_TARGET_DIR, runs `drill --smoke` over the traced scenarios on both
# sides and `cmp`s what each writes under its target/experiments:
#
#   chaos_trace.jsonl          the chaos drill's trace
#   obs_report.txt             the observatory's report over it
#   trace_report.txt           the trace analysis over it (jobs 1; the
#                              drill claims jobs 4 gives the same bytes)
#   chaos_migrate_trace.jsonl  the chaos drill with background migration
#   multi_client_trace.jsonl   4 closed-loop sessions on a quiet fleet
#   tail_trace.jsonl           the hedged cell under latency spikes
#   policy_trace.jsonl         the Pareto sweep, every cell
#
# Exit status: 1 when any pair differs, 0 when all are identical. A claim
# failing on either side (drill exit 1) is reported but does not stop the
# comparison; any other failure of the drill (a panic) stops the script
# with its status.
# Scratch space: <repo>/target/trace-cmp.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
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

outputs="chaos_trace.jsonl obs_report.txt trace_report.txt chaos_migrate_trace.jsonl
multi_client_trace.jsonl tail_trace.jsonl policy_trace.jsonl"

produce() { # <side> <checkout> <target-dir>
    local out=$work/out/$1 status=0
    mkdir -p "$out"
    # The drill writes under its own checkout's target/experiments; clear
    # what an earlier run left there, so a missing file stops the script
    # at `cp` instead of being compared stale.
    for f in $outputs; do
        rm -f "$2/target/experiments/$f"
    done
    "$3/release/drill" --smoke chaos chaos_migrate multi_client tail policy \
        >"$work/out/$1.log" || status=$?
    case $status in
        0) ;;
        1) echo "$1: a drill claim fails (see $work/out/$1.log)" >&2 ;;
        *) echo "$1: drill exited $status (see $work/out/$1.log)" >&2; exit "$status" ;;
    esac
    for f in $outputs; do
        cp "$2/target/experiments/$f" "$out/"
    done
}
produce base "$base_dir" "$work/target-base"
produce change "$root" "$work/target-change"

status=0
for f in $outputs; do
    if cmp -s "$work/out/base/$f" "$work/out/change/$f"; then
        printf '%-26s identical (%s bytes)\n' "$f" "$(wc -c <"$work/out/change/$f")"
    else
        printf '%-26s DIFFERS: ' "$f"
        cmp "$work/out/base/$f" "$work/out/change/$f" || true
        status=1
    fi
done
exit $status
