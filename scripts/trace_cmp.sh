#!/usr/bin/env bash
# Byte-identity of everything the telemetry path, the crash drills and
# the comparison schemes write, a base revision against the working tree:
# a change to the collector, the writer, the parser, the observatory's
# fold, the crash journal or a baseline scheme that claims to keep every
# trace and record byte proves it here.
#
#   scripts/trace_cmp.sh <base-rev>
#
# Unpacks <base-rev> with `git archive` (as scripts/perf_pairs.sh does),
# builds `hyrd-bench` there and in the working tree, each with its own
# CARGO_TARGET_DIR, runs `drill --smoke` over the traced scenarios, the
# two crash drills and `replay`, then `paper`, on both sides and `cmp`s
# what each writes under its target/experiments:
#
#   chaos_trace.jsonl          the chaos drill's trace
#   obs_report.txt             the observatory's report over it
#   trace_report.txt           the trace analysis over it (jobs 1; the
#                              drill claims jobs 4 gives the same bytes)
#   chaos_migrate_trace.jsonl  the chaos drill with background migration
#   multi_client_trace.jsonl   4 closed-loop sessions on a quiet fleet
#   tail_trace.jsonl           the hedged cell under latency spikes
#   policy_trace.jsonl         the Pareto sweep, every cell
#   policy_sweep.json          the sweep's record: HyRD's cells, DuraCloud
#                              and RACS
#   replay_sweep_latency.json  HyRD, RACS and DuraCloud on one op stream
#   crash_torture.json         the crash sweep's record: cells, restarts,
#                              the clean run's crashpoint hits, violations
#   crash_torture_trace.jsonl  the torture's clean run
#   chaos_crash_drill.json     crashes composed with faults and an outage
#   paper.json                 `paper`'s record: every scheme of the
#                              evaluation (≈ 2.5 s a side)
#   paper.md                   `paper`'s Markdown on stdout, less the
#                              `[written …]` line (an absolute path)
#
# The six traces are compared by what they hold, not by how it is laid
# out: the working tree's `trace_report --expand` prints each side's trace
# one record per line in the plain layout, and the two expansions must be
# identical less their `meta` records (which carry the schema number). In
# `obs_report.txt` and `trace_report.txt` the `schema=N` the reports print
# is masked on both sides the same way. So a change of the trace schema
# that keeps every record passes, as any other change to the telemetry
# path that keeps every byte does.
#
# Exit status: 1 when any pair differs, 0 when all are identical. A claim
# failing on either side (drill or paper exit 1) is reported but does not
# stop the comparison; any other failure (a panic) stops the script with
# its status.
# Scratch space: <repo>/target/trace-cmp.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,49p' "$0" | sed 's/^# \{0,1\}//'
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
multi_client_trace.jsonl tail_trace.jsonl policy_trace.jsonl policy_sweep.json
replay_sweep_latency.json crash_torture.json crash_torture_trace.jsonl
chaos_crash_drill.json paper.json"

checked() { # <side> <program> <exit status> <log>
    case $3 in
        0) ;;
        1) echo "$1: a $2 claim fails (see $4)" >&2 ;;
        *) echo "$1: $2 exited $3 (see $4)" >&2; exit "$3" ;;
    esac
}

produce() { # <side> <checkout> <target-dir>
    local out=$work/out/$1 status=0
    mkdir -p "$out"
    # The drill writes under its own checkout's target/experiments; clear
    # what an earlier run left there, so a missing file stops the script
    # at `cp` instead of being compared stale.
    for f in $outputs; do
        rm -f "$2/target/experiments/$f"
    done
    "$3/release/drill" --smoke chaos chaos_migrate multi_client tail policy replay \
        crash_torture chaos_crash \
        >"$work/out/$1.log" || status=$?
    checked "$1" drill $status "$work/out/$1.log"
    status=0
    "$3/release/paper" >"$work/out/$1.paper.log" || status=$?
    checked "$1" paper $status "$work/out/$1.paper.log"
    grep -v '^\[written ' "$work/out/$1.paper.log" >"$out/paper.md"
    for f in $outputs; do
        cp "$2/target/experiments/$f" "$out/"
    done
}
produce base "$base_dir" "$work/target-base"
produce change "$root" "$work/target-change"

# Each side's traces by their records, its reports less the schema they
# name; compared under the same names in $work/out/<side>/cmp.
normalise() { # <side>
    local out=$work/out/$1
    mkdir -p "$out/cmp"
    for f in $outputs paper.md; do
        case $f in
            *.jsonl)
                "$work/target-change/release/trace_report" --expand "$out/$f" |
                    grep -v '^{"kind":"meta",' >"$out/cmp/$f" ;;
            obs_report.txt | trace_report.txt)
                sed -E 's/^schema=[0-9]+ clock=/schema=* clock=/' "$out/$f" >"$out/cmp/$f" ;;
            *) cp "$out/$f" "$out/cmp/$f" ;;
        esac
    done
}
normalise base
normalise change

status=0
for f in $outputs paper.md; do
    if cmp -s "$work/out/base/cmp/$f" "$work/out/change/cmp/$f"; then
        printf '%-26s identical (%s bytes; base %s)\n' "$f" "$(wc -c <"$work/out/change/$f")" \
            "$(wc -c <"$work/out/base/$f")"
    else
        printf '%-26s DIFFERS: ' "$f"
        cmp "$work/out/base/cmp/$f" "$work/out/change/cmp/$f" || true
        status=1
    fi
done
exit $status
