#!/usr/bin/env bash
# The seed sweep of ROADMAP item 1's gate, one row per seed:
#
#   scripts/drill_sweep.sh [DRILL [EXPERIMENTS]]
#
# For S = 1..8 and 42 it runs the full-length `drill --seed S chaos
# chaos_migrate` and, for S = 1..8, `drill --smoke --seed S chaos_crash`.
# For `chaos` and `chaos_migrate` it prints the split of the red claim,
# unrecoverable reads, read from each run's `<scenario>_drill.json`:
# failed verifications mid-drill (`mid`), final-sweep mismatches (`mis`)
# and errors (`err`), the final scrub's unrecoverable objects (`scr`),
# and their total (`total`, the claim itself); for `chaos_crash` its
# durability violations (`-` where a scenario is not run); then the
# totals. DRILL is the drill binary (default target/release/drill; build
# it with `cargo build --release -p hyrd-bench`), so two checkouts'
# binaries give two tables to compare. A drill writes its records under
# the target/experiments of the checkout it was built from: EXPERIMENTS
# names that directory (default: `experiments` beside DRILL's profile
# directory, i.e. target/experiments for target/release/drill). A drill
# whose claims fail exits 1 and is counted, not stopped at; any other
# failure stops the script with its status. ≈ 2 minutes on 2 cores.
set -euo pipefail

drill=${1:-target/release/drill}
experiments=${2:-$(dirname "$drill")/../experiments}
log=$(mktemp)
trap 'rm -f "$log"' EXIT

run() { # <drill arguments...>
    local status=0
    "$drill" "$@" >"$log" 2>&1 || status=$?
    if [ "$status" -gt 1 ]; then
        cat "$log" >&2
        echo "drill $* exited $status" >&2
        exit "$status"
    fi
}

claim() { # <claim name>: its value in the last run's table
    sed -n "s/^| \`$1\` | \([0-9][0-9]*\) |.*/\1/p" "$log"
}

split() { # <scenario>: "mid mis err scr total" of its last drill record
    local record=$experiments/$1_drill.json
    local field
    for field in verify_failures_mid_drill final_sweep_mismatches final_sweep_errors; do
        sed -n "s/^  \"$field\": \([0-9][0-9]*\),\{0,1\}$/\1/p" "$record"
    done
    awk '/^  "final_scrub": \{/ { on = 1 }
         on && /"unrecoverable":/ { gsub(/[^0-9]/, ""); print; exit }' "$record"
    sed -n 's/^  "unrecoverable_reads": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$record"
}

row() { # <seed> <10 split numbers> <chaos_crash>
    printf '%-5s | %4s %4s %4s %4s %5s | %4s %4s %4s %4s %5s | %11s\n' "$@"
}

printf '%-5s | %-24s | %-24s | %11s\n' '' chaos chaos_migrate chaos_crash
row seed mid mis err scr total mid mis err scr total violations
totals=(0 0 0 0 0 0 0 0 0 0)
total_crash=0
for seed in 1 2 3 4 5 6 7 8 42; do
    rm -f "$experiments/chaos_drill.json" "$experiments/chaos_migrate_drill.json"
    run --seed "$seed" chaos chaos_migrate
    # shellcheck disable=SC2207 # ten numbers, one per line
    counts=($(split chaos) $(split chaos_migrate))
    if [ "${#counts[@]}" -ne 10 ]; then
        echo "seed $seed: no complete drill records under $experiments" >&2
        exit 2
    fi
    for i in "${!counts[@]}"; do
        totals[i]=$((totals[i] + counts[i]))
    done
    crash=-
    if [ "$seed" != 42 ]; then
        run --smoke --seed "$seed" chaos_crash
        crash=$(claim chaos_crash.durability_violations)
        total_crash=$((total_crash + crash))
    fi
    row "$seed" "${counts[@]}" "$crash"
done
row total "${totals[@]}" "$total_crash"
