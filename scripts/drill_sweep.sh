#!/usr/bin/env bash
# The seed sweep of ROADMAP item 1's gate, one row per seed:
#
#   scripts/drill_sweep.sh [DRILL]
#
# For S = 1..8 and 42 it runs the full-length `drill --seed S chaos
# chaos_migrate` and, for S = 1..8, `drill --smoke --seed S chaos_crash`,
# and prints each scenario's count of the claim that is red today:
# unrecoverable reads of `chaos` and `chaos_migrate`, durability
# violations of `chaos_crash` (`-` where a scenario is not run), then the
# totals. DRILL is the drill binary (default target/release/drill; build
# it with `cargo build --release -p hyrd-bench`), so two checkouts'
# binaries give two tables to compare. A drill whose claims fail exits 1
# and is counted, not stopped at; any other failure stops the script with
# its status. Each drill writes its records under its own checkout's
# target/experiments. ≈ 2 minutes on 2 cores.
set -euo pipefail

drill=${1:-target/release/drill}
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

printf '%-6s %6s %14s %12s\n' seed chaos chaos_migrate chaos_crash
total_chaos=0 total_migrate=0 total_crash=0
for seed in 1 2 3 4 5 6 7 8 42; do
    run --seed "$seed" chaos chaos_migrate
    chaos=$(claim chaos.unrecoverable_reads)
    migrate=$(claim chaos_migrate.unrecoverable_reads)
    crash=-
    if [ "$seed" != 42 ]; then
        run --smoke --seed "$seed" chaos_crash
        crash=$(claim chaos_crash.durability_violations)
        total_crash=$((total_crash + crash))
    fi
    total_chaos=$((total_chaos + chaos))
    total_migrate=$((total_migrate + migrate))
    printf '%-6s %6s %14s %12s\n' "$seed" "$chaos" "$migrate" "$crash"
done
printf '%-6s %6s %14s %12s\n' total "$total_chaos" "$total_migrate" "$total_crash"
