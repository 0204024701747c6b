#!/usr/bin/env bash
# Non-test Rust lines of code: non-blank, non-comment lines of every
# `*.rs` under a crate's `src/`, each file cut at its `#[cfg(test)]`
# tail; `tests/` and `benches/` are not counted at all. This is the
# number the simplicity gates in ROADMAP.md ask for ("net LOC negative,
# before/after in CHANGES.md").
#
#   scripts/loc.sh            one row per crate, then the total
#   scripts/loc.sh DIR...     one row per given directory (e.g.
#                             crates/core/src/dispatcher), then the total
#
# Paths are relative to the directory it is started in, so the same
# script counts another revision from the root of its `git archive`.
set -euo pipefail

if [ $# -gt 0 ]; then
    dirs=("$@")
else
    dirs=(crates/*/src examples hyrd-perf/src)
fi

count() { # <dir>: lines of code in its *.rs files
    find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { tail = 0 }
            /^#\[cfg\(test\)\]/ { tail = 1 }
            tail || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in "${dirs[@]}"; do
    n=$(count "$dir")
    printf '%8d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
