# Developer entry points. `just verify` is the tier-1 gate, verbatim from
# ROADMAP.md; `just lint` is the rest of CI's first job.

# Release build, then the full test suite. The workspace names no
# registry crate, so this runs from a bare checkout with no network.
verify:
    cargo build --release && cargo test -q

# Format check, lints as errors, then the hash and GF(2^8) kernels'
# suites and the request path's allocation budgets again under the
# release profile (the one hyrd-perf measures).
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo test -q --offline -p hyrd-dedup --release
    cargo test -q --offline -p hyrd-gfec --release
    cargo test -q --offline -p hyrd --release --test alloc_budget

# Non-test Rust lines of code per crate (non-blank, non-comment, each
# file cut at its `#[cfg(test)]` tail, `tests/` and `benches/` left out)
# — the count every simplicity gate in ROADMAP.md quotes before/after.
# `just loc crates/core/src/dispatcher` counts given directories.
loc *dirs:
    scripts/loc.sh {{dirs}}

# The availability drills (hyrd_bench::drill): every scenario of the
# table, or those named — chaos, chaos_migrate, chaos_crash,
# crash_torture, multi_client, tail, policy, replay — each claim printed,
# records and traces under target/experiments, exit 1 if a claim fails.
# `--smoke` is CI's short run, `--seed S` replaces every default seed,
# `--check` re-runs each scenario across its jobs/clients grid and claims
# report and trace byte-identical. `just drill --smoke --check chaos`.
drill *args:
    cargo run --release --offline -p hyrd-bench --bin drill -- {{args}}

# ROADMAP item 1's gate, one row per seed: the full-length `chaos` and
# `chaos_migrate` drills at seeds 1..8 and 42 (unrecoverable reads) and
# the smoke `chaos_crash` drill at seeds 1..8 (durability violations),
# then the totals. A failing claim is counted, not fatal; ≈ 2 minutes.
drill-sweep:
    cargo build --release --offline -p hyrd-bench
    scripts/drill_sweep.sh target/release/drill

# The paper's evaluation, regenerated and checked: every section as
# Markdown (EXPERIMENTS.md is this output), target/experiments/paper.json,
# exit 1 if any of the paper's claims fails.
experiments:
    cargo run --release --offline -p hyrd-bench --bin paper

# The two-clock perf ledger (BENCHMARK.json): all four hyrd-perf
# workloads, end to end + per-layer, results under hyrd-perf/target/perf.
perf:
    cargo run --release --offline --quiet --manifest-path hyrd-perf/Cargo.toml -- --all

# hyrd-perf's own tests (a separate workspace `cargo test -q` does not
# reach): unit tests, the allocator test, four workloads at smoke scale.
perf-test:
    cargo test --offline --manifest-path hyrd-perf/Cargo.toml

# Paired, alternating hyrd-perf runs of <base> (a git revision, unpacked
# with `git archive`) against the working tree: per workload and
# end-to-end metric each side's median and quartiles and the pair win
# count. <workloads> is one name, a comma-separated list or `all`; the
# runs of a list interleave, so the claimed row and the "must not move"
# rows come from the same minutes. Exits 1 when any run is incorrect or
# has failed operations or any row reads "WORSE than bound", so it can
# gate. Every wall-clock claim needs this — the host drifts ±20 % with
# identical code. PERF_SEED overrides the default seed 11.
perf-pairs base workloads pairs="10":
    scripts/perf_pairs.sh {{base}} {{workloads}} {{pairs}}

# The per-layer ledger of <base> (a git revision, unpacked with `git
# archive`) against the working tree: `--trace 1` runs of one workload,
# alternating sides, each per-layer metric's median on both sides and
# their ratio — where a wall-clock change went. Exits 1 when a count row
# (provider ops and bytes, flush bytes, hashed MiB, gfec calls, trace
# records and bytes) differs in any run.
ledger-cmp base workload runs="3":
    scripts/ledger_cmp.sh {{base}} {{workload}} {{runs}}

# Byte-identity of what the telemetry path and the baselines write,
# <base> (a git revision, unpacked with `git archive`) against the
# working tree: `drill --smoke` and `paper` on both sides, and the traces
# of chaos, chaos_migrate, multi_client, tail and policy, the observatory
# report, the trace analysis, the policy and replay records, `paper.json`
# and `paper`'s Markdown, each `cmp`ed.
# Exits 1 on any difference — the proof a change to the collector, the
# writer, the parser, the fold or a baseline kept every byte.
trace-cmp base:
    scripts/trace_cmp.sh {{base}}
