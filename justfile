# Developer entry points. `just verify` is the tier-1 gate, verbatim from
# ROADMAP.md; `just lint` is the rest of CI's first job.

# Release build, then the full test suite. The workspace names no
# registry crate, so this runs from a bare checkout with no network.
verify:
    cargo build --release && cargo test -q

# Format check, lints as errors, then the hash and GF(2^8) kernels'
# suites again under the release profile.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo test -q --offline -p hyrd-dedup --release
    cargo test -q --offline -p hyrd-gfec --release

# Non-test Rust lines of code per crate (non-blank, non-comment, each
# file cut at its `#[cfg(test)]` tail, `tests/` and `benches/` left out)
# — the count every simplicity gate in ROADMAP.md quotes before/after.
# `just loc crates/core/src/dispatcher` counts given directories.
loc *dirs:
    scripts/loc.sh {{dirs}}

# Quick chaos soak: seeded fault schedule, asserts zero unrecoverable
# reads and a byte-identical report across two same-seed runs.
chaos:
    cargo run --release -p hyrd-bench --bin chaos_drill -- --smoke --selfcheck

# Full-length drill (10k ops) with the default seed.
chaos-full:
    cargo run --release -p hyrd-bench --bin chaos_drill

# Crash-restart durability torture (DESIGN.md §12): exhaustive sweep of
# every provider-op budget and journal crashpoint on a mixed trace, plus
# seeded sampling on the IA trace; asserts zero durability violations
# and a byte-identical report across worker counts. The crash-mode
# chaos drill composes client crashes with live provider faults.
crash-torture:
    cargo run --release -p hyrd-bench --bin crash_torture -- --selfcheck
    cargo run --release -p hyrd-bench --bin chaos_drill -- --smoke --crash --selfcheck

# Smoke drill with the telemetry trace written out: every span and event
# on the request path, stamped with the virtual clock, as JSONL.
trace:
    mkdir -p target/experiments
    cargo run --release -p hyrd-bench --bin chaos_drill -- --smoke --trace target/experiments/chaos_trace.jsonl
    @echo "trace at target/experiments/chaos_trace.jsonl"

# Multi-client determinism soak: N closed-loop sessions over one shared
# client; --check asserts merged stats + traces are byte-identical for
# every session/worker count (DESIGN.md §11).
multi-client:
    cargo run --release -p hyrd-bench --bin multi_client -- --smoke --clients 4 --check

# The paper's evaluation, regenerated and checked: every section as
# Markdown (EXPERIMENTS.md is this output), target/experiments/paper.json,
# exit 1 if any of the paper's claims fails.
experiments:
    cargo run --release --offline -p hyrd-bench --bin paper

# Jobs-invariance of the parallel sweep engine on a one-week archive
# sweep: --check re-runs the grid single-threaded and asserts
# byte-identical serialized stats.
replay-sweep:
    cargo run --release -p hyrd-bench --bin replay_sweep -- --weeks 1 --jobs 2 --check

# Tail-latency sweep: the open-loop Poisson workload over hedging delay
# × fault plan (rotating x8 latency spikes), with --check proving stats
# and traces are byte-identical across worker counts, hedging on or off.
# The committed numbers for this regime are the ledger's
# `engine.step*_read_p99_s` rows on `openloop_zipf` (`just perf`).
tail-check:
    cargo run --release -p hyrd-bench --bin tail_latency -- --check

# Availability-observatory report over a seeded smoke drill: writes the
# telemetry trace, then renders provider SLIs, redundancy exposure and
# the read ledger from it, with the analyzer's waterfalls/flame/heatmap
# appendix and the measured-vs-modeled availability cross-check.
obs-report:
    mkdir -p target/experiments
    cargo run --release -p hyrd-bench --bin chaos_drill -- --smoke --trace target/experiments/chaos_trace.jsonl --obs target/experiments/obs_report.txt
    cargo run --release -p hyrd-bench --bin trace_report -- --trace target/experiments/chaos_trace.jsonl --jobs 4 --check-model --out target/experiments/trace_report.txt
    @echo "observatory report at target/experiments/obs_report.txt"
    @echo "trace analysis at target/experiments/trace_report.txt"

# Adaptive-policy Pareto sweep (static baselines vs SLI-gated background
# migration, DESIGN.md §16): --check asserts the adaptive cell dominates
# at least one static baseline and that cells + traces are
# byte-identical across job counts; the record lands in
# target/experiments/policy_sweep.json.
policy-check:
    cargo run --release -p hyrd-bench --bin policy_sweep -- --check

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

# Byte-identity of what the telemetry path writes, <base> (a git revision,
# unpacked with `git archive`) against the working tree: the chaos smoke
# trace and its --obs report, trace_report --jobs 4 over it, the 4-client
# multi_client smoke trace and the tail_latency smoke trace, each `cmp`ed.
# Exits 1 on any difference — the proof a change to the collector, the
# writer, the parser or the fold kept every trace byte.
trace-cmp base:
    scripts/trace_cmp.sh {{base}}
