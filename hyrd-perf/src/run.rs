//! One benchmark run: warm-up, measured laps, the correctness gate, and
//! the result in both of its printed forms.
//!
//! Protocol per workload: one discarded warm-up lap (kernel detection,
//! thread start-up, page faults), then N measured *untraced* laps, each on
//! a fresh clock / fleet / `Hyrd`. Laps are count-bounded; N is how many
//! fit the run's time budget (3 to 30). Metrics are the median over laps
//! (the two host-time metrics: the best quartile) with the inter-quartile
//! range beside them; virtual metrics and counts must be identical on
//! every lap. A traced run instead measures
//! two untraced laps, one traced lap and the stand-alone probes, and
//! reports the per-layer ledger.

use std::path::PathBuf;
use std::time::Instant;

use hyrd::HyrdConfig;

use crate::host::HostContext;
use crate::json::number;
use crate::ledger::{self, LedgerInputs};
use crate::metrics::{Better, Metric, OverLaps, END_TO_END};
use crate::probes;
use crate::stats::{median, quartiles};
use crate::tap::write_spans;
use crate::workloads::{op_lists, run_lap, Lap, Mode, Scale, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget for the measured laps.
    pub seconds: f64,
    /// Per-layer ledger (traced lap + probes) instead of end-to-end laps.
    pub traced: bool,
    pub scale: Scale,
    /// Where the traced lap's spans go (`<dir>/<workload>.spans.jsonl`).
    pub spans_dir: Option<PathBuf>,
}

/// One metric over a run's laps.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: &'static str,
    pub unit: &'static str,
    /// The laps' values condensed as the metric's `OverLaps` says.
    pub value: f64,
    /// Inter-quartile range over laps (0 for a single value).
    pub iqr: f64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Measured laps (the warm-up is not counted).
    pub laps: usize,
    /// Timed-phase ops over all measured laps, and how many were refused
    /// or failed read verification.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty means correct.
    pub violations: Vec<String>,
    pub metrics: Vec<Series>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Series> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let kind =
            if self.traced { "per-layer ledger (traced lap + probes)" } else { "end to end" };
        writeln!(
            out,
            "== {}  seed {}  {} measured lap(s)  {kind}",
            self.workload.name(),
            self.seed,
            self.laps
        )
        .expect("writing to a String");
        for m in &self.metrics {
            let spread = if m.iqr > 0.0 && m.value != 0.0 {
                format!("  iqr {:.2}%", m.iqr / m.value.abs() * 100.0)
            } else {
                String::new()
            };
            writeln!(out, "  {:<38} {:>16} {:<6}{spread}", m.name, sig(m.value), m.unit)
                .expect("writing to a String");
        }
        for v in &self.violations {
            writeln!(out, "  VIOLATION: {v}").expect("writing to a String");
        }
        out
    }
}

/// Six significant digits, no exponent for the magnitudes seen here;
/// "n/a" for a percentile the sample could not support.
fn sig(v: f64) -> String {
    if v.is_nan() {
        return "n/a".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// How many measured laps fit `seconds`, given how long the warm-up took.
fn lap_count(scale: Scale, seconds: f64, lap_s: f64) -> usize {
    match scale {
        Scale::Smoke => 2,
        Scale::Full => ((seconds / lap_s.max(1e-3)) as usize).clamp(3, 30),
    }
}

/// Condenses the laps' end-to-end metrics (each in `END_TO_END` order).
fn series(per_lap: &[Vec<Metric>]) -> Vec<Series> {
    END_TO_END
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let values: Vec<f64> = per_lap.iter().map(|lap| lap[i].value).collect();
            let (q1, q3) = quartiles(&values);
            let value = match (def.over_laps, def.better) {
                (OverLaps::Median, _) => median(&values),
                (OverLaps::BestQuartile, Better::Lower) => q1,
                (OverLaps::BestQuartile, Better::Higher) => q3,
            };
            Series { name: def.name, unit: def.unit, value, iqr: q3 - q1 }
        })
        .collect()
}

/// The correctness gate over a run's laps. `reference` is a plain
/// `postmark_small` lap when the workload is `postmark_observed`.
fn gate(opts: &RunOptions, laps: &[&Lap], reference: Option<&Lap>) -> Vec<String> {
    let mut violations = Vec::new();
    let first = laps[0];
    for (i, lap) in laps.iter().enumerate() {
        if lap.failed != 0 {
            violations.push(format!(
                "lap {i}: {} of {} ops refused or failed verification",
                lap.failed, lap.attempted
            ));
        }
        if lap.fingerprint() != first.fingerprint() {
            violations.push(format!(
                "lap {i}: virtual metrics or counts differ from lap 0 for the same seed"
            ));
        }
    }
    if let Some(plain) = reference {
        if plain.fingerprint() != first.fingerprint() {
            violations.push(
                "watching changed the model: virtual metrics differ from postmark_small"
                    .to_string(),
            );
        }
    }
    if let Some(recovery) = &first.recovery {
        if recovery.pending_after != 0 {
            violations.push(format!(
                "final audit: {} log records / dirty fragments pending",
                recovery.pending_after
            ));
        }
    }
    if opts.scale == Scale::Full {
        let p = ledger::percentiles(&first.samples);
        if p.read_p50.is_none() || p.read_p99.is_none() || p.write_p99.is_none() {
            violations.push("too few samples to support the read p50/p99 or write p99".to_string());
        }
        if opts.workload == Workload::OpenloopZipf {
            let met = first.steps.iter().filter(|s| s.meets_limit).count();
            if met == 0 || met == first.steps.len() {
                violations.push(format!("{met} of {} staircase steps meet the latency limit; the staircase must straddle it", first.steps.len()));
            }
        }
    }
    // Counts only a collector's registry shows (traced laps).
    for lap in laps {
        let Some(registry) = &lap.registry else { continue };
        if opts.workload.closed_loop() {
            let queued = registry.histograms.get("engine.queue_ns").map_or(0, |h| h.count);
            let hedges =
                ["hedge.fired", "hedge.won", "hedge.cancelled"].map(|c| registry.counter(c));
            if queued != 0 || hedges != [0; 3] {
                violations
                    .push(format!("closed loop queued {queued} time(s), hedge counts {hedges:?}"));
            }
        }
        if matches!(opts.workload, Workload::PostmarkSmall | Workload::PostmarkObserved) {
            let ec: u64 = registry
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with("ec."))
                .map(|(_, h)| h.count)
                .sum();
            if ec != 0 {
                violations
                    .push(format!("{ec} gfec call(s) on a workload with no erasure-coded file"));
            }
        }
    }
    violations
}

/// Runs `opts.workload` and returns its metrics and gate verdict.
pub fn run(opts: &RunOptions) -> RunResult {
    let lap = |workload: Workload, mode: Mode| run_lap(workload, opts.seed, opts.scale, mode);
    // `postmark_observed` is judged against the same op stream unwatched.
    let observed = opts.workload == Workload::PostmarkObserved;
    let plain_laps = match (observed, opts.traced) {
        (false, _) => 0,
        (true, false) => 1,
        // One to warm the process up, two to take a median over.
        (true, true) => 3,
    };
    let plain: Vec<Lap> =
        (0..plain_laps).map(|_| lap(Workload::PostmarkSmall, Mode::Untraced)).collect();

    let warm = Instant::now();
    drop(lap(opts.workload, Mode::Untraced));
    let lap_s = warm.elapsed().as_secs_f64();

    let count = if opts.traced { 2 } else { lap_count(opts.scale, opts.seconds, lap_s) };
    let untraced: Vec<Lap> = (0..count).map(|_| lap(opts.workload, Mode::Untraced)).collect();
    let traced_lap = opts.traced.then(|| lap(opts.workload, Mode::Traced));
    let all: Vec<&Lap> = untraced.iter().chain(&traced_lap).collect();

    let mut violations = gate(opts, &all, plain.last());
    let metrics = match &traced_lap {
        None => series(&untraced.iter().map(ledger::end_to_end).collect::<Vec<_>>()),
        Some(traced_lap) => {
            let inputs = ledger_inputs(opts, traced_lap, &untraced, &plain);
            if inputs.telemetry.disabled_allocs != 0 {
                violations.push(format!(
                    "disabled telemetry allocated {} time(s)",
                    inputs.telemetry.disabled_allocs
                ));
            }
            if let Some(dir) = &opts.spans_dir {
                let path = dir.join(format!("{}.spans.jsonl", opts.workload.name()));
                let written = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::File::create(&path))
                    .and_then(|file| write_spans(&traced_lap.spans, std::io::BufWriter::new(file)));
                if let Err(e) = written {
                    violations.push(format!("cannot write {}: {e}", path.display()));
                }
            }
            let ledger = ledger::per_layer(&inputs);
            ledger
                .into_iter()
                .map(|m| Series { name: m.name, unit: m.unit, value: m.value, iqr: 0.0 })
                .collect()
        }
    };
    RunResult {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.traced,
        laps: all.len(),
        attempted: all.iter().map(|l| l.attempted).sum(),
        failed: all.iter().map(|l| l.failed).sum(),
        violations,
        metrics,
    }
}

fn ledger_inputs<'a>(
    opts: &RunOptions,
    traced: &'a Lap,
    untraced: &[Lap],
    plain: &[Lap],
) -> LedgerInputs<'a> {
    let full = opts.scale == Scale::Full;
    let reps = |full_reps: usize, smoke_reps: usize| if full { full_reps } else { smoke_reps };
    let config = HyrdConfig::default();
    let large =
        if traced.median_large_file > 0 { traced.median_large_file } else { config.threshold + 1 };
    let object = if traced.median_small_file > 0 {
        traced.median_small_file
    } else {
        traced.median_large_file.div_ceil(config.code.m() as u64)
    };
    let (pool, timed) = op_lists(opts.workload, opts.seed, opts.scale);
    let telemetry =
        probes::telemetry(reps(20_000, 200), traced.observed.as_ref().map(|o| o.trace.as_str()));
    // The first plain lap doubles as the process's warm-up; skip it.
    let plain_replay = (plain.len() > 1).then(|| {
        let warm = &plain[1..];
        let wall: Vec<f64> = warm.iter().map(|l| l.timed.wall_s).collect();
        (median(&wall), warm[0].timed.allocs)
    });
    LedgerInputs {
        traced,
        untraced_wall_s: median(&untraced.iter().map(|l| l.timed.wall_s).collect::<Vec<_>>()),
        plain_replay,
        gfec: probes::gfec(large as usize, traced.update_len as usize, reps(15, 2)),
        sha: probes::sha(reps(15, 2)),
        cloudsim: probes::cloudsim(object as usize, traced.ghost, reps(200, 8)),
        metastore: probes::metastore(config.meta_shards, &pool, &timed),
        engine_fanout_ns: probes::engine_fanout_ns(reps(2_000, 16)),
        telemetry,
    }
}

/// Runs every workload, end to end and traced, and returns the results in
/// workload order (untraced first).
pub fn run_all(
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans_dir: Option<PathBuf>,
) -> Vec<RunResult> {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let opts =
                RunOptions { workload, seed, seconds, traced, scale, spans_dir: spans_dir.clone() };
            results.push(run(&opts));
        }
    }
    results
}

/// The result file `--all` writes and `--compare` reads: host context,
/// seed, and per workload every metric with its unit and its
/// inter-quartile range over laps.
pub fn results_json(host: &HostContext, seed: u64, results: &[RunResult]) -> String {
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut sections = Vec::new();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let Some(result) =
                results.iter().find(|r| r.workload == workload && r.traced == traced)
            else {
                continue;
            };
            let metrics: Vec<String> = result
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "          \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"iqr\": {}}}",
                        m.name,
                        number(m.value),
                        m.unit,
                        number(m.iqr)
                    )
                })
                .collect();
            sections.push(format!(
                "      \"{key}\": {{\n        \"laps\": {},\n        \"metrics\": {{\n{}\n        }}\n      }}",
                result.laps,
                metrics.join(",\n")
            ));
        }
        if sections.is_empty() {
            continue;
        }
        let correct = results.iter().filter(|r| r.workload == workload).all(RunResult::correct);
        workloads.push(format!(
            "    \"{}\": {{\n      \"correct\": {correct},\n{}\n    }}",
            workload.name(),
            sections.join(",\n")
        ));
    }
    format!(
        "{{\n  \"host\": {},\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.to_json(),
        workloads.join(",\n")
    )
}
