//! The `hyrd-perf` command.
//!
//! ```text
//! hyrd-perf --workload NAME --seed N --seconds S --trace 0|1   one run (the benchmark contract)
//! hyrd-perf --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! hyrd-perf --compare A.json B.json
//! hyrd-perf --manifest                                        print BENCHMARK.json
//! ```
//!
//! A single run prints every metric by name with its unit and, as its last
//! line, the contract's JSON object. Exit code 1 means the correctness
//! gate failed; 2 means the command line was wrong.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hyrd_perf::alloc::CountingAlloc;
use hyrd_perf::compare;
use hyrd_perf::host::HostContext;
use hyrd_perf::metrics::{manifest, RUN_SECONDS};
use hyrd_perf::run::{results_json, run, run_all, RunOptions};
use hyrd_perf::workloads::{Scale, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: hyrd-perf --workload NAME --seed N --seconds S --trace 0|1
       hyrd-perf --all [--seed N] [--seconds S] [--smoke] [--out FILE]
       hyrd-perf --compare A.json B.json
       hyrd-perf --manifest
workloads: postmark_small large_ec_outage openloop_zipf postmark_observed";

/// The checked command line.
enum Command {
    One(RunOptions),
    All { seed: u64, seconds: f64, scale: Scale, out: PathBuf },
    Compare(PathBuf, PathBuf),
    Manifest,
}

/// Build outputs live under `CARGO_TARGET_DIR` when the caller sets it,
/// else under this package's own `target/`.
fn perf_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from)
        .join("perf")
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut traced = false;
    let mut all = false;
    let mut scale = Scale::Full;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--all" => all = true,
            "--smoke" => scale = Scale::Smoke,
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                return Ok(Command::Compare(a, PathBuf::from(value("two result files")?)));
            }
            "--manifest" => return Ok(Command::Manifest),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (all, workload) {
        (true, None) => {
            let out = out.unwrap_or_else(|| perf_dir().join(format!("results-seed{seed}.json")));
            Ok(Command::All { seed, seconds, scale, out })
        }
        (false, Some(workload)) => Ok(Command::One(RunOptions {
            workload,
            seed,
            seconds,
            traced,
            scale,
            spans_dir: Some(perf_dir()),
        })),
        _ => Err("give exactly one of --workload, --all, --compare, --manifest".to_string()),
    }
}

fn main() -> ExitCode {
    hyrd_perf::alloc::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("hyrd-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Manifest => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Command::Compare(a, b) => {
            let read =
                |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
            match read(&a)
                .and_then(|a| Ok((a, read(&b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
            {
                Ok(rows) => {
                    print!("{}", compare::render(&rows));
                    let regressed = rows.iter().any(|r| r.verdict == compare::Verdict::Regression);
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("hyrd-perf: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::One(opts) => {
            let host = HostContext::detect();
            println!("host {}", host.to_json());
            let result = run(&opts);
            print!("{}", result.table());
            println!("{}", result.contract_line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::All { seed, seconds, scale, out } => {
            let host = HostContext::detect();
            println!("host {}", host.to_json());
            println!(
                "open loop: arrivals are virtual, so generator lateness is 0 by construction; \
                 every request is timed from the instant it was due"
            );
            let results = run_all(seed, seconds, scale, Some(perf_dir()));
            for result in &results {
                print!("{}", result.table());
            }
            let written = out
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&out, results_json(&host, seed, &results)));
            if let Err(e) = written {
                eprintln!("hyrd-perf: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            println!("results written to {}", out.display());
            if results.iter().all(|r| r.correct()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
