//! The availability drills: every soak, fault, crash and sweep that
//! checks the paper's headline — zero unrecoverable reads through
//! outages, faults, crashes and migration — as one row of [`TABLE`],
//! run by one harness.
//!
//! A row is a run function and the grid it must be invariant over. The
//! run keeps its scenario's own op stream and report; everything else is
//! written once here: the rig ([`Rig`]: clock, standard fleet, trace
//! collector), the IA-trace op builder ([`ia_ops`]), the coin flips
//! ([`mix`]), artefact writing, the claims table and the invariance
//! harness ([`check`]). With `--check` the harness re-runs the scenario
//! at every other worker and client count of its grid — concurrently, two
//! at a time — and claims the report and the trace byte-identical to the
//! base run's at each one. Every assertion a drill makes is a named
//! [`Claim`]; the `drill` binary prints the claims table and exits 1 if
//! any fails, 2 on a usage error.
//!
//! Usage: `drill [--smoke] [--seed S] [--check] [SCENARIO ...]` — no
//! scenario names runs the whole table. `--smoke` is the short run CI
//! uses, `--seed` replaces every chosen scenario's default seed.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::time::Duration;

use hyrd::driver::{replay_sweep, ReplayOptions};
use hyrd::prelude::*;
use hyrd::telemetry::{for_each_record, Collector, SharedBuf};
use hyrd_cloudsim::FaultPlan;
use hyrd_workloads::{FsOp, IaTrace};

use crate::trace_report::{build_report, Analysis, ReportOptions};
use crate::{header, write_file};

mod chaos;
mod policy;
mod replay;
mod soak;
mod tail;
mod torture;

/// Every scenario, in the order a bare `drill` runs them.
pub const TABLE: &[Scenario] = &[
    Scenario { name: "chaos", run: chaos::chaos, jobs: &[1, 2], clients: &[1, 4] },
    Scenario { name: "chaos_migrate", run: chaos::migrate, jobs: &[1, 2], clients: &[1, 4] },
    Scenario { name: "chaos_crash", run: chaos::crash, jobs: &[1], clients: &[1] },
    Scenario { name: "crash_torture", run: torture::run, jobs: &[1, 2], clients: &[1] },
    Scenario { name: "multi_client", run: soak::run, jobs: &[1, 2], clients: &[4, 1, 16, 64] },
    Scenario { name: "tail", run: tail::run, jobs: &[1, 2], clients: &[1] },
    Scenario { name: "policy", run: policy::run, jobs: &[1, 2], clients: &[1] },
    Scenario { name: "replay", run: replay::run, jobs: &[1, 2], clients: &[1] },
];

/// One row of the table.
pub struct Scenario {
    pub name: &'static str,
    pub run: fn(&Options, Point) -> Outcome,
    /// Worker counts the report and trace must not depend on; the first
    /// is the base run's.
    pub jobs: &'static [usize],
    /// Client counts likewise. A grid of one point is checked by running
    /// it twice.
    pub clients: &'static [usize],
}

/// What the command line set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Options {
    pub smoke: bool,
    pub seed: Option<u64>,
    pub check: bool,
}

impl Options {
    fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// A point of a scenario's grid: worker threads and client sessions.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub jobs: usize,
    pub clients: usize,
}

/// What one run of a scenario produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The part of the report that must be byte-identical at every point
    /// of the grid.
    pub report: String,
    /// The telemetry trace, byte-identical at every point likewise.
    pub trace: Vec<u8>,
    /// Files written under `target/experiments` from the base run.
    pub files: Vec<(String, Vec<u8>)>,
    /// The run's claims, named without the scenario.
    pub claims: Vec<Claim>,
    /// What the run prints.
    pub summary: String,
}

/// One thing a drill asserts, and whether it held.
#[derive(Debug)]
pub struct Claim {
    /// `<scenario>.<name>`.
    pub id: String,
    pub measured: String,
    pub holds: bool,
}

impl Claim {
    pub fn new(id: impl Into<String>, holds: bool, measured: impl Display) -> Claim {
        Claim { id: id.into(), measured: measured.to_string(), holds }
    }

    /// A count that must be zero.
    pub fn zero(id: impl Into<String>, n: u64) -> Claim {
        Claim::new(id, n == 0, n)
    }
}

/// Runs `scenario` at its base point (the first jobs and clients of its
/// grid) and, with `--check`, at each other point: every other worker
/// count at the base's clients, and every other client count at the
/// grid's last worker count, so that many sessions are also checked on
/// many workers. The base outcome comes back with its claims named
/// `<scenario>.<claim>`, then one `<scenario>.same_at_<point>` claim per
/// other point (`jobs_2`, `clients_16_jobs_2`, or `clients_4` on a
/// one-worker grid): its report and trace byte-identical to the base's.
pub fn check(scenario: &Scenario, opts: &Options) -> Outcome {
    let base = Point { jobs: scenario.jobs[0], clients: scenario.clients[0] };
    let mut out = (scenario.run)(opts, base);
    for c in &mut out.claims {
        c.id = format!("{}.{}", scenario.name, c.id);
    }
    if !opts.check {
        return out;
    }
    let mut points: Vec<(String, Point)> = Vec::new();
    for &jobs in &scenario.jobs[1..] {
        points.push((format!("jobs_{jobs}"), Point { jobs, ..base }));
    }
    let jobs = *scenario.jobs.last().expect("a grid names a worker count");
    for &clients in &scenario.clients[1..] {
        let name = if jobs == base.jobs {
            format!("clients_{clients}")
        } else {
            format!("clients_{clients}_jobs_{jobs}")
        };
        points.push((name, Point { clients, jobs }));
    }
    if points.is_empty() {
        points.push(("repeat".into(), base));
    }
    let runs = points.iter().map(|&(_, p)| move || (scenario.run)(opts, p)).collect();
    for ((axis, _), alt) in points.iter().zip(replay_sweep(runs, 2)) {
        let same = (alt.report == out.report, alt.trace == out.trace);
        let measured = match same {
            (true, true) => "identical",
            (false, true) => "report differs",
            (true, false) => "trace differs",
            (false, false) => "report and trace differ",
        };
        let id = format!("{}.same_at_{axis}", scenario.name);
        out.claims.push(Claim::new(id, same == (true, true), measured));
    }
    out
}

/// The usage line and the scenario names.
fn usage(table: &[Scenario]) -> String {
    let names: Vec<_> = table.iter().map(|s| s.name).collect();
    format!(
        "usage: drill [--smoke] [--seed S] [--check] [SCENARIO ...]\nscenarios: {}",
        names.join(" ")
    )
}

/// Reads the command line: three flags, each at most once, and scenario
/// names from `table` (none means all of them).
pub fn parse(
    args: impl IntoIterator<Item = String>,
    table: &[Scenario],
) -> Result<(Options, Vec<&Scenario>), String> {
    let mut opts = Options::default();
    let mut chosen = Vec::new();
    let mut seen = BTreeSet::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if !seen.insert(a.clone()) {
            return Err(format!("{a} given twice"));
        }
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a number"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => match table.iter().find(|s| s.name == name) {
                Some(s) => chosen.push(s),
                None => return Err(format!("unknown scenario {name}")),
            },
        }
    }
    if chosen.is_empty() {
        chosen = table.iter().collect();
    }
    Ok((opts, chosen))
}

/// The `drill` binary: parses `args`, runs the chosen scenarios of
/// `table` through [`check`], writes their files, prints the claims
/// table. Returns the exit status: 0 if every claim holds, 1 if one
/// fails, 2 on a usage error.
pub fn main(args: impl IntoIterator<Item = String>, table: &[Scenario]) -> i32 {
    let (opts, chosen) = match parse(args, table) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("drill: {e}\n{}", usage(table));
            return 2;
        }
    };
    let mut claims = Vec::new();
    for scenario in chosen {
        header(&format!("drill {}", scenario.name));
        let out = check(scenario, &opts);
        print!("{}", out.summary);
        for (file, bytes) in &out.files {
            write_file(file, bytes);
        }
        claims.extend(out.claims);
    }
    println!("\n| claim | measured | holds |\n|---|---|---|");
    for c in &claims {
        println!("| `{}` | {} | {} |", c.id, c.measured, if c.holds { "✓" } else { "✗ FAILS" });
    }
    let failing: Vec<_> = claims.iter().filter(|c| !c.holds).map(|c| c.id.as_str()).collect();
    println!(
        "\n{} of {} claims hold; failing: {failing:?}",
        claims.len() - failing.len(),
        claims.len()
    );
    i32::from(!failing.is_empty())
}

// ---- what the scenarios share ----------------------------------------------

/// SplitMix64 finalizer: the drills' deterministic coin flips.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A fresh fleet of the four standard providers on its own virtual
/// clock, and a collector stamped with that clock.
struct Rig {
    clock: SimClock,
    fleet: Fleet,
    buf: SharedBuf,
    telemetry: Collector,
}

impl Rig {
    /// The collector writes the JSONL trace into [`Rig::trace`].
    fn traced() -> Rig {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        let buf = SharedBuf::new();
        let telemetry = Collector::builder(clock.clone()).jsonl(buf.clone()).build();
        Rig { clock, fleet, buf, telemetry }
    }

    /// No collector.
    fn untraced() -> Rig {
        let clock = SimClock::new();
        let fleet = Fleet::standard_four(clock.clone());
        Rig { clock, fleet, buf: SharedBuf::new(), telemetry: Collector::disabled() }
    }

    /// Replay with reads verified against the expected bytes, traced.
    fn replay_options(&self) -> ReplayOptions {
        ReplayOptions {
            verify_reads: true,
            telemetry: self.telemetry.clone(),
            ..ReplayOptions::default()
        }
    }

    /// Everything traced so far.
    fn trace(&self) -> Vec<u8> {
        self.telemetry.flush();
        self.buf.contents()
    }

    /// A [`FaultPlan::chaos`] schedule on every provider, seeded apart,
    /// sized to `ops` at roughly 1.5 virtual seconds each.
    fn chaos(&self, seed: u64, ops: usize) {
        let horizon = Duration::from_millis(ops as u64 * 1500);
        for (idx, p) in self.fleet.providers().iter().enumerate() {
            p.set_fault_plan(FaultPlan::chaos(mix(seed, idx as u64 + 1), horizon));
        }
    }

    /// Faults end: every provider quiet and back up.
    fn calm(&self) {
        for p in self.fleet.providers() {
            p.set_fault_plan(FaultPlan::quiet());
            p.restore();
        }
    }
}

/// Records in a JSONL trace the drill wrote — more than its lines, since
/// an op line and a span end carrying its replay record hold several.
fn records(trace: &[u8]) -> u64 {
    let text = std::str::from_utf8(trace).expect("the trace writer writes UTF-8");
    let mut n = 0;
    for_each_record(text, |_| n += 1).expect("a trace the drill wrote parses");
    n
}

/// The IA trace of `seed` as a drill's op stream: the archive's
/// create/read interleave, month by month and looped, with create sizes
/// passed through `size`, an in-place update injected where a coin
/// flip is a multiple of `update_every` (inside the first 512 bytes, so
/// valid against every file), and a tail deleting the newest 2 % of the
/// files.
fn ia_ops(seed: u64, want: usize, size: fn(u64) -> u64, update_every: u64) -> Vec<FsOp> {
    let trace = IaTrace::synthesize(seed);
    let mut ops: Vec<FsOp> = Vec::with_capacity(want + 64);
    let mut created: Vec<String> = Vec::new();
    let mut round = 0u64;
    while ops.len() < want {
        let month = (round % 12) as usize;
        for op in trace.sample_day_ops(month, 2e-5, mix(seed, round)) {
            match op {
                FsOp::Create { path, size: s } => {
                    // Rounds revisit months; prefix so paths stay unique.
                    let path = format!("/r{round:02}{path}");
                    created.push(path.clone());
                    ops.push(FsOp::Create { path, size: size(s) });
                }
                FsOp::Read { path } => ops.push(FsOp::Read { path: format!("/r{round:02}{path}") }),
                other => ops.push(other),
            }
            let z = mix(seed ^ 0x55AA, ops.len() as u64);
            if z.is_multiple_of(update_every) && !created.is_empty() {
                let path = created[(z >> 32) as usize % created.len()].clone();
                ops.push(FsOp::Update { path, offset: (z >> 8) % 128, len: 64 + (z >> 16) % 320 });
            }
            if ops.len() >= want {
                break;
            }
        }
        round += 1;
    }
    let del = (created.len() / 50).max(1);
    ops.extend(created.iter().rev().take(del).map(|path| FsOp::Delete { path: path.clone() }));
    ops
}

/// `trace` through [`build_report`] at jobs 1 and 4, with the claims
/// that both reports are byte-identical and that measured availability
/// matches the model.
fn analyse(trace: &[u8], claims: &mut Vec<Claim>) -> Analysis {
    let text = std::str::from_utf8(trace).expect("a trace is UTF-8");
    let opts = ReportOptions::default();
    let report = build_report(text, 1, &opts).expect("the drill's own trace parses");
    let again = build_report(text, 4, &opts).expect("the drill's own trace parses");
    let same = report.text == again.text;
    claims.push(Claim::new(
        "trace_report_same_at_jobs_4",
        same,
        if same { "identical" } else { "differs" },
    ));
    let c = report.check;
    let measured =
        format!("measured {:.6}, modelled {:.6}, delta {:.6}", c.measured, c.modeled, c.delta);
    claims.push(Claim::new("availability_matches_model", c.pass, measured));
    report
}
