//! The drill harness and parser, driven by fake scenarios: a trace that
//! depends on the worker or client count fails `--check` with a claim
//! that names the scenario and the axis, a failing claim fails the run,
//! and the command line admits three flags and the table's names only.

use std::sync::atomic::{AtomicU64, Ordering};

use hyrd_bench::drill::{self, check, parse, Claim, Options, Outcome, Point, Scenario};

fn stamped(report: &str, trace: String, claims: Vec<Claim>) -> Outcome {
    Outcome { report: report.into(), trace: trace.into_bytes(), claims, ..Outcome::default() }
}

fn steady(_: &Options, _: Point) -> Outcome {
    stamped("report", "trace\n".into(), vec![Claim::zero("violations", 0)])
}

fn by_jobs(_: &Options, p: Point) -> Outcome {
    stamped("report", format!("worker {}\n", p.jobs), Vec::new())
}

fn by_clients(_: &Options, p: Point) -> Outcome {
    stamped("report", format!("clients {}\n", p.clients), Vec::new())
}

fn report_by_clients(_: &Options, p: Point) -> Outcome {
    stamped(&format!("sessions {}", p.clients), "trace\n".into(), Vec::new())
}

fn crowded_workers(_: &Options, p: Point) -> Outcome {
    let crowded = p.clients >= 16 && p.jobs > 1;
    stamped("report", format!("crowded {crowded}\n"), Vec::new())
}

fn drifting(_: &Options, _: Point) -> Outcome {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    stamped("report", format!("run {}\n", RUNS.fetch_add(1, Ordering::Relaxed)), Vec::new())
}

fn failing(_: &Options, _: Point) -> Outcome {
    stamped("report", "trace\n".into(), vec![Claim::zero("violations", 2)])
}

fn seeded(opts: &Options, _: Point) -> Outcome {
    let claims = vec![Claim::new("seed", opts.seed == Some(9) && opts.smoke, "9")];
    stamped("report", "trace\n".into(), claims)
}

const FAKES: &[Scenario] = &[
    Scenario { name: "steady", run: steady, jobs: &[1, 2], clients: &[1, 4, 16] },
    Scenario { name: "by_jobs", run: by_jobs, jobs: &[1, 2], clients: &[1] },
    Scenario { name: "by_clients", run: by_clients, jobs: &[1, 2], clients: &[1, 4, 16] },
    Scenario { name: "report_by_clients", run: report_by_clients, jobs: &[1], clients: &[4, 1] },
    Scenario { name: "crowded", run: crowded_workers, jobs: &[1, 2], clients: &[4, 1, 16] },
    Scenario { name: "drifting", run: drifting, jobs: &[1], clients: &[1] },
    Scenario { name: "failing", run: failing, jobs: &[1], clients: &[1] },
    Scenario { name: "seeded", run: seeded, jobs: &[1], clients: &[1] },
];

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// The claims of `--check <scenario>` that fail, as (id, measured).
fn failures(scenario: &str) -> Vec<(String, String)> {
    let (opts, chosen) = parse(args(&format!("--check {scenario}")), FAKES).expect("valid");
    assert_eq!(chosen.len(), 1);
    let out = check(chosen[0], &opts);
    out.claims.into_iter().filter(|c| !c.holds).map(|c| (c.id, c.measured)).collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(a, b)| (a.to_string(), b.to_string())).collect()
}

#[test]
fn an_invariant_scenario_passes_check_at_every_point() {
    let (opts, chosen) = parse(args("--check steady"), FAKES).unwrap();
    let ids: Vec<String> = check(chosen[0], &opts).claims.into_iter().map(|c| c.id).collect();
    let want = [
        "steady.violations",
        "steady.same_at_jobs_2",
        "steady.same_at_clients_4_jobs_2",
        "steady.same_at_clients_16_jobs_2",
    ];
    assert_eq!(ids, want);
    assert_eq!(drill::main(args("--smoke --check steady"), FAKES), 0);
}

#[test]
fn a_trace_that_depends_on_the_worker_count_fails_check() {
    assert_eq!(failures("by_jobs"), owned(&[("by_jobs.same_at_jobs_2", "trace differs")]));
    assert_eq!(drill::main(args("--check by_jobs"), FAKES), 1);
    // Without --check nothing is re-run.
    assert_eq!(drill::main(args("by_jobs"), FAKES), 0);
}

#[test]
fn a_trace_that_depends_on_the_client_count_fails_check() {
    let want = [
        ("by_clients.same_at_clients_4_jobs_2", "trace differs"),
        ("by_clients.same_at_clients_16_jobs_2", "trace differs"),
    ];
    assert_eq!(failures("by_clients"), owned(&want));
    let want = [("report_by_clients.same_at_clients_1", "report differs")];
    assert_eq!(failures("report_by_clients"), owned(&want));
    assert_eq!(drill::main(args("--check by_clients"), FAKES), 1);
}

#[test]
fn many_clients_are_checked_on_many_workers() {
    // A trace that moves only with 16 sessions on 2 workers: the client
    // points run at the grid's last worker count, so check sees it.
    let want = [("crowded.same_at_clients_16_jobs_2", "trace differs")];
    assert_eq!(failures("crowded"), owned(&want));
}

#[test]
fn a_one_point_grid_is_checked_by_a_repeat() {
    assert_eq!(failures("drifting"), owned(&[("drifting.same_at_repeat", "trace differs")]));
}

#[test]
fn a_failing_claim_fails_the_run() {
    assert_eq!(failures("failing"), owned(&[("failing.violations", "2")]));
    assert_eq!(drill::main(args("failing"), FAKES), 1);
    assert_eq!(drill::main(args("steady failing"), FAKES), 1);
    assert_eq!(drill::main(args("steady"), FAKES), 0);
}

#[test]
fn the_parser_reads_three_flags_and_scenario_names() {
    let (opts, chosen) = parse(args("--seed 9 seeded --smoke"), FAKES).unwrap();
    assert_eq!(opts, Options { smoke: true, seed: Some(9), check: false });
    assert_eq!(chosen.iter().map(|s| s.name).collect::<Vec<_>>(), ["seeded"]);
    assert_eq!(drill::main(args("--smoke --seed 9 seeded"), FAKES), 0);
    let (_, all) = parse(Vec::new(), FAKES).unwrap();
    assert_eq!(all.len(), FAKES.len());
}

#[test]
fn the_parser_rejects_what_it_cannot_honour() {
    let cases = [
        ("--weeks 1 --chek", "unknown flag --weeks"),
        ("--check --chek", "unknown flag --chek"),
        ("--crash --trace x", "unknown flag --crash"),
        ("--smoke --ops 500", "unknown flag --ops"),
        ("--ops 500 --smoke", "unknown flag --ops"),
        ("--clients 4 steady", "unknown flag --clients"),
        ("--jobs 2 steady", "unknown flag --jobs"),
        ("chaos_drill", "unknown scenario chaos_drill"),
        ("--seed", "--seed needs a value"),
        ("--seed x", "--seed x: not a number"),
        ("--seed 1 --seed 2", "--seed given twice"),
        ("--smoke --smoke", "--smoke given twice"),
        ("steady steady", "steady given twice"),
    ];
    for (line, why) in cases {
        assert_eq!(parse(args(line), FAKES).err().as_deref(), Some(why), "{line}");
        assert_eq!(drill::main(args(line), FAKES), 2, "{line}");
    }
}

#[test]
fn the_table_names_its_worker_counts() {
    // Worker count 0 means "one per core": on a one-core host a grid of
    // 0 and 1 would compare one worker with itself.
    for s in drill::TABLE {
        assert!(!s.jobs.contains(&0) && !s.clients.contains(&0), "{}", s.name);
        assert!(s.jobs == [1, 2] || s.jobs == [1], "{}: {:?}", s.name, s.jobs);
    }
    let soak = drill::TABLE.iter().find(|s| s.name == "multi_client").unwrap();
    assert_eq!(soak.clients, [4, 1, 16, 64]);
}
