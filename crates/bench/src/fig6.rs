//! Shared machinery for the Figure 6 family of experiments (scheme
//! latency under PostMark, normal state and Azure-outage state), reused
//! by the threshold sweep and the ablation binaries.

use hyrd::driver::{
    replay_sweep, replay_with_state, ReplayOptions, ReplayState, ReplayStats, SweepCell,
};
use hyrd::prelude::*;
use hyrd_baselines::{DepSky, DuraCloud, NcCloudLite, Racs, SingleCloud};
use hyrd_workloads::{FsOp, PostMark, PostMarkConfig};

/// Operating state of the Figure 6 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// All providers up.
    Normal,
    /// Windows Azure forced off-line before the transaction phase — the
    /// paper's outage emulation (§IV-C).
    AzureOutage,
}

/// The PostMark shape the paper describes: pool of files 1 KB–100 MB.
pub fn paper_postmark(seed: u64) -> PostMarkConfig {
    PostMarkConfig { initial_files: 60, transactions: 240, seed, ..PostMarkConfig::default() }
}

/// Splits a PostMark stream into (pool-initialization, transactions).
pub fn split_ops(config: &PostMarkConfig) -> (Vec<FsOp>, Vec<FsOp>) {
    let (ops, _) = PostMark::new(config.clone()).generate();
    let init = config.initial_files;
    let head = ops[..init].to_vec();
    let tail = ops[init..].to_vec();
    (head, tail)
}

/// Runs one scheme through the Figure 6 methodology on a fresh fleet:
/// build, load the pool in the normal state, optionally fail Azure, then
/// measure the transaction phase.
pub fn run_scheme<F>(make: F, mode: Mode, config: &PostMarkConfig) -> ReplayStats
where
    F: FnOnce(&Fleet) -> Box<dyn Scheme>,
{
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    let mut scheme = make(&fleet);
    let (init, txns) = split_ops(config);
    let opts = ReplayOptions::default();
    let mut state = ReplayState::default();
    let _ = replay_with_state(scheme.as_mut(), &init, &clock, &opts, &mut state);
    if mode == Mode::AzureOutage {
        fleet.by_name("Windows Azure").expect("standard fleet").force_down();
    }
    replay_with_state(scheme.as_mut(), &txns, &clock, &opts, &mut state)
}

/// One row of the Figure 6 grid: scheme name, normal-state stats, and
/// outage-state stats (absent for the single-cloud baseline, whose
/// outage *is* the outage).
pub type LineupRow = (&'static str, ReplayStats, Option<ReplayStats>);

/// Runs a whole lineup through the Figure 6 methodology as independent
/// (scheme, mode) cells on `jobs` worker threads (`0` = one per core).
///
/// Each cell owns a fresh fleet and virtual clock, so cells share no
/// state and the grid is embarrassingly parallel; [`replay_sweep`]
/// collects results in submission order, which makes the output —
/// including the JSON record — byte-identical for every job count.
pub fn run_lineup_sweep(
    schemes: Vec<(&'static str, SchemeFactory)>,
    config: &PostMarkConfig,
    jobs: usize,
) -> Vec<LineupRow> {
    let mut cells: Vec<SweepCell<'_, ReplayStats>> = Vec::new();
    let mut shape = Vec::new();
    for (name, make) in schemes {
        let cfg = config.clone();
        cells.push(Box::new(move || run_scheme(make, Mode::Normal, &cfg)));
        let has_outage = name != "Amazon S3";
        if has_outage {
            let cfg = config.clone();
            cells.push(Box::new(move || run_scheme(make, Mode::AzureOutage, &cfg)));
        }
        shape.push((name, has_outage));
    }
    let mut results = replay_sweep(cells, jobs).into_iter();
    shape
        .into_iter()
        .map(|(name, has_outage)| {
            let normal = results.next().expect("one result per cell");
            let outage = has_outage.then(|| results.next().expect("one result per cell"));
            (name, normal, outage)
        })
        .collect()
}

/// Builds one scheme over a fresh fleet; a lineup pairs each with the
/// name its row is printed under.
pub type SchemeFactory = fn(&Fleet) -> Box<dyn Scheme>;

/// The scheme lineup of Figure 6 (name, factory).
pub fn lineup() -> Vec<(&'static str, SchemeFactory)> {
    vec![
        ("Amazon S3", |f| Box::new(SingleCloud::amazon_s3(f).expect("fleet has S3"))),
        ("DuraCloud", |f| Box::new(DuraCloud::standard(f).expect("standard fleet"))),
        ("RACS", |f| Box::new(Racs::new(f).expect("4-provider fleet"))),
        ("HyRD", |f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid default config"))),
    ]
}

/// Extended lineup including the schemes beyond the paper's Figure 6,
/// plus HyRD with the Figure 2 hot-file overlap enabled (frequently read
/// large files gain a whole-object copy on the performance tier).
pub fn extended_lineup() -> Vec<(&'static str, SchemeFactory)> {
    let mut v = lineup();
    v.push(("HyRD+hot", |f| {
        let cfg = HyrdConfig { hot_read_threshold: Some(2), ..HyrdConfig::default() };
        Box::new(Hyrd::new(f, cfg).expect("valid config"))
    }));
    v.push(("DepSky", |f| Box::new(DepSky::new(f).expect("4-provider fleet"))));
    v.push(("NCCloud-lite", |f| Box::new(NcCloudLite::new(f).expect("4-provider fleet"))));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ops_partitions_the_stream() {
        let cfg = paper_postmark(1);
        let (init, txns) = split_ops(&cfg);
        assert_eq!(init.len(), cfg.initial_files);
        assert!(init.iter().all(|o| matches!(o, FsOp::Create { .. })));
        assert!(!txns.is_empty());
    }

    #[test]
    fn s3_baseline_runs_clean_in_normal_mode() {
        let mut cfg = paper_postmark(2);
        cfg.initial_files = 10;
        cfg.transactions = 30;
        let stats =
            run_scheme(|f| Box::new(SingleCloud::amazon_s3(f).unwrap()), Mode::Normal, &cfg);
        assert_eq!(stats.errors, 0);
        assert!(stats.overall.count() > 30);
        assert_eq!(stats.verify_failures, 0);
    }

    #[test]
    fn lineup_sweep_matches_sequential_runs_for_any_job_count() {
        let mut cfg = paper_postmark(4);
        cfg.initial_files = 8;
        cfg.transactions = 20;
        let schemes = || lineup().into_iter().take(2).collect::<Vec<_>>();
        let sequential: Vec<_> = schemes()
            .into_iter()
            .map(|(name, make)| {
                let normal = run_scheme(make, Mode::Normal, &cfg);
                let outage =
                    (name != "Amazon S3").then(|| run_scheme(make, Mode::AzureOutage, &cfg));
                (name, normal, outage)
            })
            .collect();
        for jobs in [1, 3] {
            let swept = run_lineup_sweep(schemes(), &cfg, jobs);
            assert_eq!(swept, sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn coc_schemes_survive_the_outage_mode() {
        let mut cfg = paper_postmark(3);
        cfg.initial_files = 10;
        cfg.transactions = 30;
        for (name, make) in lineup().into_iter().skip(1) {
            let stats = run_scheme(make, Mode::AzureOutage, &cfg);
            assert_eq!(stats.errors, 0, "{name} errored during outage");
        }
    }
}
