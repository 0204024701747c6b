//! The paper's evaluation in one run: one function per section — Tables
//! I–II, Figs. 3–6, the §IV-C threshold study, the DESIGN §4 ablations
//! and the availability analysis — each returning a [`Section`]: the
//! numbers the paper plots and the [`Claim`]s it makes about them,
//! checked against those numbers.
//!
//! The `paper` binary runs every section with one PostMark seed, prints
//! them as Markdown, writes `target/experiments/paper.json` and exits 1
//! if a claim fails; `tests/experiment_shapes.rs` asserts the claims of
//! the same functions at a smaller PostMark scale. EXPERIMENTS.md is
//! that binary's output with prose around it.

use bytes::Bytes;
use hyrd::config::CodeChoice::{Raid5, Raid6, ReedSolomon};
use hyrd::config::FragmentSelection::{CheapestEgress, Fastest};
use hyrd::driver::{replay_sweep, replay_with_state, synth_content, ReplayOptions, ReplayState};
use hyrd::driver::{ReplayStats, SweepCell};
use hyrd::evaluator::Evaluator;
use hyrd::prelude::*;
use hyrd::scheme::SchemeResult;
use hyrd::stats::OpClass;
use hyrd_baselines::{NcCloudLite, Racs, Replicated};
use hyrd_cloudsim::WellKnownProvider;
use hyrd_costsim::availability::{at_least_k_of_n, monte_carlo_k_of_n, nines};
use hyrd_costsim::model::{Layout, DEPSKY, DURACLOUD, HYRD, RACS};
use hyrd_costsim::price;
use hyrd_gcsapi::{ObjectKey, OpKind};
use hyrd_telemetry::json::{JsonWriter, ToJson};
use hyrd_workloads::rng::Rng;
use hyrd_workloads::{FileSizeDist, FsOp, IaTrace, PostMark, PostMarkConfig};

use crate::Series;
use Bound::{Above, Below, In};

/// The one PostMark seed of the `paper` run.
pub const SEED: u64 = 0xF166;
/// The Internet Archive synthesis seed (Figs. 3–4, the threshold costs).
pub const TRACE_SEED: u64 = 42;

/// Where a measured number must lie for a claim to hold.
#[derive(Debug, Clone, Copy)]
enum Bound {
    Below(f64),
    Above(f64),
    /// Inclusive.
    In(f64, f64),
}

/// A claim of a section: its name, what the paper says, its bound.
type Spec = (&'static str, &'static str, Bound);

hyrd_telemetry::json_struct! {
    /// One statement the paper makes, checked against a measured number.
    #[derive(Debug)]
    pub struct Claim {
        /// `<section>.<name>`.
        pub id: String,
        /// What the paper says.
        pub paper: &'static str,
        pub measured: f64,
        pub bound: String,
        pub holds: bool,
    }
}

/// One table of the evaluation and the claims made about it.
#[derive(Debug)]
pub struct Section {
    pub id: &'static str,
    pub title: &'static str,
    /// Column headers; the first one names the row labels.
    pub columns: Vec<String>,
    pub rows: Vec<Series>,
    pub claims: Vec<Claim>,
    specs: &'static [Spec],
    /// One measured number per spec, from the rows.
    measure: fn(&Section) -> Vec<f64>,
}

impl ToJson for Section {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("id", self.id);
            w.field("title", self.title);
            w.field("columns", &self.columns);
            w.field("rows", &self.rows);
            w.field("claims", &self.claims);
        });
    }
}

/// A section of `rows` under the `|`-separated `columns`, with the
/// claims `measure` measures on them.
fn section(
    (id, title, columns): (&'static str, &'static str, &str),
    rows: Vec<Series>,
    specs: &'static [Spec],
    measure: fn(&Section) -> Vec<f64>,
) -> Section {
    let columns = columns.split('|').map(String::from).collect();
    let mut section = Section { id, title, columns, rows, claims: Vec::new(), specs, measure };
    section.recheck();
    section
}

impl Section {
    /// Measures the claims on the rows again.
    fn recheck(&mut self) {
        let measured = (self.measure)(self);
        assert_eq!(measured.len(), self.specs.len(), "{}: one number per claim", self.id);
        let n = |v: f64| (v * 1e4).round() / 1e4;
        let claims = self.specs.iter().zip(measured).map(|(&(name, paper, bound), m)| {
            let (holds, text) = match bound {
                Below(hi) => (m < hi, format!("< {}", n(hi))),
                Above(lo) => (m > lo, format!("> {}", n(lo))),
                In(lo, hi) => ((lo..=hi).contains(&m), format!("[{}, {}]", n(lo), n(hi))),
            };
            Claim { id: format!("{}.{name}", self.id), paper, measured: m, bound: text, holds }
        });
        self.claims = claims.collect();
    }

    /// The value in `column` of the row labelled `row`; NaN if there is
    /// no such row.
    fn get(&self, row: &str, column: &str) -> f64 {
        let col = self.columns[1..].iter().position(|c| c == column);
        let col = col.unwrap_or_else(|| panic!("{}: no column {column}", self.id));
        self.rows.iter().find(|r| r.label == row).map_or(f64::NAN, |r| r.values[col])
    }

    /// `column` of every row, in row order.
    fn column(&self, column: &str) -> Vec<f64> {
        self.rows.iter().map(|r| self.get(&r.label, column)).collect()
    }

    /// The section as a Markdown table followed by its claims.
    fn markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let mut out = format!("### {}\n\n", self.title) + &line(self.columns.clone());
        out += &line(self.columns.iter().map(|_| "---".into()).collect());
        for r in &self.rows {
            let values = r.values.iter().map(|&v| num(v));
            out += &line([r.label.clone()].into_iter().chain(values).collect());
        }
        out += "\n| claim | the paper says | measured | bound | holds |\n|---|---|---|---|---|\n";
        for c in &self.claims {
            let holds = if c.holds { "✓" } else { "✗ FAILS" };
            let id = format!("`{}`", c.id);
            out += &line(vec![id, c.paper.into(), num(c.measured), c.bound.clone(), holds.into()]);
        }
        out
    }
}

/// Four significant digits below 1,000, whole numbers above; `—` for a
/// value the section does not have.
fn num(v: f64) -> String {
    if v.is_nan() {
        "—".into()
    } else if v.fract() == 0.0 || v.abs() >= 1000.0 || !v.is_finite() {
        format!("{v:.0}")
    } else {
        format!("{v:.*}", (3 - v.abs().log10().floor() as i32).max(0) as usize)
    }
}

fn row(label: impl Into<String>, values: Vec<f64>) -> Series {
    Series { label: label.into(), values }
}

/// `4KB`, `1MB`.
fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

fn mean(stats: &ReplayStats) -> f64 {
    stats.mean_latency().as_secs_f64()
}

/// The smallest / largest non-NaN value.
fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::min)
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::max)
}

hyrd_telemetry::json_struct! {
    /// The whole evaluation, Table I first.
    #[derive(Debug)]
    pub struct Paper {
        /// The PostMark run every replay uses.
        pub seed: u64,
        pub files: usize,
        pub transactions: usize,
        pub sections: Vec<Section>,
    }
}

impl Paper {
    /// Every claim of every section.
    fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.sections.iter().flat_map(|s| &s.claims)
    }

    /// `paper`'s exit status: every claim holds.
    pub fn holds(&self) -> bool {
        self.claims().all(|c| c.holds)
    }

    /// Every section, then the tally of claims.
    pub fn markdown(&self) -> String {
        let (seed, files, txns) = (self.seed, self.files, self.transactions);
        let mut out = format!("PostMark seed {seed:#x}, {files} files, {txns} transactions\n");
        for s in &self.sections {
            out += &format!("\n{}", s.markdown());
        }
        let failing: Vec<_> = self.claims().filter(|c| !c.holds).map(|c| c.id.as_str()).collect();
        let total = self.claims().count();
        out + &format!("\n{} of {total} claims hold; failing: {failing:?}\n", total - failing.len())
    }
}

/// Runs every section: PostMark replays from `config` on `jobs` worker
/// threads (`0` = one per core). The result is identical for every job
/// count.
pub fn run(config: &PostMarkConfig, jobs: usize) -> Paper {
    let trace = IaTrace::synthesize(TRACE_SEED);
    let mut sections = vec![
        prices(),
        ia_trace(&trace),
        cost(&trace),
        latency_vs_size(),
        lineup(extended_schemes(), config, jobs),
        threshold(config, jobs),
        update_recovery(),
        replication_level(config, jobs),
        fragment_selection(),
        code_choice(config, jobs),
        availability(),
    ];
    sections.insert(0, table1(&sections));
    let (seed, files, transactions) = (config.seed, config.initial_files, config.transactions);
    Paper { seed, files, transactions, sections }
}

// ---- the PostMark methodology (§IV-C) -------------------------------------

/// The PostMark shape the paper describes: pool of files 1 KB–100 MB.
pub fn postmark(seed: u64) -> PostMarkConfig {
    PostMarkConfig { initial_files: 60, transactions: 240, seed, ..PostMarkConfig::default() }
}

/// Splits a PostMark stream into (pool-initialization, transactions).
fn split_ops(config: &PostMarkConfig) -> (Vec<FsOp>, Vec<FsOp>) {
    let (mut ops, _) = PostMark::new(config.clone()).generate();
    let txns = ops.split_off(config.initial_files);
    (ops, txns)
}

/// What one replay measured: the transaction phase's stats, and the
/// bytes the fleet stores once the pool is loaded (PostMark's
/// transactions end by deleting every file).
type Run = (ReplayStats, u64);

fn ghost_fleet() -> Fleet {
    let fleet = Fleet::standard_four(SimClock::new());
    for p in fleet.providers() {
        p.set_ghost_mode(true);
    }
    fleet
}

/// Runs one scheme through the §IV-C methodology on a fresh fleet: load
/// the pool with every provider up; if `azure_down`, force Windows Azure
/// off-line (the paper's outage emulation); measure the transactions.
fn run_scheme<F>(make: F, azure_down: bool, config: &PostMarkConfig) -> Run
where
    F: FnOnce(&Fleet) -> Box<dyn Scheme>,
{
    let fleet = ghost_fleet();
    let mut scheme = make(&fleet);
    let (init, txns) = split_ops(config);
    let (opts, mut state) = (ReplayOptions::default(), ReplayState::default());
    let _ = replay_with_state(scheme.as_mut(), &init, fleet.clock(), &opts, &mut state);
    let stored = fleet.total_stored_bytes();
    if azure_down {
        fleet.by_name("Windows Azure").expect("standard fleet").force_down();
    }
    (replay_with_state(scheme.as_mut(), &txns, fleet.clock(), &opts, &mut state), stored)
}

/// One sweep cell per HyRD configuration: a client from `make` replays
/// PostMark on a fresh fleet, then `measure` turns the configuration,
/// those stats and a second client, on a second fresh (ghost) fleet,
/// into a row.
fn config_sweep<T: Copy + Send + Sync>(
    configs: &[T],
    config: &PostMarkConfig,
    jobs: usize,
    make: fn(&Fleet, T) -> SchemeResult<Hyrd>,
    measure: fn(T, &ReplayStats, &Fleet, Hyrd) -> Series,
) -> Vec<Series> {
    let make = move |f: &Fleet, c| make(f, c).expect("valid config");
    let cell = |&c: &T| -> SweepCell<'_, Series> {
        Box::new(move || {
            let (stats, _) = run_scheme(|f| Box::new(make(f, c)), false, config);
            let fleet = ghost_fleet();
            measure(c, &stats, &fleet, make(&fleet, c))
        })
    };
    replay_sweep(configs.iter().map(cell).collect(), jobs)
}

/// One scheme's normal run and its Azure-outage run (absent for
/// single-cloud S3, whose outage *is* the outage).
type LineupRow = (&'static str, Run, Option<Run>);

/// Builds one scheme over a fresh fleet; a lineup pairs each with the
/// name its row is printed under.
pub type SchemeFactory = fn(&Fleet) -> Box<dyn Scheme>;

/// Schemes and the names their rows are printed under.
pub type Lineup = Vec<(&'static str, SchemeFactory)>;

/// Runs a lineup as independent (scheme, mode) cells on `jobs` worker
/// threads. Each cell owns a fresh fleet and clock, and [`replay_sweep`]
/// collects results in submission order, so the output is identical for
/// every job count.
fn run_lineup_sweep(schemes: Lineup, config: &PostMarkConfig, jobs: usize) -> Vec<LineupRow> {
    let has_outage = |name| name != "Amazon S3";
    let mut cells: Vec<SweepCell<'_, Run>> = Vec::new();
    for &(name, make) in &schemes {
        cells.push(Box::new(move || run_scheme(make, false, config)));
        if has_outage(name) {
            cells.push(Box::new(move || run_scheme(make, true, config)));
        }
    }
    let mut results = replay_sweep(cells, jobs).into_iter();
    let mut next = || results.next().expect("one result per cell");
    schemes.iter().map(|&(name, _)| (name, next(), has_outage(name).then(&mut next))).collect()
}

/// The schemes of Figure 6.
pub fn paper_schemes() -> Lineup {
    vec![
        ("Amazon S3", |f| Box::new(Replicated::amazon_s3(f).expect("fleet has S3"))),
        ("DuraCloud", |f| Box::new(Replicated::duracloud_standard(f).expect("standard fleet"))),
        ("RACS", |f| Box::new(Racs::new(f).expect("4-provider fleet"))),
        ("HyRD", |f| Box::new(Hyrd::new(f, HyrdConfig::default()).expect("valid default config"))),
    ]
}

/// Figure 6's schemes, the two Table I adds, and HyRD with the Figure 2
/// hot-file overlap (frequently read large files gain a whole-object
/// copy on the performance tier).
pub fn extended_schemes() -> Lineup {
    let mut v = paper_schemes();
    v.push(("HyRD+hot", |f| {
        let cfg = HyrdConfig { hot_read_threshold: Some(2), ..HyrdConfig::default() };
        Box::new(Hyrd::new(f, cfg).expect("valid config"))
    }));
    v.push(("DepSky", |f| Box::new(Replicated::depsky(f).expect("4-provider fleet"))));
    v.push(("NCCloud-lite", |f| Box::new(NcCloudLite::new(f).expect("4-provider fleet"))));
    v
}

// ---- Table I ---------------------------------------------------------------

const TABLE1: &[Spec] = &[
    ("hyrd_fastest", "HyRD's performance is high, the other CoC schemes' low", Below(1.0)),
    ("hyrd_cost_low", "HyRD's cost is low: below DuraCloud's and RACS's", Below(1.0)),
    ("replication_cost_high", "replication (DuraCloud, DepSky) costs more than RACS", Above(1.0)),
    ("hybrid_overhead", "hybrid storage: between RAID5 (4/3) and replicas (2)", In(4. / 3., 1.6)),
    ("hyrd_recovery_easy", "HyRD's recovery is easy, RACS's hard", Below(1.0)),
];

/// Table I, measured: stored bytes and latency from the lineup, the year
/// from the cost section, read amplification from the recovery rows.
pub fn table1(sections: &[Section]) -> Section {
    let find = |id| sections.iter().find(|s| s.id == id).expect("Table I reads fig6, fig4, update");
    let (lineup, cost, update) = (find("fig6"), find("fig4"), find("update"));
    let rows = lineup.rows.iter().filter(|r| r.label != "HyRD+hot").map(|r| {
        let name = r.label.as_str();
        let ratios = ["stored ×S3", "normal ×S3", "outage ×S3"].map(|c| lineup.get(name, c));
        let amp = |what| update.get(&format!("{name}: {what}"), "read amp");
        // A scheme has at most one of the two rows; `min` skips the NaN.
        let recovery = amp("repair a lost provider").min(amp("consistency update"));
        row(name, ratios.into_iter().chain([cost.get(name, "year"), recovery]).collect())
    });
    let head = "scheme|stored ×S3|latency ×S3|outage ×S3|year ($)|recovery read amp";
    section(("table1", "Table I — the schemes, measured", head), rows.collect(), TABLE1, |s| {
        let v = |name, column| s.get(name, column);
        let year = |name| v(name, "year ($)");
        let others = s.rows.iter().filter(|r| !["HyRD", "Amazon S3"].contains(&r.label.as_str()));
        vec![
            v("HyRD", "latency ×S3") / min(others.map(|r| v(&r.label, "latency ×S3"))),
            year("HyRD") / year("DuraCloud").min(year("RACS")),
            year("DuraCloud").min(year("DepSky")) / year("RACS"),
            v("HyRD", "stored ×S3"),
            v("HyRD", "recovery read amp") / v("RACS", "recovery read amp"),
        ]
    })
}

// ---- Table II --------------------------------------------------------------

const TABLE2: &[Spec] =
    &[("tiers_derived", "probes reproduce the category row (mismatches)", In(0., 0.))];

/// Table II: the price plans, and the tiers the Cost & Performance
/// Evaluator derives from probe latencies and prices (1 = in the tier).
pub fn prices() -> Section {
    let fleet = Fleet::standard_four(SimClock::new());
    let (eval, _) = Evaluator::assess(&fleet, 64 * 1024);
    let rows = fleet.providers().iter().zip(eval.assessments()).map(|(p, a)| {
        let (c, price) = (p.category(), p.prices());
        let tiers = [c.is_performance_oriented(), a.performance_oriented, c.is_cost_oriented()];
        let tiers = tiers.into_iter().chain([a.cost_oriented]).map(|t| f64::from(u8::from(t)));
        let prices = [price.storage_gb_month, price.data_in_gb, price.data_out_gb];
        let probe = [price.put_class_10k, price.get_class_10k, a.probe_get.as_secs_f64()];
        row(p.name(), prices.into_iter().chain(probe).chain(tiers).collect())
    });
    let head = "provider|storage /GB·month|in /GB|out /GB|put /10K|get /10K|probe get (s)\
        |perf tier: Table II|perf tier: derived|cost tier: Table II|cost tier: derived";
    section(("table2", "Table II — prices ($) and tiers", head), rows.collect(), TABLE2, |s| {
        let differ =
            |a, b| s.column(a).into_iter().zip(s.column(b)).filter(|(x, y)| x != y).count();
        let perf = differ("perf tier: Table II", "perf tier: derived");
        vec![(perf + differ("cost tier: Table II", "cost tier: derived")) as f64]
    })
}

// ---- Figure 3 --------------------------------------------------------------

const FIG3: &[Spec] = &[
    ("volume_ratio", "read : write volume is 2.1 : 1", In(2.09, 2.11)),
    ("request_ratio", "read : write requests are 3.5 : 1", In(3.49, 3.51)),
];

/// Figure 3: the Internet Archive trace, monthly volume and requests.
pub fn ia_trace(trace: &IaTrace) -> Section {
    let rows = trace.months().iter().map(|m| {
        let terabytes = [m.bytes_written, m.bytes_read].map(|b| b as f64 / 1e12);
        let millions = [m.write_requests, m.read_requests].map(|r| r as f64 / 1e6);
        row(&m.label, terabytes.into_iter().chain(millions).collect())
    });
    let head = "month|written (TB)|read (TB)|writes (M)|reads (M)";
    section(("fig3", "Figure 3 — the IA trace", head), rows.collect(), FIG3, |s| {
        let ratio = |a, b| s.column(a).iter().sum::<f64>() / s.column(b).iter().sum::<f64>();
        vec![ratio("read (TB)", "written (TB)"), ratio("reads (M)", "writes (M)")]
    })
}

// ---- Figure 4 --------------------------------------------------------------

const FIG4: &[Spec] = &[
    ("aliyun_cheapest", "Aliyun is the cheapest single cloud", Below(1.0)),
    ("hyrd_below_racs", "HyRD costs less than RACS", Below(1.0)),
    ("duracloud_most_costly", "DuraCloud is the most costly scheme", Below(1.0)),
    ("redundancy_costs_more", "redundancy costs more than the cheapest single cloud", Above(1.0)),
    ("hyrd_vs_duracloud", "HyRD's cost is 33.4 % lower than DuraCloud's", In(0.20, 0.60)),
    ("hyrd_vs_racs", "HyRD's cost is 20.4 % lower than RACS's", In(0.08, 0.35)),
    ("monotone_bills", "Azure's and Rackspace's bills grow every month (drops)", In(0., 0.)),
];

/// Figure 4's lineup: each single cloud, then the Cloud-of-Clouds
/// schemes.
const FIG4_LAYOUTS: [(&str, Layout); 8] = [
    ("Amazon S3", Layout::single(&WellKnownProvider::AmazonS3)),
    ("Windows Azure", Layout::single(&WellKnownProvider::WindowsAzure)),
    ("Aliyun", Layout::single(&WellKnownProvider::Aliyun)),
    ("Rackspace", Layout::single(&WellKnownProvider::Rackspace)),
    ("DuraCloud", DURACLOUD),
    ("RACS", RACS),
    ("HyRD", HYRD),
    ("DepSky", DEPSKY),
];

/// Figure 4: the monthly bill of hosting the trace on each single cloud
/// and each Cloud-of-Clouds scheme (Table II prices), and the year.
pub fn cost(trace: &IaTrace) -> Section {
    let rows = FIG4_LAYOUTS.iter().map(|(name, layout)| {
        let bill = price(layout, trace);
        row(*name, bill.monthly().iter().copied().chain([bill.total()]).collect())
    });
    let months: Vec<&str> = trace.months().iter().map(|m| m.label.as_str()).collect();
    let head = format!("scheme|{}|year", months.join("|"));
    section(("fig4", "Figure 4 — monthly cost ($)", &head), rows.collect(), FIG4, |s| {
        let year = |name| s.get(name, "year");
        let [dura, racs, hyrd, aliyun] = ["DuraCloud", "RACS", "HyRD", "Aliyun"].map(year);
        let drops = |name| {
            let bill = &s.rows.iter().find(|r| r.label == name).expect("costed").values;
            bill[..bill.len() - 1].windows(2).filter(|w| w[1] < w[0]).count() as f64
        };
        vec![
            aliyun / min(["Amazon S3", "Windows Azure", "Rackspace"].map(year)),
            hyrd / racs,
            racs / dura,
            hyrd / aliyun,
            1.0 - hyrd / dura,
            1.0 - hyrd / racs,
            drops("Windows Azure") + drops("Rackspace"),
        ]
    })
}

// ---- Figure 5 --------------------------------------------------------------

const SIZES: [u64; 6] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

const FIG5: &[Spec] = &[
    ("aliyun_fastest", "Aliyun is the fastest at every size (worst ratio)", Below(1.0)),
    ("azure_below_rackspace", "providers differ widely: Azure beats Rackspace", Below(1.0)),
    ("azure_below_s3", "providers differ widely: Azure beats S3", Below(1.0)),
    ("knee", "1 MB → 4 MB is a disproportionate jump (the threshold)", Above(4.0)),
];

/// Figure 5: read and write latency of each provider against request
/// size, mean of three trials.
pub fn latency_vs_size() -> Section {
    let fleet = ghost_fleet();
    let mut rows = Vec::new();
    for kind in ["read", "write"] {
        for p in fleet.providers() {
            let trial = |size: u64, t| {
                let key = ObjectKey::new(Fleet::CONTAINER, format!("f5-{kind}-{size}-{t}"));
                let put = p.put(&key, Bytes::from(vec![0u8; size as usize])).expect("provider up");
                let read = || p.get(&key).expect("just written").report;
                if kind == "write" { put.report } else { read() }.latency.as_secs_f64()
            };
            let means = SIZES.map(|size| (0..3).map(|t| trial(size, t)).sum::<f64>() / 3.0);
            rows.push(row(format!("{} {kind}", p.name()), means.into()));
        }
    }
    let head = format!("provider|{}", SIZES.map(size_label).join("|"));
    section(("fig5", "Figure 5 — latency (s) against size", &head), rows, FIG5, |s| {
        let read = |provider, size| s.get(&format!("{provider} read"), &size_label(size));
        let worst = |a, b| max(SIZES.map(|size| read(a, size) / read(b, size)));
        let providers = ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"];
        vec![
            worst("Aliyun", "Windows Azure"),
            worst("Windows Azure", "Rackspace"),
            worst("Windows Azure", "Amazon S3"),
            min(providers.map(|p| read(p, 4 << 20) / read(p, 1 << 20))),
        ]
    })
}

// ---- Figure 6 --------------------------------------------------------------

const FIG6: &[Spec] = &[
    ("errors", "every scheme serves every request, outage or not", In(0., 0.)),
    ("normal.hyrd_below_racs", "HyRD is faster than RACS", Below(1.0)),
    ("normal.racs_below_s3", "RACS is faster than single-cloud S3", Below(1.0)),
    ("normal.duracloud_vs_s3", "DuraCloud's synchronised writes: no faster than S3", Above(0.99)),
    ("normal.hyrd_vs_duracloud", "HyRD's latency is 58.7 % lower than DuraCloud's", Above(0.40)),
    ("normal.hyrd_vs_racs", "HyRD's latency is 34.8 % lower than RACS's", Above(0.20)),
    ("outage.duracloud_faster", "DuraCloud runs faster in the outage than normally", Below(1.0)),
    ("outage.hyrd_vs_duracloud", "in the outage HyRD is 27.3 % below DuraCloud", Above(0.0)),
    ("outage.hyrd_vs_racs", "in the outage HyRD is 46.3 % below RACS", Above(0.0)),
];

/// Figure 6: mean access latency of every scheme under PostMark, normal
/// and with Windows Azure off-line, normalised to single-cloud S3; and
/// the bytes each stores once the pool is loaded.
pub fn lineup(schemes: Lineup, config: &PostMarkConfig, jobs: usize) -> Section {
    let runs = run_lineup_sweep(schemes, config, jobs);
    let s3 = runs.iter().find(|r| r.0 == "Amazon S3").expect("the S3 baseline");
    let (s3_mean, s3_stored) = (mean(&s3.1 .0), s3.1 .1 as f64);
    let rows = runs.iter().map(|(name, (normal, stored), outage)| {
        let (n, o) = (mean(normal), outage.as_ref().map_or(f64::NAN, |o| mean(&o.0)));
        let errors = normal.errors + outage.as_ref().map_or(0, |o| o.0.errors);
        let stored = *stored as f64 / s3_stored;
        row(*name, vec![n, o, n / s3_mean, o / s3_mean, stored, errors as f64])
    });
    let head = "scheme|normal (s)|outage (s)|normal ×S3|outage ×S3|stored ×S3|errors";
    section(("fig6", "Figure 6 — PostMark latency", head), rows.collect(), FIG6, |s| {
        let (n, o) = (|name| s.get(name, "normal (s)"), |name| s.get(name, "outage (s)"));
        let (s3, dura, racs, hyrd) = (n("Amazon S3"), n("DuraCloud"), n("RACS"), n("HyRD"));
        vec![
            s.column("errors").iter().sum(),
            hyrd / racs,
            racs / s3,
            dura / s3,
            1.0 - hyrd / dura,
            1.0 - hyrd / racs,
            o("DuraCloud") / dura,
            1.0 - o("HyRD") / o("DuraCloud"),
            1.0 - o("HyRD") / o("RACS"),
        ]
    })
}

// ---- §IV-C threshold study -------------------------------------------------

const THRESHOLDS: [u64; 6] = [64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20];

const THRESHOLD: &[Spec] = &[
    ("cost_knee", "1 MB: the largest within 5 % of the cheapest year (MiB)", In(1.0, 1.0)),
    ("latency_flat", "latency is flat up to 4 MB (largest change from 1 MB's)", In(0.0, 0.05)),
];

/// Seeds the 120-file Agrawal mix the threshold study stores.
const MIX_SEED: u64 = 0xB707_BE45_1DF0_BB19;

/// The §IV-C sensitivity study: HyRD's PostMark latency, stored bytes of
/// 120 Agrawal-sized files and year cost against its large/small
/// threshold.
pub fn threshold(config: &PostMarkConfig, jobs: usize) -> Section {
    let make = |f: &Fleet, threshold| Hyrd::new(f, HyrdConfig { threshold, ..Default::default() });
    let rows = config_sweep(&THRESHOLDS, config, jobs, make, |t, stats, _, h| {
        let (dist, mut rng) = (FileSizeDist::agrawal(), Rng::seed_from_u64(MIX_SEED));
        for i in 0..120 {
            let size = dist.sample(&mut rng) as usize;
            h.create_file(&format!("/f{i}"), &vec![0u8; size]).expect("fleet up");
        }
        let trace = IaTrace::synthesize(TRACE_SEED);
        let year = price(&Layout::hyrd(t), &trace).total();
        let stored = h.physical_bytes() as f64 / h.logical_bytes() as f64;
        row(size_label(t), vec![mean(stats), stored, year, dist.count_frac_below(t) * 100.0])
    });
    let head = "threshold|latency (s)|stored/logical|year ($)|small files (%)";
    section(("threshold", "§IV-C — the file-size threshold", head), rows, THRESHOLD, |s| {
        let (cost, latency) = (s.column("year ($)"), s.column("latency (s)"));
        let (cheapest, at_1mb) = (min(cost.iter().copied()), s.get("1MB", "latency (s)"));
        let mib = |i: usize| THRESHOLDS[i] as f64 / f64::from(1 << 20);
        let (cheap, flat) = (|&i: &usize| cost[i] <= 1.05 * cheapest, |&i: &usize| mib(i) <= 4.0);
        let all = 0..THRESHOLDS.len();
        vec![
            max(all.clone().filter(cheap).map(mib)),
            max(all.filter(flat).map(|i| (latency[i] / at_1mb - 1.0).abs())),
        ]
    })
}

// ---- §II-B: update and recovery traffic ------------------------------------

const UPDATE: &[Spec] = &[
    ("racs_small_update_ops", "a small RACS update: 2 reads + 2 writes; HyRD: a write", Above(1.0)),
    ("racs_small_update_latency", "RACS performance is low for small updates", Above(1.0)),
    ("raid5_repair_amp", "RAID5 repair reads every survivor: 3× what it restores", In(2.99, 3.01)),
    ("nccloud_repair_below_racs", "network codes repair with less traffic than RAID5", Below(1.0)),
    ("hyrd_consistency_copies", "HyRD's consistency update copies: reads ≤ writes", In(0.0, 1.0)),
];

/// One batch of provider operations: reads, writes, bytes each way, read
/// amplification and latency.
fn batch_row(label: &str, batch: &BatchReport) -> Series {
    let count = |kind| batch.ops.iter().filter(|o| o.kind == kind).count() as f64;
    let read = batch.ops.iter().map(|o| o.bytes_out).sum::<u64>() as f64;
    let written = batch.ops.iter().map(|o| o.bytes_in).sum::<u64>() as f64;
    let (reads, writes, ops) = (count(OpKind::Get), count(OpKind::Put), batch.ops.len() as f64);
    row(label, vec![reads, writes, ops, read, written, read / written, batch.latency.as_secs_f64()])
}

/// §II-B's motivation, measured: an 8 KB update (RACS's read-modify-write
/// against HyRD's replica write), the repair of a lost provider (RAID5
/// reads every survivor) and the consistency update after an outage.
pub fn update_recovery() -> Section {
    let scheme = |name| extended_schemes().into_iter().find(|s| s.0 == name).expect("a scheme").1;
    let update = |name, size| {
        let mut s = scheme(name)(&Fleet::standard_four(SimClock::new()));
        s.create_file("/f", &synth_content("/f", 0, size)).expect("fleet up");
        s.update_file("/f", 1000, &synth_content("/f", 1, 8 << 10)).expect("fleet up")
    };
    let consistency = |name| {
        let fleet = Fleet::standard_four(SimClock::new());
        let (mut s, azure) = (scheme(name)(&fleet), fleet.by_name("Windows Azure").expect("std"));
        azure.force_down();
        for i in 0..50 {
            s.create_file(&format!("/o/f{i}"), &synth_content("x", i, 8 << 10)).expect("up");
        }
        azure.restore();
        s.recover_provider(azure.id()).expect("provider back").1
    };
    let archive = |s: &mut dyn Scheme| {
        for i in 0..4 {
            s.create_file(&format!("/a/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
        }
    };
    let fleet = ghost_fleet();
    let rackspace = fleet.by_name("Rackspace").expect("standard fleet").id();
    let mut racs = Racs::new(&fleet).expect("4 providers");
    archive(&mut racs);
    let racs_repair = racs.repair_provider(rackspace).expect("repairable").1;
    let fleet = ghost_fleet();
    let mut nccloud = NcCloudLite::new(&fleet).expect("4 providers");
    archive(&mut nccloud);
    let nccloud_repair = nccloud.repair_provider(rackspace).expect("repairable").1;
    let rows = vec![
        batch_row("HyRD: 8 KB update of a 256 KB file", &update("HyRD", 256 << 10)),
        batch_row("RACS: 8 KB update of a 256 KB file", &update("RACS", 256 << 10)),
        batch_row("RACS: 8 KB update of an 8 MB file", &update("RACS", 8 << 20)),
        batch_row("RACS: repair a lost provider", &racs_repair),
        batch_row("NCCloud-lite: repair a lost provider", &nccloud_repair),
        batch_row("HyRD: consistency update", &consistency("HyRD")),
        batch_row("DuraCloud: consistency update", &consistency("DuraCloud")),
    ];
    let head = "operation|reads|writes|ops|bytes read|bytes written|read amp|latency (s)";
    section(("update", "§II-B — updates and recovery", head), rows, UPDATE, |s| {
        let small = |name, column| s.get(&format!("{name}: 8 KB update of a 256 KB file"), column);
        let repair = |name| s.get(&format!("{name}: repair a lost provider"), "read amp");
        vec![
            small("RACS", "ops") / small("HyRD", "ops"),
            small("RACS", "latency (s)") / small("HyRD", "latency (s)"),
            repair("RACS"),
            repair("NCCloud-lite") / repair("RACS"),
            s.get("HyRD: consistency update", "read amp"),
        ]
    })
}

// ---- DESIGN §4 ablations ---------------------------------------------------

const REPLICATION: &[Spec] =
    &[("write_cost_grows", "more replicas, slower writes (least step)", Above(1.0))];

/// §III-C's replication-level trade-off: write latency and storage
/// against the number of small-file and metadata replicas.
pub fn replication_level(config: &PostMarkConfig, jobs: usize) -> Section {
    let make = |f: &Fleet, replication_level| {
        Hyrd::new(f, HyrdConfig { replication_level, ..Default::default() })
    };
    let rows = config_sweep(&[1usize, 2, 3, 4], config, jobs, make, |level, stats, _, h| {
        for i in 0..40 {
            h.create_file(&format!("/s/f{i}"), &vec![0u8; 16 << 10]).expect("fleet up");
        }
        let small_write = stats.class(OpClass::SmallWrite).mean().as_secs_f64();
        let stored = h.physical_bytes() as f64 / h.logical_bytes() as f64;
        row(level.to_string(), vec![mean(stats), small_write, stored])
    });
    let head = "replicas|latency (s)|small write (s)|stored/logical";
    section(("replication", "§III-C — replication level", head), rows, REPLICATION, |s| {
        vec![min(s.column("small write (s)").windows(2).map(|w| w[1] / w[0]))]
    })
}

/// The standard fleet with S3 swapped for a *premium* provider: priced
/// like S3 but as fast as Aliyun — the case where the two fragment
/// selection policies pull in opposite directions.
fn premium_fleet() -> Fleet {
    let mut profiles: Vec<_> = WellKnownProvider::ALL.iter().map(|w| w.profile()).collect();
    profiles[0].name = "Premium".to_string();
    profiles[0].latency = WellKnownProvider::Aliyun.profile().latency;
    profiles[0].latency.rtt = std::time::Duration::from_millis(30);
    let fleet = Fleet::new(SimClock::new(), profiles);
    for p in fleet.providers() {
        p.create(Fleet::CONTAINER).expect("fresh provider");
        p.set_ghost_mode(true);
    }
    fleet
}

const FRAGMENTS: &[Spec] = &[
    ("table2_coincide", "on Table II the cheapest fragments are the fastest", In(1.0, 1.0)),
    ("premium_fastest_faster", "reading the fastest fragments buys latency", Below(1.0)),
    ("cheapest_egress_saves", "HyRD's cost of data-out operations is reduced", Below(1.0)),
];

/// §IV-B's fragment selection: 6 MB reads from the cheapest-egress
/// fragments against the fastest ones, on the Table II fleet and on one
/// with a fast, expensive provider in S3's place.
pub fn fragment_selection() -> Section {
    let fleets = [("Table II", ghost_fleet as fn() -> Fleet), ("premium", premium_fleet)];
    let policies = [(CheapestEgress, "cheapest-egress"), (Fastest, "fastest")];
    let rows = fleets.iter().flat_map(|&(fleet_name, make)| {
        policies.map(|(fragment_selection, name)| {
            let fleet = make();
            let config = HyrdConfig { fragment_selection, ..Default::default() };
            let h = Hyrd::new(&fleet, config).expect("valid config");
            let (mut latency, mut egress) = (0.0, 0.0);
            for i in 0..4 {
                h.create_file(&format!("/m/f{i}"), &vec![0u8; 6 << 20]).expect("fleet up");
                let (_, report) = h.read_file(&format!("/m/f{i}")).expect("fleet up");
                latency += report.latency.as_secs_f64() / 4.0;
                for op in &report.ops {
                    let price = fleet.get(op.provider).expect("fleet member").prices().data_out_gb;
                    egress += op.bytes_out as f64 / 1e9 * price / 4.0;
                }
            }
            let gets = fleet.providers()[0].stats().get as f64;
            row(format!("{fleet_name} fleet, {name}"), vec![latency, egress, gets])
        })
    });
    let head = "fleet, policy|read latency (s)|egress $ per read|gets from S3 / Premium";
    section(("fragments", "§IV-B — fragment selection", head), rows.collect(), FRAGMENTS, |s| {
        let v = |fleet, policy, column| s.get(&format!("{fleet} fleet, {policy}"), column);
        let ratio = |fleet, a, b, column| v(fleet, a, column) / v(fleet, b, column);
        vec![
            ratio("Table II", "fastest", "cheapest-egress", "read latency (s)"),
            ratio("premium", "fastest", "cheapest-egress", "read latency (s)"),
            ratio("premium", "cheapest-egress", "fastest", "egress $ per read"),
        ]
    })
}

const CODES: &[Spec] = &[
    ("raid5_cheapest", "RAID5 is the cheapest code (stored ÷ the next cheapest)", Below(1.0)),
    ("two_outages_two_parities", "two outages need two parities (codes that disagree)", In(0., 0.)),
];

/// DESIGN §4.4: the large-file tier's erasure code — latency, storage
/// and whether a 6 MB file is still read with S3 and Rackspace down.
pub fn code_choice(config: &PostMarkConfig, jobs: usize) -> Section {
    let codes = [Raid5 { m: 3 }, ReedSolomon { m: 2, n: 4 }, Raid6 { m: 2 }];
    let make = |f: &Fleet, code| Hyrd::new(f, HyrdConfig { code, ..Default::default() });
    let rows = config_sweep(&codes, config, jobs, make, |code, stats, fleet, h| {
        let data = vec![7u8; 6 << 20];
        fleet.providers().iter().for_each(|p| p.set_ghost_mode(false));
        h.create_file("/big", &data).expect("fleet up");
        let stored = h.physical_bytes() as f64 / h.logical_bytes() as f64;
        for down in ["Amazon S3", "Rackspace"] {
            fleet.by_name(down).expect("standard fleet").force_down();
        }
        let served = match h.read_file("/big") {
            Ok((bytes, _)) if bytes == data => 1.0,
            Err(SchemeError::DataUnavailable { .. }) => 0.0,
            _ => f64::NAN,
        };
        let (m, n) = (code.m() as f64, code.n() as f64);
        row(format!("{code:?}"), vec![m / n, n - m, mean(stats), stored, served])
    });
    let head = "code|rate|outages tolerated|latency (s)|stored/logical|read in 2 outages";
    section(("codes", "DESIGN §4.4 — the large-file code", head), rows, CODES, |s| {
        let stored = s.column("stored/logical");
        let survives =
            s.column("outages tolerated").into_iter().map(|t| f64::from(u8::from(t >= 2.)));
        let wrong = survives.zip(s.column("read in 2 outages")).map(|(t, r)| (t - r).abs()).sum();
        vec![stored[0] / min(stored[1..].iter().copied()), wrong]
    })
}

// ---- availability ----------------------------------------------------------

/// A request mix of "any k of n providers" tiers: (share, k, n).
type Tiers = &'static [(f64, u64, u64)];

const LAYOUTS: [(&str, Tiers); 6] = [
    ("single cloud", &[(1.0, 1, 1)]),
    ("DuraCloud (2 replicas)", &[(1.0, 1, 2)]),
    ("DepSky (4 replicas)", &[(1.0, 1, 4)]),
    ("RACS RAID5(3+1)", &[(1.0, 3, 4)]),
    ("NCCloud RS(2,4)", &[(1.0, 2, 4)]),
    ("HyRD (88 % small requests)", &[(0.88, 1, 2), (0.12, 3, 4)]),
];

const AVAILABILITY: &[Spec] = &[
    ("hyrd_vs_single", "redundancy improves availability (unavailability ÷)", Above(100.0)),
    ("hyrd_between_tiers", "the hybrid lies between its tiers (0 RAID5, 1 replicas)", In(0.0, 1.0)),
    ("monte_carlo_agrees", "simulated outages match the closed form (largest gap)", Below(0.001)),
];

/// The quantity in the paper's title: read availability of each layout
/// in nines, closed form; then, as fractions, the closed form and a
/// Monte Carlo run of exponential outages (MTBF 30 days, MTTR 6 h).
pub fn availability() -> Section {
    let (mtbf, mttr) = (720.0, 6.0);
    let rows = LAYOUTS.iter().map(|&(name, tiers)| {
        let closed = |p| tiers.iter().map(|&(w, k, n)| w * at_least_k_of_n(p, k, n)).sum::<f64>();
        let mc = tiers
            .iter()
            .map(|&(w, k, n)| w * monte_carlo_k_of_n(k, n, mtbf, mttr, 1e6, 0xA11).available);
        let nines = [0.99, 0.995, 0.999, 0.9995].map(|p| nines(closed(p)));
        row(name, nines.into_iter().chain([closed(mtbf / (mtbf + mttr)), mc.sum()]).collect())
    });
    let head = "layout|p=0.99|p=0.995|p=0.999|p=0.9995|closed form, 30 d / 6 h|Monte Carlo";
    section(("availability", "Read availability", head), rows.collect(), AVAILABILITY, |s| {
        let at = |name| s.get(name, "p=0.999");
        let (hyrd, raid5) = (at("HyRD (88 % small requests)"), at("RACS RAID5(3+1)"));
        let mc = s.column("closed form, 30 d / 6 h").into_iter().zip(s.column("Monte Carlo"));
        vec![
            10f64.powf(hyrd - at("single cloud")),
            (hyrd - raid5) / (at("DuraCloud (2 replicas)") - raid5),
            max(mc.map(|(c, m)| (c - m).abs())),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_telemetry::json;

    fn tiny(seed: u64) -> PostMarkConfig {
        PostMarkConfig { initial_files: 8, transactions: 20, ..postmark(seed) }
    }

    #[test]
    fn split_ops_partitions_the_stream() {
        let cfg = postmark(1);
        let (init, txns) = split_ops(&cfg);
        assert_eq!(init.len(), cfg.initial_files);
        assert!(init.iter().all(|o| matches!(o, FsOp::Create { .. })));
        assert!(!txns.is_empty());
    }

    #[test]
    fn s3_baseline_runs_clean_in_normal_mode() {
        let cfg = PostMarkConfig { initial_files: 10, transactions: 30, ..postmark(2) };
        let (stats, stored) =
            run_scheme(|f| Box::new(Replicated::amazon_s3(f).unwrap()), false, &cfg);
        assert_eq!(stats.errors, 0);
        assert!(stats.overall.count() > 30);
        assert_eq!(stats.verify_failures, 0);
        assert!(stored > 0);
    }

    /// The sweep equals sequential runs at any job count, and so does
    /// the whole `paper.json`.
    #[test]
    fn lineup_sweep_matches_sequential_runs_for_any_job_count() {
        let cfg = tiny(4);
        let schemes = || paper_schemes().into_iter().take(2).collect::<Vec<_>>();
        let sequential: Vec<_> = schemes()
            .into_iter()
            .map(|(name, make)| {
                let normal = run_scheme(make, false, &cfg);
                let outage = (name != "Amazon S3").then(|| run_scheme(make, true, &cfg));
                (name, normal, outage)
            })
            .collect();
        for jobs in [1, 3] {
            let swept = run_lineup_sweep(schemes(), &cfg, jobs);
            assert_eq!(swept, sequential, "jobs={jobs}");
        }
        let doc = |jobs| json::to_string_pretty(&run(&cfg, jobs));
        assert_eq!(doc(1), doc(2), "paper.json differs between --jobs 1 and --jobs 2");
    }

    #[test]
    fn coc_schemes_survive_the_outage_mode() {
        let cfg = PostMarkConfig { initial_files: 10, transactions: 30, ..postmark(3) };
        for (name, make) in paper_schemes().into_iter().skip(1) {
            let (stats, _) = run_scheme(make, true, &cfg);
            assert_eq!(stats.errors, 0, "{name} errored during outage");
        }
    }

    /// The checker can fail: a section whose numbers leave a bound yields
    /// a claim that does not hold, and `paper`'s exit status says so.
    #[test]
    fn a_number_outside_its_bound_fails_the_claim_and_the_run() {
        let mut fig4 = cost(&IaTrace::synthesize(TRACE_SEED));
        assert!(fig4.claims.iter().all(|c| c.holds), "{:#?}", fig4.claims);
        let hyrd = fig4.rows.iter_mut().find(|r| r.label == "HyRD").expect("HyRD is costed");
        *hyrd.values.last_mut().expect("a year column") *= 10.0;
        fig4.recheck();
        let failing: Vec<&str> =
            fig4.claims.iter().filter(|c| !c.holds).map(|c| c.id.as_str()).collect();
        assert!(failing.contains(&"fig4.hyrd_below_racs"), "{failing:?}");
        let paper = Paper { seed: 0, files: 0, transactions: 0, sections: vec![fig4] };
        assert!(!paper.holds());
    }
}
