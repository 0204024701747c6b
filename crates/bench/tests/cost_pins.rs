//! The cost numbers `paper` prints, pinned to the last bit: Figure 4's
//! year totals and the §IV-C threshold study's year-cost column. Both
//! are pure functions of the synthesized Internet Archive trace and the
//! Table II prices, so any change to how a layout is priced shows here
//! as a changed `paper.json`.

use hyrd_bench::paper;
use hyrd_costsim::{price, Layout};
use hyrd_workloads::IaTrace;

#[test]
fn figure4_year_totals_are_pinned() {
    let section = paper::cost(&IaTrace::synthesize(paper::TRACE_SEED));
    let years: Vec<(&str, f64)> = section
        .rows
        .iter()
        .map(|r| (r.label.as_str(), *r.values.last().expect("a year column")))
        .collect();
    assert_eq!(
        years,
        [
            ("Amazon S3", 38955.359551708505),
            ("Windows Azure", 47939.78241870099),
            ("Aliyun", 22427.209697936138),
            ("Rackspace", 39695.36123841483),
            ("DuraCloud", 86895.14197040949),
            ("RACS", 52493.10830271039),
            ("HyRD", 43992.01178270621),
            ("DepSky", 126674.27367085726),
        ]
    );
}

#[test]
fn threshold_year_costs_are_pinned() {
    let trace = IaTrace::synthesize(paper::TRACE_SEED);
    let pinned = [
        (64 << 10, 42758.29336999699),
        (256 << 10, 42681.53447803852),
        (1 << 20, 43992.01178270621),
        (4 << 20, 48313.18698352528),
        (16 << 20, 70366.99211663714),
        (64 << 20, 70366.99211663714),
    ];
    for (threshold, year) in pinned {
        assert_eq!(price(&Layout::hyrd(threshold), &trace).total(), year, "at {threshold} B");
    }
}
