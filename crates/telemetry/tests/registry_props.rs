//! The metrics registry against a plain map: handle updates and by-name
//! updates, interleaved at random over counters, gauges and histograms,
//! labelled and not, must leave exactly the snapshot a
//! `BTreeMap<String, _>` per kind would hold — no series lost, none
//! doubled, none that was only resolved and never updated.
//!
//! Seeded and std-only, like `trace_format_props.rs`: a failure prints the
//! seed and step that broke, and reproduces.

use std::collections::BTreeMap;
use std::sync::Arc;

use hyrd_telemetry::{
    Collector, Counter, Gauge, Histogram, HistogramSeries, HistogramSummary, ManualClock,
    MetricsSnapshot, Registry,
};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const NAMES: [&str; 4] =
    ["provider.ops", "replay.latency_ns", "lock.wait_ns", "engine.queue_depth"];

/// Labels a series is drawn with: none, short ones, and two past the 96
/// bytes a labelled name is put together in on the stack.
fn labels() -> Vec<Option<String>> {
    let mut labels: Vec<Option<String>> = ["Aliyun", "Windows Azure", "small-read", "π→"]
        .iter()
        .map(|l| Some(l.to_string()))
        .collect();
    labels.push(Some("x".repeat(96)));
    labels.push(Some(format!("{}é", "y".repeat(120))));
    labels.push(None);
    labels
}

fn series_name(name: &str, label: &Option<String>) -> String {
    match label {
        Some(label) => format!("{name}[{label}]"),
        None => name.to_string(),
    }
}

/// What the registry must hold: one map per kind, written on update only.
#[derive(Default)]
struct Oracle {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
}

impl Oracle {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
                .collect(),
        }
    }
}

/// Handles resolved so far, by series name — a call site keeps its own.
#[derive(Default)]
struct Handles {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, HistogramSeries>,
}

fn value(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => rng.next() % 100,
        _ => rng.next() >> rng.below(64),
    }
}

#[test]
fn registry_handles_and_names_keep_one_series_each() {
    let labels = labels();
    for seed in 0..40u64 {
        let mut rng = Rng(0x5EED_0100 + seed);
        let registry = Registry::default();
        let mut oracle = Oracle::default();
        let mut handles = Handles::default();
        for step in 0..400 {
            let name = series_name(NAMES[rng.below(NAMES.len())], &labels[rng.below(labels.len())]);
            let by_name = rng.below(2) == 0;
            let v = value(&mut rng);
            match rng.below(7) {
                0 | 1 => {
                    let by = v % 1000;
                    if by_name {
                        registry.inc(&name, by);
                    } else {
                        let handle = handles.counters.entry(name.clone());
                        handle.or_insert_with(|| registry.counter_series(&name)).inc(by);
                    }
                    *oracle.counters.entry(name.clone()).or_default() += by;
                }
                2 => {
                    let v = v as i64;
                    if by_name {
                        registry.set_gauge(&name, v);
                    } else {
                        let handle = handles.gauges.entry(name.clone());
                        handle.or_insert_with(|| registry.gauge_series(&name)).set(v);
                    }
                    oracle.gauges.insert(name.clone(), v);
                }
                3 | 4 => {
                    if by_name {
                        registry.observe(&name, v);
                    } else {
                        let handle = handles.hists.entry(name.clone());
                        handle.or_insert_with(|| registry.histogram_series(&name)).observe(v);
                    }
                    oracle.hists.entry(name.clone()).or_default().record(v);
                }
                // Resolved, not updated: no series appears.
                5 => drop(registry.counter_series(&name)),
                _ => {
                    drop(registry.gauge_series(&name));
                    drop(registry.histogram_series(&name));
                }
            }
            assert_eq!(
                registry.counter(&name),
                oracle.counters.get(&name).copied().unwrap_or(0),
                "seed {seed} step {step}: counter {name:?}"
            );
            assert_eq!(
                registry.histogram(&name),
                oracle.hists.get(&name).cloned(),
                "seed {seed} step {step}: histogram {name:?}"
            );
        }
        assert_eq!(registry.snapshot(), oracle.snapshot(), "seed {seed}");
    }
}

#[test]
fn collector_series_handles_match_labelled_updates() {
    let labels = labels();
    for seed in 0..40u64 {
        let mut rng = Rng(0x5EED_0200 + seed);
        let c = Collector::builder(Arc::new(ManualClock::new())).build();
        let mut oracle = Oracle::default();
        let mut handles = Handles::default();
        for _ in 0..400 {
            let (name, label) = (NAMES[rng.below(NAMES.len())], &labels[rng.below(labels.len())]);
            let series = series_name(name, label);
            // Handles are labelled; an unlabelled series goes by name.
            let by_name = label.is_none() || rng.below(2) == 0;
            let label = label.as_deref().unwrap_or("");
            let v = value(&mut rng);
            match rng.below(3) {
                0 => {
                    match (by_name, series == name) {
                        (true, true) => c.inc(name, v),
                        (true, false) => c.inc_labeled(name, label, v),
                        (false, _) => handles
                            .counters
                            .entry(series.clone())
                            .or_insert_with(|| c.counter_series(name, label))
                            .inc(v),
                    }
                    let total = oracle.counters.entry(series).or_default();
                    *total = total.wrapping_add(v);
                }
                1 => {
                    let v = v as i64;
                    match (by_name, series == name) {
                        (true, true) => c.set_gauge(name, v),
                        (true, false) => c.set_gauge_labeled(name, label, v),
                        (false, _) => handles
                            .gauges
                            .entry(series.clone())
                            .or_insert_with(|| c.gauge_series(name, label))
                            .set(v),
                    }
                    oracle.gauges.insert(series, v);
                }
                _ => {
                    match (by_name, series == name) {
                        (true, true) => c.observe(name, v),
                        (true, false) => c.observe_labeled(name, label, v),
                        (false, _) => handles
                            .hists
                            .entry(series.clone())
                            .or_insert_with(|| c.histogram_series(name, label))
                            .observe(v),
                    }
                    oracle.hists.entry(series).or_default().record(v);
                }
            }
        }
        assert_eq!(c.metrics(), oracle.snapshot(), "seed {seed}");
    }
}

/// Handles from a disabled collector — and default ones — update nothing
/// and allocate nothing to be made.
#[test]
fn disabled_and_default_handles_are_inert() {
    let off = Collector::disabled();
    let long = "z".repeat(200);
    off.counter_series("n", &long).inc(1);
    off.gauge_series("g", "l").set(-1);
    off.histogram_series("h", "l").observe(7);
    drop(off.span_name("s", "l").start());
    Counter::default().inc(1);
    Gauge::default().set(1);
    HistogramSeries::default().observe(1);
    assert_eq!(off.metrics(), MetricsSnapshot::default());
}

/// The same handle updated from several threads: nothing is lost.
#[test]
fn handles_count_across_threads() {
    let c = Collector::builder(Arc::new(ManualClock::new())).build();
    let ops = c.counter_series("provider.ops", "Aliyun");
    let latency = c.histogram_series("provider.latency_ns", "Aliyun");
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (ops, latency) = (ops.clone(), latency.clone());
            scope.spawn(move || {
                for i in 0..1_000 {
                    ops.inc(1);
                    latency.observe(t * 1_000 + i);
                }
            });
        }
    });
    let m = c.metrics();
    assert_eq!(m.counter("provider.ops[Aliyun]"), 4_000);
    let h = &m.histograms["provider.latency_ns[Aliyun]"];
    assert_eq!((h.count, h.min, h.max), (4_000, 0, 3_999));
}
