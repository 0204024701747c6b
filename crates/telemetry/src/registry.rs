//! Metrics registry: named counters, gauges and histograms.
//!
//! Every series lives in a cell of its own, found by name in a `BTreeMap`
//! — so snapshots iterate in a deterministic order, and anything derived
//! from one (summaries, report sections) is stable across runs with the
//! same seed. A hot call site resolves its series once, to a [`Counter`],
//! [`Gauge`] or [`HistogramSeries`] handle holding the cell, and updates
//! the cell straight through it from then on: no name is rendered and no
//! map is searched per update. Updates by name find the same cells, so
//! the two kinds of update mix freely.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::lock;

/// Longest `name[label]` that [`with_labeled`] renders on the stack.
const LABELED_INLINE: usize = 96;

/// A string put together in place from whole `&str` pieces; a piece that
/// does not fit is refused.
struct InlineStr {
    buf: [u8; LABELED_INLINE],
    len: usize,
}

impl std::fmt::Write for InlineStr {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Calls `f` with the series name `name[label]`. The name is put together
/// on the stack whenever it fits, so looking a labelled series up costs no
/// allocation; only a first sighting pays for the map's key.
pub(crate) fn with_labeled<R>(name: &str, label: impl Display, f: impl FnOnce(&str) -> R) -> R {
    let mut series = InlineStr { buf: [0; LABELED_INLINE], len: 0 };
    let fits = series.write_str(name).is_ok()
        && series.write_char('[').is_ok()
        && write!(series, "{label}").is_ok()
        && series.write_char(']').is_ok();
    if fits {
        f(std::str::from_utf8(&series.buf[..series.len]).expect("whole strs, end to end"))
    } else {
        f(&format!("{name}[{label}]"))
    }
}

/// A counter or gauge value. `touched` is set by the first update: a series
/// that has only been resolved to a handle stays out of snapshots, as a
/// name nobody updated always has.
#[derive(Debug, Default)]
struct Scalar<A> {
    value: A,
    touched: AtomicBool,
}

/// Handle to one counter series. The default handle, and any handle a
/// disabled collector resolves, counts nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<Scalar<AtomicU64>>>);

impl Counter {
    #[inline]
    pub fn inc(&self, by: u64) {
        if let Some(cell) = &self.0 {
            add(cell, by);
        }
    }
}

fn add(cell: &Scalar<AtomicU64>, by: u64) {
    cell.value.fetch_add(by, Ordering::Relaxed);
    cell.touched.store(true, Ordering::Relaxed);
}

/// Handle to one gauge series (inert by default, as [`Counter`]).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<Scalar<AtomicI64>>>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            store(cell, v);
        }
    }
}

fn store(cell: &Scalar<AtomicI64>, v: i64) {
    cell.value.store(v, Ordering::Relaxed);
    cell.touched.store(true, Ordering::Relaxed);
}

/// Handle to one histogram series (inert by default, as [`Counter`]). A
/// histogram that has counted nothing was never observed.
#[derive(Debug, Clone, Default)]
pub struct HistogramSeries(Option<Arc<Mutex<Histogram>>>);

impl HistogramSeries {
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cell) = &self.0 {
            lock(cell).record(v);
        }
    }
}

/// One kind of series: the cells by name.
type Series<T> = Mutex<BTreeMap<String, Arc<T>>>;

/// Runs `f` on the cell of series `name`, made on first sight. The name is
/// copied only then: a known series allocates nothing.
fn with_cell<T: Default, R>(series: &Series<T>, name: &str, f: impl FnOnce(&Arc<T>) -> R) -> R {
    let mut cells = lock(series);
    if let Some(cell) = cells.get(name) {
        return f(cell);
    }
    f(cells.entry(name.to_string()).or_default())
}

/// The updated series of one kind, by name, read through `value`.
fn touched<T, V>(series: &Series<T>, value: impl Fn(&T) -> Option<V>) -> BTreeMap<String, V> {
    lock(series).iter().filter_map(|(k, cell)| Some((k.clone(), value(cell)?))).collect()
}

#[derive(Debug, Default)]
pub struct Registry {
    counters: Series<Scalar<AtomicU64>>,
    gauges: Series<Scalar<AtomicI64>>,
    hists: Series<Mutex<Histogram>>,
}

impl Registry {
    /// The handle of counter `name`.
    pub fn counter_series(&self, name: &str) -> Counter {
        Counter(Some(with_cell(&self.counters, name, Arc::clone)))
    }

    /// The handle of gauge `name`.
    pub fn gauge_series(&self, name: &str) -> Gauge {
        Gauge(Some(with_cell(&self.gauges, name, Arc::clone)))
    }

    /// The handle of histogram `name`.
    pub fn histogram_series(&self, name: &str) -> HistogramSeries {
        HistogramSeries(Some(with_cell(&self.hists, name, Arc::clone)))
    }

    pub fn inc(&self, name: &str, by: u64) {
        with_cell(&self.counters, name, |c| add(c, by));
    }

    pub fn set_gauge(&self, name: &str, v: i64) {
        with_cell(&self.gauges, name, |g| store(g, v));
    }

    pub fn observe(&self, name: &str, v: u64) {
        with_cell(&self.hists, name, |h| lock(h).record(v));
    }

    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let hists = lock(&self.hists);
        let hist = lock(hists.get(name)?);
        (!hist.is_empty()).then(|| hist.clone())
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &Scalar<AtomicU64>| {
            c.touched.load(Ordering::Relaxed).then(|| c.value.load(Ordering::Relaxed))
        };
        let load_gauge = |g: &Scalar<AtomicI64>| {
            g.touched.load(Ordering::Relaxed).then(|| g.value.load(Ordering::Relaxed))
        };
        let summary = |h: &Mutex<Histogram>| {
            let hist = lock(h);
            (!hist.is_empty()).then(|| HistogramSummary::of(&hist))
        };
        MetricsSnapshot {
            counters: touched(&self.counters, load),
            gauges: touched(&self.gauges, load_gauge),
            histograms: touched(&self.hists, summary),
        }
    }
}

/// Point-in-time view of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Counter value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(suffix, value)` for every counter named `prefix[suffix]`, e.g.
    /// `counters_labeled("provider.faults")` → one entry per provider.
    pub fn counters_labeled(&self, prefix: &str) -> Vec<(String, u64)> {
        let open = format!("{prefix}[");
        self.counters
            .iter()
            .filter_map(|(k, v)| {
                let rest = k.strip_prefix(&open)?;
                Some((rest.strip_suffix(']')?.to_string(), *v))
            })
            .collect()
    }

    /// `(suffix, digest)` for every histogram named `prefix[suffix]`,
    /// e.g. `histograms_labeled("lock.wait_ns")` → one entry per lock
    /// stripe. The counter counterpart of [`Self::counters_labeled`].
    pub fn histograms_labeled(&self, prefix: &str) -> Vec<(String, HistogramSummary)> {
        let open = format!("{prefix}[");
        self.histograms
            .iter()
            .filter_map(|(k, v)| {
                let rest = k.strip_prefix(&open)?;
                Some((rest.strip_suffix(']')?.to_string(), v.clone()))
            })
            .collect()
    }
}

/// Bucket-derived digest of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistogramSummary {
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::default();
        r.inc("ops", 2);
        r.inc("ops", 3);
        r.set_gauge("depth", -4);
        assert_eq!(r.counter("ops"), 5);
        assert_eq!(r.counter("missing"), 0);
        let s = r.snapshot();
        assert_eq!(s.counter("ops"), 5);
        assert_eq!(s.gauges.get("depth"), Some(&-4));
    }

    #[test]
    fn labeled_names_render_inline_and_past_the_inline_limit() {
        for (name, label) in [("a", ""), ("provider.ops", "Windows Azure"), ("π", "→")] {
            with_labeled(name, label, |series| assert_eq!(series, format!("{name}[{label}]")));
        }
        with_labeled("meta.shard.dirty", 17usize, |series| {
            assert_eq!(series, "meta.shard.dirty[17]")
        });
        let long = "x".repeat(LABELED_INLINE);
        with_labeled("n", &long, |series| assert_eq!(series, format!("n[{long}]")));
        let fits = "y".repeat(LABELED_INLINE - 3);
        with_labeled("n", &fits, |series| assert_eq!(series.len(), LABELED_INLINE));
        let one_over = "y".repeat(LABELED_INLINE - 2);
        with_labeled("n", &one_over, |series| assert_eq!(series, format!("n[{one_over}]")));
    }

    #[test]
    fn labeled_counter_scan() {
        let r = Registry::default();
        r.inc("provider.faults[aliyun]", 1);
        r.inc("provider.faults[azure]", 7);
        r.inc("provider.ops[azure]", 9);
        let s = r.snapshot();
        assert_eq!(
            s.counters_labeled("provider.faults"),
            vec![("aliyun".to_string(), 1), ("azure".to_string(), 7)]
        );
    }

    #[test]
    fn labeled_histogram_scan() {
        let r = Registry::default();
        r.observe("lock.wait_ns[meta]", 100);
        r.observe("lock.wait_ns[meta]", 300);
        r.observe("lock.wait_ns[log]", 7);
        r.observe("other_hist", 1);
        let s = r.snapshot();
        let labeled = s.histograms_labeled("lock.wait_ns");
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].0, "log");
        assert_eq!(labeled[0].1.count, 1);
        assert_eq!(labeled[1].0, "meta");
        assert_eq!(labeled[1].1.count, 2);
        assert_eq!(labeled[1].1.sum, 400);
        assert!(s.histograms_labeled("nope").is_empty());
    }

    #[test]
    fn histogram_snapshot_digest() {
        let r = Registry::default();
        for v in [10u64, 20, 30, 40, 1000] {
            r.observe("lat", v);
        }
        let s = r.snapshot();
        let d = &s.histograms["lat"];
        assert_eq!(d.count, 5);
        assert_eq!(d.sum, 1100);
        assert_eq!(d.min, 10);
        assert_eq!(d.max, 1000);
        assert!(d.p50 >= 30 && d.p99 <= 1023);
    }
}
