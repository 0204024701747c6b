//! Cost series: running a model over a trace, monthly/cumulative views,
//! and the table rendering the figure binaries print.

use hyrd_cloudsim::{PriceBook, WellKnownProvider};
use hyrd_workloads::IaTrace;

use crate::model::CostModel;
use crate::usage::MonthlyUsage;

/// One month's bill for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthCost {
    /// Month label ("Feb-08").
    pub label: String,
    /// Dollar cost per provider (Table II order).
    pub per_provider: Vec<f64>,
    /// Whole-fleet cost this month.
    pub total: f64,
}

/// A scheme's 12-month cost series.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSeries {
    /// Scheme name.
    pub scheme: String,
    /// Monthly bills in trace order.
    pub months: Vec<MonthCost>,
}

impl CostSeries {
    /// Monthly totals (Figure 4a's series).
    pub fn monthly(&self) -> Vec<f64> {
        self.months.iter().map(|m| m.total).collect()
    }

    /// Running cumulative totals (Figure 4b's series).
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.months
            .iter()
            .map(|m| {
                acc += m.total;
                acc
            })
            .collect()
    }

    /// Year total.
    pub fn total(&self) -> f64 {
        self.months.iter().map(|m| m.total).sum()
    }
}

/// The Table II price books in provider-index order.
pub fn price_books() -> Vec<PriceBook> {
    WellKnownProvider::ALL.iter().map(|w| w.profile().prices).collect()
}

/// Runs a cost model over the trace.
pub fn run_model(model: &mut dyn CostModel, trace: &IaTrace) -> CostSeries {
    let prices = price_books();
    let months = trace
        .months()
        .iter()
        .map(|t| {
            let usage: Vec<MonthlyUsage> = model.month(t);
            assert_eq!(usage.len(), prices.len(), "usage per provider");
            let per_provider: Vec<f64> =
                usage.iter().zip(&prices).map(|(u, p)| u.cost(p)).collect();
            MonthCost { label: t.label.clone(), total: per_provider.iter().sum(), per_provider }
        })
        .collect();
    CostSeries { scheme: model.name().to_string(), months }
}

/// Renders schemes side by side as a markdown table of monthly totals.
pub fn monthly_table(series: &[CostSeries]) -> String {
    let mut out = String::new();
    out.push_str("| month |");
    for s in series {
        out.push_str(&format!(" {} |", s.scheme));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    let n = series.first().map_or(0, |s| s.months.len());
    for i in 0..n {
        out.push_str(&format!("| {} |", series[0].months[i].label));
        for s in series {
            out.push_str(&format!(" {:.2} |", s.months[i].total));
        }
        out.push('\n');
    }
    out
}

/// Renders the cumulative view (Figure 4b).
pub fn cumulative_table(series: &[CostSeries]) -> String {
    let mut out = String::new();
    out.push_str("| month |");
    for s in series {
        out.push_str(&format!(" {} |", s.scheme));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    let cums: Vec<Vec<f64>> = series.iter().map(|s| s.cumulative()).collect();
    let n = series.first().map_or(0, |s| s.months.len());
    for i in 0..n {
        out.push_str(&format!("| {} |", series[0].months[i].label));
        for c in &cums {
            out.push_str(&format!(" {:.2} |", c[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        DepSkyModel, DuraCloudModel, HyrdModel, RacsModel, SingleModel, ALIYUN, AZURE, RACKSPACE,
        S3,
    };

    fn trace() -> IaTrace {
        IaTrace::synthesize(42)
    }

    fn run(model: &mut dyn CostModel) -> CostSeries {
        run_model(model, &trace())
    }

    #[test]
    fn cumulative_is_running_sum_of_monthly() {
        let s = run(&mut SingleModel::new("Amazon S3", S3));
        let m = s.monthly();
        let c = s.cumulative();
        assert_eq!(m.len(), 12);
        let mut acc = 0.0;
        for i in 0..12 {
            acc += m[i];
            assert!((c[i] - acc).abs() < 1e-9);
        }
        assert!((s.total() - acc).abs() < 1e-9);
    }

    // ----- Figure 4 shape assertions (the paper's §IV-B findings) -----

    #[test]
    fn fig4_aliyun_is_the_cheapest_single_cloud() {
        let aliyun = run(&mut SingleModel::new("Aliyun", ALIYUN)).total();
        for (name, idx) in [("S3", S3), ("Azure", AZURE), ("Rackspace", RACKSPACE)] {
            let other = run(&mut SingleModel::new(name, idx)).total();
            assert!(aliyun < other, "Aliyun {aliyun} vs {name} {other}");
        }
    }

    #[test]
    fn fig4_duracloud_is_the_most_costly_scheme() {
        let dura = run(&mut DuraCloudModel::new()).total();
        let racs = run(&mut RacsModel::new()).total();
        let hyrd = run(&mut HyrdModel::paper_default()).total();
        for (n, c) in [("RACS", racs), ("HyRD", hyrd)] {
            assert!(dura > c, "DuraCloud {dura} vs {n} {c}");
        }
        for idx in [S3, AZURE, ALIYUN, RACKSPACE] {
            let single = run(&mut SingleModel::new("x", idx)).total();
            assert!(dura > single);
        }
    }

    #[test]
    fn fig4_hyrd_beats_duracloud_and_racs_by_paper_magnitudes() {
        let dura = run(&mut DuraCloudModel::new()).total();
        let racs = run(&mut RacsModel::new()).total();
        let hyrd = run(&mut HyrdModel::paper_default()).total();
        let vs_dura = 1.0 - hyrd / dura;
        let vs_racs = 1.0 - hyrd / racs;
        // Paper: 33.4% and 20.4%. Shape check: clearly cheaper, in the
        // right ballpark.
        assert!(vs_dura > 0.15 && vs_dura < 0.50, "HyRD vs DuraCloud: {vs_dura:.3}");
        assert!(vs_racs > 0.08 && vs_racs < 0.40, "HyRD vs RACS: {vs_racs:.3}");
    }

    #[test]
    fn fig4_coc_schemes_cost_more_than_single_clouds() {
        // "the three Cloud-of-Clouds schemes are more costly than the
        // individual cloud storage providers" — redundancy isn't free.
        let cheapest_single = run(&mut SingleModel::new("Aliyun", ALIYUN)).total();
        for series in [
            run(&mut DuraCloudModel::new()),
            run(&mut RacsModel::new()),
            run(&mut HyrdModel::paper_default()),
        ] {
            assert!(
                series.total() > cheapest_single,
                "{} {} vs Aliyun {cheapest_single}",
                series.scheme,
                series.total()
            );
        }
    }

    #[test]
    fn fig4_azure_rackspace_monthly_grow_monotonically() {
        // §IV-B: "the monthly costs of all the schemes, except for Amazon
        // S3 and Aliyun, increase nearly monotonously" (their bills are
        // storage-dominated; S3/Aliyun bills track fluctuating reads).
        for idx in [AZURE, RACKSPACE] {
            let m = run(&mut SingleModel::new("x", idx)).monthly();
            let mut increases = 0;
            for w in m.windows(2) {
                if w[1] > w[0] * 0.98 {
                    increases += 1;
                }
            }
            assert!(increases >= 10, "provider {idx} not near-monotone");
        }
    }

    #[test]
    fn fig4_s3_aliyun_bills_are_read_dominated() {
        // First-month decomposition: egress > storage for S3 and Aliyun.
        let t = trace();
        let first = t.months()[0].clone();
        for idx in [S3, ALIYUN] {
            let mut m = SingleModel::new("x", idx);
            let u = m.month(&first)[idx];
            let p = price_books()[idx];
            assert!(
                p.transfer_cost(0, u.bytes_out) > p.storage_cost(u.stored_bytes),
                "provider {idx} should be read-dominated in month 1"
            );
        }
    }

    #[test]
    fn depsky_is_costlier_than_duracloud() {
        let dep = run(&mut DepSkyModel::new()).total();
        let dura = run(&mut DuraCloudModel::new()).total();
        assert!(dep > dura, "4 replicas cost more than 2");
    }

    #[test]
    fn tables_render_all_series() {
        let series =
            vec![run(&mut SingleModel::new("Amazon S3", S3)), run(&mut HyrdModel::paper_default())];
        let m = monthly_table(&series);
        assert!(m.contains("Amazon S3"));
        assert!(m.contains("HyRD"));
        assert!(m.lines().count() >= 14);
        let c = cumulative_table(&series);
        assert!(c.contains("Feb-08") && c.contains("Jan-09"));
    }
}
