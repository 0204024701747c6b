//! The Cost & Performance Evaluator (Figure 1, right module).
//!
//! "The Cost & Performance Evaluator module is responsible for evaluating
//! the cloud storage services from the perspectives of cost and
//! performance … These evaluation results will enable the Request
//! Dispatcher module to select the appropriate cloud storage providers"
//! (§III-B). It probes each provider with a real Put/Get/Remove through
//! the GCS-API (the paper's evaluator "will directly interact with the
//! individual cloud storage providers", §III-D) and combines the measured
//! latency with the provider's price book to derive the two tiers of
//! Figure 2:
//!
//! * **performance-oriented**: the faster half of the fleet by measured
//!   small-object Get latency;
//! * **cost-oriented**: every provider except the most expensive by
//!   storage price.
//!
//! Applied to the Table II fleet this derivation reproduces the paper's
//! categories exactly: {Azure, Aliyun} performance-oriented, {S3, Aliyun,
//! Rackspace} cost-oriented, Aliyun in both.

use std::cmp::Ordering;
use std::time::Duration;

use bytes::Bytes;

use hyrd_cloudsim::pricing::PriceBook;
use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{BatchReport, CloudStorage, ObjectKey, ProviderId};

use crate::fleet_list::FleetList;

/// The evaluator's verdict on one provider.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderAssessment {
    /// Who.
    pub id: ProviderId,
    /// Display name.
    pub name: String,
    /// Measured Get latency of the probe object.
    pub probe_get: Duration,
    /// Measured Put latency of the probe object.
    pub probe_put: Duration,
    /// Price plan (supplied by configuration; bills are public).
    pub prices: PriceBook,
    /// In the faster half of the fleet.
    pub performance_oriented: bool,
    /// Not the most expensive storage.
    pub cost_oriented: bool,
}

/// The evaluator: probes a fleet once and answers placement queries.
/// The rankings are derived once, when the probes come back — every
/// request asks for at least one of them.
#[derive(Debug, Clone)]
pub struct Evaluator {
    assessments: Vec<ProviderAssessment>,
    performance_tier: Vec<ProviderId>,
    cost_tier: Vec<ProviderId>,
    fastest_first: Vec<ProviderId>,
    cheapest_egress_first: Vec<ProviderId>,
}

impl Evaluator {
    /// Probes every provider with a `probe_bytes` object (Put + Get +
    /// Remove through the ordinary API) and derives the tiers. Returns
    /// the evaluator and the cost of probing.
    ///
    /// Unavailable providers are assessed with infinite latency (they end
    /// up in no tier until re-assessed).
    pub fn assess(fleet: &Fleet, probe_bytes: u64) -> (Evaluator, BatchReport) {
        let probe = Bytes::from(vec![0xE7u8; probe_bytes as usize]);
        let mut reports = Vec::new();
        let mut raw: Vec<ProviderAssessment> = Vec::with_capacity(fleet.len());

        for p in fleet.providers() {
            let key = ObjectKey::new(Fleet::CONTAINER, format!("probe-{}", p.id().0));
            let (get_lat, put_lat) = match p.put(&key, probe.clone()) {
                Ok(put) => {
                    let put_lat = put.report.latency;
                    reports.push(put.report);
                    let get_lat = match p.get(&key) {
                        Ok(got) => {
                            let l = got.report.latency;
                            reports.push(got.report);
                            l
                        }
                        Err(_) => Duration::MAX,
                    };
                    if let Ok(rm) = p.remove(&key) {
                        reports.push(rm.report);
                    }
                    (get_lat, put_lat)
                }
                Err(_) => (Duration::MAX, Duration::MAX),
            };
            raw.push(ProviderAssessment {
                id: p.id(),
                name: p.name().to_string(),
                probe_get: get_lat,
                probe_put: put_lat,
                prices: *p.prices(),
                performance_oriented: false,
                cost_oriented: false,
            });
        }

        // Performance tier: faster half by probe Get (ties by id).
        let mut by_latency: Vec<usize> = (0..raw.len()).collect();
        by_latency.sort_by_key(|&i| (raw[i].probe_get, raw[i].id));
        let perf_count = raw.len().div_ceil(2);
        for &i in by_latency.iter().take(perf_count) {
            if raw[i].probe_get < Duration::MAX {
                raw[i].performance_oriented = true;
            }
        }

        // Cost tier: everyone but the most expensive storage.
        if let Some(max_price) = raw
            .iter()
            .map(|a| a.prices.storage_gb_month)
            .max_by(|a, b| a.partial_cmp(b).expect("prices are finite"))
        {
            for a in &mut raw {
                a.cost_oriented = a.prices.storage_gb_month < max_price;
            }
        }

        // Probes of different providers run concurrently.
        (Evaluator::ranked(raw), BatchReport::parallel(reports))
    }

    /// Derives the rankings from finished assessments.
    fn ranked(assessments: Vec<ProviderAssessment>) -> Evaluator {
        type A = ProviderAssessment;
        let rank = |keep: fn(&A) -> bool, by: &dyn Fn(&A, &A) -> Ordering| -> Vec<ProviderId> {
            let mut order: Vec<&A> = assessments.iter().filter(|a| keep(a)).collect();
            order.sort_by(|a, b| by(a, b));
            order.into_iter().map(|a| a.id).collect()
        };
        let price = |a: f64, b: f64| a.partial_cmp(&b).expect("prices are finite");
        Evaluator {
            performance_tier: rank(|a| a.performance_oriented, &|a, b| {
                (a.probe_get, a.id).cmp(&(b.probe_get, b.id))
            }),
            cost_tier: rank(|a| a.cost_oriented, &|a, b| {
                price(a.prices.storage_gb_month, b.prices.storage_gb_month).then(a.id.cmp(&b.id))
            }),
            fastest_first: rank(|_| true, &|a, b| {
                (a.probe_get, a.probe_put, a.id).cmp(&(b.probe_get, b.probe_put, b.id))
            }),
            cheapest_egress_first: rank(|_| true, &|a, b| {
                price(a.prices.data_out_gb, b.prices.data_out_gb)
                    .then(a.probe_get.cmp(&b.probe_get))
                    .then(a.id.cmp(&b.id))
            }),
            assessments,
        }
    }

    /// All assessments in provider-id order.
    pub fn assessments(&self) -> &[ProviderAssessment] {
        &self.assessments
    }

    /// Lookup by id.
    pub fn get(&self, id: ProviderId) -> Option<&ProviderAssessment> {
        self.assessments.iter().find(|a| a.id == id)
    }

    /// Performance-oriented providers, fastest first.
    pub fn performance_tier(&self) -> &[ProviderId] {
        &self.performance_tier
    }

    /// Cost-oriented providers, cheapest storage first.
    pub fn cost_tier(&self) -> &[ProviderId] {
        &self.cost_tier
    }

    /// All providers ordered fastest-first by measured Get latency.
    ///
    /// Ties are broken deterministically: equal Get probes fall back to
    /// the Put probe, then to the provider id — so two providers with
    /// identical latency profiles always rank in the same order, and
    /// replay traces stay byte-identical across runs and worker counts.
    pub fn fastest_first(&self) -> &[ProviderId] {
        &self.fastest_first
    }

    /// All providers ordered by egress price then latency — the
    /// CheapestEgress fragment-selection order.
    pub fn cheapest_egress_first(&self) -> &[ProviderId] {
        &self.cheapest_egress_first
    }

    /// Orders the given providers by a reference ranking (providers not
    /// in the ranking keep their relative order at the end).
    pub fn order_by(
        ranking: &[ProviderId],
        subset: impl IntoIterator<Item = ProviderId>,
    ) -> FleetList<ProviderId> {
        let pos = |id: ProviderId| ranking.iter().position(|&r| r == id).unwrap_or(usize::MAX);
        let mut out: FleetList<ProviderId> = subset.into_iter().collect();
        out.sort_by_key(|&id| (pos(id), id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;

    fn eval() -> Evaluator {
        let fleet = Fleet::standard_four(SimClock::new());
        Evaluator::assess(&fleet, 64 * 1024).0
    }

    #[test]
    fn derived_tiers_match_table2_categories() {
        let e = eval();
        let name = |id: ProviderId| e.get(id).unwrap().name.clone();

        let perf: Vec<String> = e.performance_tier().iter().copied().map(name).collect();
        assert_eq!(perf, vec!["Aliyun", "Windows Azure"], "fastest first");

        let name2 = |id: ProviderId| e.get(id).unwrap().name.clone();
        let cost: Vec<String> = e.cost_tier().iter().copied().map(name2).collect();
        assert_eq!(cost, vec!["Aliyun", "Amazon S3", "Rackspace"], "cheapest first");
    }

    #[test]
    fn aliyun_is_in_both_tiers() {
        let e = eval();
        let aliyun = e.assessments().iter().find(|a| a.name == "Aliyun").expect("aliyun assessed");
        assert!(aliyun.performance_oriented && aliyun.cost_oriented);
    }

    #[test]
    fn fastest_first_is_total_order() {
        let e = eval();
        let order = e.fastest_first();
        assert_eq!(order.len(), 4);
        let names: Vec<String> = order.iter().map(|&id| e.get(id).unwrap().name.clone()).collect();
        assert_eq!(names[0], "Aliyun");
        assert_eq!(names[1], "Windows Azure");
    }

    #[test]
    fn fastest_first_breaks_latency_ties_deterministically() {
        // Equal Get probes fall back to the Put probe, then provider id.
        let assessment = |id: u16, get_ms: u64, put_ms: u64| ProviderAssessment {
            id: ProviderId(id),
            name: format!("p{id}"),
            probe_get: Duration::from_millis(get_ms),
            probe_put: Duration::from_millis(put_ms),
            prices: PriceBook::AMAZON_S3,
            performance_oriented: true,
            cost_oriented: false,
        };
        let e = Evaluator::ranked(vec![
            assessment(2, 10, 20), // ties with id 0 on both probes ⇒ id decides
            assessment(1, 10, 15), // same Get, faster Put ⇒ ranks first
            assessment(0, 10, 20),
        ]);
        assert_eq!(
            e.fastest_first(),
            vec![ProviderId(1), ProviderId(0), ProviderId(2)],
            "ties resolve by (probe_get, probe_put, id)"
        );
    }

    #[test]
    fn identical_profiles_rank_by_id_every_time() {
        // A fleet of four byte-identical providers produces identical
        // probe latencies (the jitter stream is per-provider-sequence,
        // not per-id), so the order must collapse to provider id — and
        // stay stable across repeated assessments.
        let clock = SimClock::new();
        let profile = Fleet::standard_four(SimClock::new()).providers()[0].profile().clone();
        let fleet = Fleet::new(clock, vec![profile.clone(), profile.clone(), profile]);
        let (e, _) = Evaluator::assess(&fleet, 64 * 1024);
        let expected: Vec<ProviderId> = (0..3).map(ProviderId).collect();
        assert_eq!(e.fastest_first(), expected);
        let (e2, _) = Evaluator::assess(&fleet, 64 * 1024);
        assert_eq!(e2.fastest_first(), expected, "re-assessment keeps the order");
    }

    #[test]
    fn cheapest_egress_puts_free_providers_first() {
        let e = eval();
        let order = e.cheapest_egress_first();
        let names: Vec<String> = order.iter().map(|&id| e.get(id).unwrap().name.clone()).collect();
        // Azure and Rackspace are free egress; Azure is faster.
        assert_eq!(names[0], "Windows Azure");
        assert_eq!(names[1], "Rackspace");
        assert_eq!(names[2], "Aliyun"); // $0.123 < S3's $0.201
        assert_eq!(names[3], "Amazon S3");
    }

    #[test]
    fn probing_costs_appear_in_the_report() {
        let fleet = Fleet::standard_four(SimClock::new());
        let (_, report) = Evaluator::assess(&fleet, 1024);
        // 3 ops per provider x 4 providers.
        assert_eq!(report.op_count(), 12);
        assert!(report.bytes_in() >= 4 * 1024);
        assert!(report.latency > Duration::ZERO);
    }

    #[test]
    fn down_provider_is_excluded_from_tiers() {
        let fleet = Fleet::standard_four(SimClock::new());
        fleet.by_name("Aliyun").unwrap().force_down();
        let (e, _) = Evaluator::assess(&fleet, 1024);
        let perf = e.performance_tier();
        assert!(perf.iter().all(|&id| e.get(id).unwrap().name != "Aliyun"));
        // Azure and one of the slow pair fill the performance tier.
        assert_eq!(perf.len(), 2);
    }

    #[test]
    fn order_by_follows_reference_ranking() {
        let ranking = vec![ProviderId(2), ProviderId(0), ProviderId(1)];
        let subset = vec![ProviderId(0), ProviderId(1), ProviderId(2)];
        let ordered = |subset: &[ProviderId]| -> Vec<ProviderId> {
            Evaluator::order_by(&ranking, subset.iter().copied()).into_iter().collect()
        };
        assert_eq!(ordered(&subset), vec![ProviderId(2), ProviderId(0), ProviderId(1)]);
        // Unknown ids sink to the end.
        let with_unknown = vec![ProviderId(9), ProviderId(2)];
        assert_eq!(ordered(&with_unknown), vec![ProviderId(2), ProviderId(9)]);
    }
}
