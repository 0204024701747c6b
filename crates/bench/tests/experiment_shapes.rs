//! The paper's headline shapes, locked in: the claims of the sections
//! `paper` runs, computed by the same functions at a smaller PostMark
//! scale. If a change breaks "who wins and by roughly what factor",
//! these fail.

use std::sync::OnceLock;

use hyrd_bench::paper::{self, Section};
use hyrd_workloads::{IaTrace, PostMarkConfig};

/// The sections the six shapes read, computed once per test binary.
fn sections() -> &'static [Section] {
    static SECTIONS: OnceLock<Vec<Section>> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let config = PostMarkConfig {
            initial_files: 40,
            transactions: 160,
            seed: 0x51A7,
            ..Default::default()
        };
        let trace = IaTrace::synthesize(paper::TRACE_SEED);
        let mut sections = vec![
            paper::ia_trace(&trace),
            paper::cost(&trace),
            paper::latency_vs_size(),
            paper::lineup(paper::paper_schemes(), &config, 1),
            paper::update_recovery(),
        ];
        sections.push(paper::table1(&sections));
        sections
    })
}

/// Every claim whose id starts with one of `prefixes` holds, and there
/// is at least one per prefix.
fn assert_claims(prefixes: &[&str]) {
    for prefix in prefixes {
        let claims: Vec<_> = sections()
            .iter()
            .flat_map(|s| &s.claims)
            .filter(|c| c.id.starts_with(prefix))
            .collect();
        assert!(!claims.is_empty(), "no claim starts with {prefix}");
        for claim in claims {
            assert!(claim.holds, "{claim:?}");
        }
    }
}

#[test]
fn fig3_shape_trace_ratios() {
    assert_claims(&["fig3."]);
}

#[test]
fn fig4_shape_cost_ordering_and_magnitudes() {
    assert_claims(&["fig4."]);
}

#[test]
fn fig5_shape_provider_latency_ordering() {
    assert_claims(&["fig5."]);
}

#[test]
fn fig6_shape_normal_state() {
    assert_claims(&["fig6.errors", "fig6.normal."]);
}

#[test]
fn fig6_shape_outage_state() {
    assert_claims(&["fig6.errors", "fig6.outage."]);
}

#[test]
fn table1_shape_hybrid_overhead_sits_between_ec_and_replication() {
    assert_claims(&["table1.", "update."]);
}
