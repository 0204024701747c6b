//! Property-based integration tests: random operation sequences against
//! a model filesystem, with random single-provider outages interleaved —
//! the schemes must always agree with the model bytewise.

use hyrd_testkit::{check, Gen};

use hyrd::prelude::*;
use hyrd_baselines::Racs;
use hyrd_gcsapi::CloudStorage;
use integration_tests::fresh_fleet;

/// A random op against a bounded namespace.
#[derive(Debug, Clone)]
enum Op {
    Create { slot: usize, size: usize },
    Update { slot: usize, frac: f64, len: usize },
    Delete { slot: usize },
    Read { slot: usize },
    FailProvider { which: usize },
    RestoreAll,
}

fn op_strategy(g: &mut Gen) -> Op {
    let slot = g.range(0..6usize);
    match g.range(0..6u8) {
        0 => Op::Create { slot, size: g.pick(&[512, 4096, 100_000, 2_200_000]) },
        1 => Op::Update { slot, frac: g.unit(), len: g.range(1..4096usize) },
        2 => Op::Delete { slot },
        3 => Op::Read { slot },
        4 => Op::FailProvider { which: g.range(0..4usize) },
        _ => Op::RestoreAll,
    }
}

fn run_against_model(mut scheme: Box<dyn Scheme>, fleet: &Fleet, ops: Vec<Op>) {
    let mut model: Vec<Option<Vec<u8>>> = vec![None; 6];
    let mut version = 0u32;
    let mut down: Option<usize> = None;

    for op in ops {
        match op {
            Op::Create { slot, size } => {
                if model[slot].is_some() {
                    continue;
                }
                version += 1;
                let data = hyrd::driver::synth_content(&format!("/p/f{slot}"), version, size);
                // With a provider down the write may legitimately fail
                // (e.g. too few fragment targets); the model only records
                // acknowledged writes.
                if scheme.create_file(&format!("/p/f{slot}"), &data).is_ok() {
                    model[slot] = Some(data);
                }
            }
            Op::Update { slot, frac, len } => {
                let Some(content) = model[slot].clone() else {
                    continue;
                };
                if content.is_empty() {
                    continue;
                }
                let offset = ((content.len() - 1) as f64 * frac) as usize;
                let len = len.min(content.len() - offset).max(1);
                version += 1;
                let patch = hyrd::driver::synth_content("patch", version, len);
                if scheme.update_file(&format!("/p/f{slot}"), offset as u64, &patch).is_ok() {
                    let c = model[slot].as_mut().expect("checked above");
                    c[offset..offset + len].copy_from_slice(&patch);
                }
            }
            Op::Delete { slot } => {
                if model[slot].is_none() {
                    continue;
                }
                if scheme.delete_file(&format!("/p/f{slot}")).is_ok() {
                    model[slot] = None;
                }
            }
            Op::Read { slot } => {
                let Some(want) = &model[slot] else {
                    assert!(
                        scheme.read_file(&format!("/p/f{slot}")).is_err(),
                        "read of deleted/missing slot {slot} must fail"
                    );
                    continue;
                };
                // A single outage must never lose acknowledged data.
                let (got, _) = scheme
                    .read_file(&format!("/p/f{slot}"))
                    .unwrap_or_else(|e| panic!("{} slot {slot}: {e}", scheme.name()));
                assert_eq!(&got[..], &want[..], "{} slot {slot}", scheme.name());
            }
            Op::FailProvider { which } => {
                // At most one provider down at a time (the paper's
                // single-outage model). A returned provider runs its
                // consistency update before counting again — §III-C.
                if let Some(prev) = down {
                    if prev == which {
                        continue;
                    }
                    let p = &fleet.providers()[prev];
                    p.restore();
                    scheme.recover_provider(p.id()).expect("replay onto returned provider");
                }
                fleet.providers()[which].force_down();
                down = Some(which);
            }
            Op::RestoreAll => {
                if let Some(prev) = down.take() {
                    let p = &fleet.providers()[prev];
                    p.restore();
                    scheme.recover_provider(p.id()).expect("replay onto returned provider");
                }
            }
        }
    }
}

#[test]
fn hyrd_matches_the_model_under_random_ops_and_outages() {
    check(
        12,
        |g| g.vec(1..60, op_strategy),
        |ops| {
            let (_, fleet) = fresh_fleet();
            let scheme =
                Box::new(Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config"));
            run_against_model(scheme, &fleet, ops);
        },
    );
}

#[test]
fn racs_matches_the_model_under_random_ops_and_outages() {
    check(
        12,
        |g| g.vec(1..60, op_strategy),
        |ops| {
            let (_, fleet) = fresh_fleet();
            let scheme = Box::new(Racs::new(&fleet).expect("4-provider fleet"));
            run_against_model(scheme, &fleet, ops);
        },
    );
}

/// The counterexample proptest once shrank to (the retired
/// `property_tests.proptest-regressions`): a large file created while one
/// provider is down must survive that provider's return and the next
/// one's outage.
#[test]
fn a_large_file_created_during_an_outage_survives_the_next_outage() {
    let ops = || {
        vec![
            Op::FailProvider { which: 0 },
            Op::Create { slot: 1, size: 2_200_000 },
            Op::FailProvider { which: 1 },
            Op::Read { slot: 1 },
        ]
    };
    let (_, fleet) = fresh_fleet();
    let hyrd = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config");
    run_against_model(Box::new(hyrd), &fleet, ops());
    let (_, fleet) = fresh_fleet();
    run_against_model(Box::new(Racs::new(&fleet).expect("4-provider fleet")), &fleet, ops());
}
