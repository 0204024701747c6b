//! Shared helpers for the cross-crate integration tests.

use hyrd::prelude::*;
use hyrd_baselines::{NcCloudLite, Racs, Replicated};

/// Every scheme in the repository, built fresh over the given fleet.
pub fn all_schemes(fleet: &Fleet) -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Replicated::amazon_s3(fleet).expect("fleet has S3")),
        Box::new(Replicated::duracloud_standard(fleet).expect("standard fleet")),
        Box::new(Racs::new(fleet).expect("4-provider fleet")),
        Box::new(Replicated::depsky(fleet).expect("4-provider fleet")),
        Box::new(NcCloudLite::new(fleet).expect("4-provider fleet")),
        Box::new(Hyrd::new(fleet, HyrdConfig::default()).expect("valid default config")),
    ]
}

/// A fresh standard fleet + clock.
pub fn fresh_fleet() -> (SimClock, Fleet) {
    let clock = SimClock::new();
    let fleet = Fleet::standard_four(clock.clone());
    (clock, fleet)
}
