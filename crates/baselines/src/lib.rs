//! # hyrd-baselines — the comparator schemes of the paper's evaluation
//!
//! Every scheme HyRD is measured against in Figures 4 and 6 and Table I,
//! each implementing the same [`hyrd::Scheme`] trait so one harness
//! replays identical workloads through all of them. They run on two data
//! paths:
//!
//! * [`replicated::Replicated`] — a full copy of everything on each of a
//!   layout's **targets**, written under its **write rule** (serial, or
//!   acknowledged at the k-th fastest of n) and read under its **read
//!   rule** (primary first or fastest first). Its named constructors are
//!   the three replicated baselines:
//!   * [`Replicated::single_cloud`] / [`Replicated::amazon_s3`] —
//!     everything on one provider; the Amazon S3 instance is the
//!     normalization baseline of Figure 6.
//!   * [`Replicated::duracloud`] / [`Replicated::duracloud_standard`] —
//!     two providers with the synchronizing (serial) write rule that makes
//!     its normal-state writes slower than its outage-state writes — the
//!     counter-intuitive Figure 6 observation.
//!   * [`Replicated::depsky`] — every provider, majority-quorum writes,
//!     fastest-replica reads (DepSky-A flavored).
//! * [`ecbase::EcEverything`] — one erasure code over *everything* (files,
//!   small files, metadata blocks) across all providers:
//!   * [`Racs`] = `EcEverything<Raid5>` — RAID5 striping with the 2-read +
//!     2-write small-update amplification of §I.
//!   * [`NcCloudLite`] = `EcEverything<ReedSolomon>` — a systematic
//!     RS(2,4) in NCCloud's 4-cloud configuration, plus an explicit
//!     whole-provider [`ecbase::EcEverything::repair_provider`] that
//!     measures repair traffic.
//!
//! Shared plumbing (the write fan-out, fastest-first reads, erasure read
//! and write, metadata-block handling, outage logging) lives in
//! [`common`]; small erasure-coded objects take the strip layout of
//! [`strips`].

pub mod common;
pub mod ecbase;
pub mod nccloud;
pub mod racs;
pub mod replicated;
pub mod strips;

pub use nccloud::NcCloudLite;
pub use racs::Racs;
pub use replicated::Replicated;

#[cfg(test)]
#[path = "tests/replica_ops.rs"]
mod replica_ops;

#[cfg(test)]
#[path = "tests/refused_writes.rs"]
mod refused_writes;

// The unit tests of the three replica layouts keep the module paths
// (`single::tests::…`) they had when each layout was its own scheme.
#[cfg(test)]
#[path = "tests/single.rs"]
mod single;

#[cfg(test)]
#[path = "tests/duracloud.rs"]
mod duracloud;

#[cfg(test)]
#[path = "tests/depsky.rs"]
mod depsky;
