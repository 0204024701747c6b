//! # hyrd-cloudsim — the simulated Cloud-of-Clouds substrate
//!
//! The paper's prototype talks to Amazon S3, Windows Azure, Aliyun OSS and
//! Rackspace Cloud Files over the Internet. This crate replaces that
//! testbed with a deterministic simulation that preserves everything the
//! experiments actually measure:
//!
//! * the **five-function passive storage semantics** (via `hyrd-gcsapi`),
//! * each provider's **latency characteristics** — base RTT plus a
//!   bandwidth term with a large-transfer knee, reproducing the Figure 5
//!   shape (Aliyun fastest; the 1 MB→4 MB disproportionate jump that
//!   motivates the paper's 1 MB threshold),
//! * each provider's **Table II price plan** (September 2014, China
//!   region),
//! * **service outages**: scheduled windows or manual kill/restore, during
//!   which every op fails with `CloudError::Unavailable`,
//! * **seeded fault injection** ([`faults`]): throttling bursts, latency
//!   spikes, wire corruption, torn writes and bit rot, reproducible from
//!   one seed,
//! * **deterministic client-crash injection** ([`crash`]): a fleet-shared
//!   switch that kills the client at a chosen op boundary or named
//!   crashpoint, so a torture harness can sweep every crash site,
//! * full **op/byte accounting** for the cost simulator.
//!
//! Time is virtual: ops return their latency in the `OpReport` and the
//! *driver* advances the [`clock::SimClock`]. Parallel fan-out is
//! therefore composed analytically (max of branches) — deterministic and
//! free of host-machine noise, which is exactly what a figure-regenerating
//! harness wants.

pub mod clock;
pub mod crash;
pub mod faults;
pub mod fleet;
pub mod latency;
pub mod outage;
pub mod pricing;
pub mod profiles;
pub mod provider;
pub mod queue;

pub use clock::SimClock;
pub use crash::{CrashPlan, CrashSite, CrashSwitch};
pub use faults::{FaultPlan, FaultWindow, LatencySpike};
pub use fleet::Fleet;
pub use latency::LatencyModel;
pub use outage::OutageSchedule;
pub use pricing::{PriceBook, ProviderCategory};
pub use profiles::{ProviderProfile, WellKnownProvider};
pub use provider::SimProvider;
pub use queue::{Admission, ProviderQueue};

/// Re-export of the middleware crate for downstream convenience.
pub use hyrd_gcsapi as gcsapi;
