//! # hyrd — Hybrid Redundant Data Distribution for Cloud-of-Clouds
//!
//! The primary contribution of *"Improving Storage Availability in
//! Cloud-of-Clouds with Hybrid Redundant Data Distribution"* (Mao, Wu,
//! Jiang — IPDPS 2015): a client-side layer that distributes **large
//! files with erasure coding across cost-oriented cloud providers** and
//! **replicates small files and file-system metadata on
//! performance-oriented providers**, combining the cost efficiency of
//! erasure codes with the latency and easy recovery of replication.
//!
//! The three functional modules of the paper's Figure 1 map one-to-one:
//!
//! * [`monitor`] — the **Workload Monitor**: classifies incoming data
//!   into file-system metadata, small files, large files (configurable
//!   1 MB threshold, §IV).
//! * [`evaluator`] — the **Cost & Performance Evaluator**: probes each
//!   provider's latency through the GCS-API, combines it with the price
//!   book, and derives the performance-/cost-oriented tiers of Figure 2.
//! * [`dispatcher`] — the **Request Dispatcher**: places replicas and
//!   erasure-coded fragments, serves reads (degraded reads during
//!   outages), performs RAID5 read-modify-write updates, and runs the
//!   two-phase outage recovery of §III-C (on-demand reconstruction +
//!   consistency update from the write log).
//!
//! Supporting modules: [`config`] (tunables with the paper's defaults),
//! [`scheme`] (the `Scheme` trait every Cloud-of-Clouds layout — HyRD and
//! the baselines — implements), [`recovery`] (the update log), [`driver`]
//! (workload replay, including the deterministic multi-client engine
//! `driver::multi_client` over a shared `&Hyrd`, and the open-loop
//! Poisson driver `driver::openloop`),
//! [`stats`] (latency statistics the figures report), [`engine`] (the
//! discrete-event fan-out scheduler behind every read: in-flight
//! operations on the virtual clock, per-provider queueing, hedged
//! requests with straggler cancellation; DESIGN.md §13).
//! Hardening modules: [`health`] (per-provider circuit breakers and fault
//! counters), [`integrity`] (client-side SHA-256 digests verified on
//! every whole-object read), [`scrub`] (the background sweep that finds
//! and repairs silent corruption). Crash-durability modules: [`journal`]
//! (the crash journal: mirrored recovery state plus per-operation
//! intents), [`bootstrap`] (the one loader of the namespace from stored
//! state, under both [`Hyrd::attach`] and [`Hyrd::restart`]), [`restart`]
//! ([`Hyrd::restart`] — rebuilding a client purely from persisted state)
//! and [`crashtest`] (the deterministic
//! crash-injection harness and durability auditor; see DESIGN.md §12).
//!
//! ## Quick start
//!
//! ```
//! use hyrd::prelude::*;
//!
//! // The paper's fleet: S3, Azure, Aliyun, Rackspace (simulated).
//! let clock = SimClock::new();
//! let fleet = Fleet::standard_four(clock.clone());
//! let mut hyrd = Hyrd::new(&fleet, HyrdConfig::default()).unwrap();
//!
//! // Small files are replicated, large files erasure-coded — same API.
//! hyrd.create_file("/docs/note.txt", &vec![7u8; 4 * 1024]).unwrap();
//! hyrd.create_file("/media/video.mp4", &vec![9u8; 3 * 1024 * 1024]).unwrap();
//!
//! // An outage takes a provider down; reads keep working (degraded).
//! fleet.by_name("Windows Azure").unwrap().force_down();
//! let (bytes, _report) = hyrd.read_file("/media/video.mp4").unwrap();
//! assert_eq!(bytes.len(), 3 * 1024 * 1024);
//! ```

pub mod bootstrap;
pub mod config;
pub mod crashtest;
pub mod dispatcher;
pub mod driver;
pub mod ecops;
pub mod engine;
pub mod evaluator;
pub mod fleet_list;
pub mod health;
pub mod integrity;
pub mod journal;
pub mod monitor;
pub mod observatory;
pub mod policy;
pub mod recovery;
pub mod restart;
pub mod scheme;
pub mod scrub;
pub mod stats;

pub use config::{CodeChoice, FragmentSelection, HedgeConfig, HyrdConfig, PolicyConfig};
pub use crashtest::{silence_crash_panics, ClientCrashed, CrashHarness};
pub use dispatcher::Hyrd;
pub use engine::HedgeStats;
pub use evaluator::{Evaluator, ProviderAssessment};
pub use fleet_list::{FleetList, MAX_FLEET};
pub use health::{BreakerSettings, BreakerState, FaultCounterSnapshot, HealthTracker};
pub use integrity::{IntegrityIndex, ObjectDigest, Verdict, DIGEST_BLOCK};
pub use journal::{FragWrite, Intent, Journal};
pub use monitor::{DataClass, WorkloadMonitor};
pub use observatory::{
    FileExposure, Observatory, ObservatoryReport, ProviderHealthView, SharedObservatory,
};
pub use policy::{MigrationKind, MigrationReport, PolicyEngine};
pub use recovery::{LogRecord, RecoveryReport, UpdateLog};
pub use restart::RestartReport;
pub use scheme::{Scheme, SchemeError, SchemeResult};
pub use scrub::ScrubReport;

/// Structured tracing and metrics ([`hyrd_telemetry`]), re-exported so
/// downstream crates need no direct dependency.
pub use hyrd_telemetry as telemetry;

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::config::{CodeChoice, FragmentSelection, HedgeConfig, HyrdConfig};
    pub use crate::dispatcher::Hyrd;
    pub use crate::driver::multi_client::{MultiClient, MultiClientOptions, MultiClientReport};
    pub use crate::driver::{replay, replay_sweep, ReplayOptions, ReplayStats};
    pub use crate::scheme::{Scheme, SchemeError};
    pub use hyrd_cloudsim::{Fleet, SimClock};
    pub use hyrd_gcsapi::{BatchReport, CloudStorage};
}
