//! `hyrd-perf`: the two-clock benchmark every HyRD perf claim is measured
//! with. See `README.md` for the workloads, the metric tables and the
//! measurement protocol; `src/main.rs` is the command.

pub mod alloc;
pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod tap;
pub mod workloads;
