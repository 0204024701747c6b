//! # hyrd-gcsapi — the General Cloud Storage API middleware
//!
//! The paper (§III-D): *"To interact with multiple cloud storage
//! providers, we have implemented a middleware of general cloud storage
//! API, short for GCS-API. The GCS-API middleware hides the complexity of
//! the cloud storage providers at the system level."*
//!
//! Each provider is a **passive storage functional entity** supporting
//! exactly five functions — List, Get, Create, Put, Remove — expressed
//! here as the [`CloudStorage`] trait. Every operation returns an
//! [`OpReport`] describing what it cost (latency, bytes moved, op class),
//! which is how the cost simulator and the latency experiments observe
//! the system without the providers knowing anything about HyRD.
//!
//! * [`types`] — provider ids, object keys, op kinds, op reports.
//! * [`error`] — the error taxonomy (`Unavailable` is what a cloud outage
//!   looks like to a client).
//! * [`storage`] — the [`CloudStorage`] trait plus an in-memory reference
//!   implementation used by unit tests.
//! * [`instrument`] — per-op statistics (op counts, bytes, latency):
//!   every simulated provider's tally, read by the experiments and the
//!   perf ledger.
//! * [`retry`] — bounded retry policy for transient failures: capped
//!   exponential backoff with deterministic jitter and a deadline budget.
//! * [`sync`] — the poison-recovering `lock` / `read` / `write` every
//!   `std::sync` lock in the stack is taken through.
//! * [`compose`] — virtual-time composition of op reports: parallel
//!   fan-out takes the max of branch latencies, serial rounds sum.

pub mod compose;
pub mod error;
pub mod instrument;
pub mod retry;
pub mod storage;
pub mod sync;
pub mod types;

pub use compose::{parallel_latency, serial_latency, BatchReport};
pub use error::{CloudError, CloudResult};
pub use instrument::StatsSnapshot;
pub use retry::{RetryError, RetryPolicy};
pub use storage::{CloudStorage, MemoryCloud};
pub use types::{ObjectKey, OpKind, OpOutcome, OpReport, ProviderId};
