//! # hyrd-workloads — workload generation for the HyRD experiments
//!
//! Three generators, each a from-scratch implementation of what the paper
//! used:
//!
//! * [`filesize`] — file-size distributions calibrated to the two facts
//!   the paper's design argument rests on (Agrawal et al., FAST'07 /
//!   §II-B): more than half of all files are ≤ 4 KB, while files in the
//!   3–9 MB band carry ~80 % of all bytes.
//! * [`postmark`] — a PostMark-compatible transaction engine (file pool,
//!   create/read/append/delete transaction mix, seeded), standing in for
//!   the NetApp binary the paper drives its latency experiments with.
//! * [`ia_trace`] — a 12-month synthetic Internet Archive trace with the
//!   aggregate statistics Figure 3 reports: read:write volume 2.1:1 and
//!   read:write request count 3.5:1, TB-scale monthly volumes with
//!   seasonal variation.
//! * [`openloop`] — an open-loop Poisson arrival stream for tail-latency
//!   experiments: offered load (not completion of the previous request)
//!   decides when the next request fires, so p99/p999 reflect queueing
//!   and stragglers instead of being hidden by closed-loop self-throttling.
//! * [`zipf`] — a Zipf-skewed popularity stream for the adaptive
//!   redundancy-policy experiments: the hottest ranks are erasure-coded
//!   large files (promotion bait), the cold tail holds sizable
//!   replicated files (demotion bait).
//! * [`rng`] — the one generator all of the above (and the rest of the
//!   workspace) draw from: xoshiro256++ seeded through splitmix64.
//!
//! Everything is deterministic given a seed, so every figure regenerates
//! bit-identically.

pub mod filesize;
pub mod ia_trace;
pub mod openloop;
pub mod ops;
pub mod postmark;
pub mod rng;
pub mod zipf;

pub use filesize::{FileSizeDist, SizeMixSummary};
pub use ia_trace::{IaTrace, MonthTraffic};
pub use openloop::{Arrival, OpenLoop, OpenLoopConfig};
pub use ops::FsOp;
pub use postmark::{PostMark, PostMarkConfig, PostMarkReport};
pub use zipf::{ZipfConfig, ZipfPopularity, ZipfWorkload};
