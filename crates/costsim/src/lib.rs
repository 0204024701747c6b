//! # hyrd-costsim — long-term cloud cost simulation
//!
//! The paper's cost analysis (§IV-B, Figure 4) replays a year of Internet
//! Archive traffic against Table II price plans: "it's assumed that the
//! cloud services start with an empty storage without any data being
//! preloaded". Replaying billions of individual requests is pointless for
//! a *billing* question — clouds bill on monthly aggregates — so this
//! crate works exactly the way the bill does:
//!
//! * [`usage`] — what one scheme consumed on one provider in one month
//!   (GB-months retained, bytes out, transactions by billing class), and
//!   its dollar cost under a [`hyrd_cloudsim::PriceBook`].
//! * [`model`] — one [`Layout`] value per scheme (replicas, an m-of-n
//!   stripe, or HyRD's threshold split of the two, each with the read
//!   rule its data path uses) and the one function that turns a month of
//!   trace traffic into per-provider usage. The integration tests check
//!   it against the executable schemes.
//! * [`report`] — [`price`]: a layout's monthly bill over the trace
//!   (Figure 4).
//! * [`availability`] — closed-form and simulated k-of-n availability.

pub mod availability;
pub mod model;
pub mod report;
pub mod usage;

pub use availability::{erasure_availability, hyrd_availability, nines, replication_availability};
pub use model::{Layout, ReadRule, Tier};
pub use report::{price, CostSeries};
pub use usage::MonthlyUsage;
