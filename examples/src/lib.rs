//! Runnable examples for the HyRD Cloud-of-Clouds library; see the
//! `[[bin]]` entries in this package's Cargo.toml:
//!
//! * `quickstart` — hybrid placement, an outage, and recovery in 60 lines.
//! * `digital_library` — the paper's motivating scenario: latency and the
//!   yearly bill across schemes.
//! * `outage_drill` — a scripted incident with scheduled outage windows
//!   and a bytewise audit.
