//! # hyrd-dedup — the SHA-256 kernels HyRD's integrity checks run on
//!
//! [`sha256`] is a from-scratch FIPS 180-4 SHA-256 with runtime-dispatched
//! kernels: x86 SHA-NI and a fully-unrolled scalar compress for one
//! stream, and [`sha256::block_digests`] — sixteen independent
//! equal-length blocks at a time in AVX-512 lanes — for the per-block
//! digests of a whole object. `hyrd::integrity` records and verifies
//! object digests with it, and the perf ledger (`hyrd-perf`) times it.
//! The original straightforward implementation lives on as the test
//! oracle (`tests/oracle/`, not in the library); every path is verified
//! bit-identical against it and the standard test vectors.
//!
//! The crate keeps its name from the §VI deduplication extension it was
//! written for (chunking, a fingerprint index and a dedup store over any
//! `Scheme`). No figure of the paper reports deduplication — §VI names
//! it as future work — so that extension is gone and the hash kernels
//! are what is left. It is a leaf crate, so core depends on it without
//! a package cycle.

pub mod sha256;
