//! # hyrd-dedup — the hash kernels HyRD's integrity checks run on
//!
//! [`blake3`] is a from-scratch BLAKE3 whose [`blake3::subtree_cvs`]
//! computes the per-4-KiB-block values of an object's digest table —
//! sixteen, eight or four chunks side by side in AVX-512, AVX2 or SSE4.1
//! lanes where the CPU has them. `hyrd::integrity` records and verifies
//! object digests with it. [`sha256`] is a from-scratch FIPS 180-4
//! SHA-256 (SHA-NI and a scalar kernel); the perf ledger (`hyrd-perf`)
//! still times it in its `dedup.sha256_*` probes. Both are checked
//! against their standard test vectors on every kernel; SHA-256 also
//! against the seed's straightforward implementation (`tests/oracle/`,
//! not in the library).
//!
//! The crate keeps its name from the §VI deduplication extension it was
//! written for (chunking, a fingerprint index and a dedup store over any
//! `Scheme`). No figure of the paper reports deduplication — §VI names
//! it as future work — so that extension is gone and the hash kernels
//! are what is left. It is a leaf crate, so core depends on it without
//! a package cycle.

pub mod blake3;
pub mod sha256;
