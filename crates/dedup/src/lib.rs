//! # hyrd-dedup — client-side deduplication for the Cloud-of-Clouds
//!
//! The paper's §VI names this as the first future-work direction: "we
//! will apply data deduplication in the HyRD module to eliminate the
//! redundant data and reduce the total data transferred over the
//! network, thus further improving the performance and cost efficiency."
//! It also names the constraint: "data deduplication requires powerful
//! computing resources and extra memory space while HyRD is located in
//! the client side."
//!
//! This crate is that module, built to the constraint:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 for chunk
//!   fingerprints and the integrity index, with runtime-dispatched fast
//!   kernels: x86 SHA-NI and a fully-unrolled scalar compress for one
//!   stream, and [`sha256::block_digests`] — sixteen independent
//!   equal-length blocks at a time in AVX-512 lanes — for the per-block
//!   digests of a whole object. The original straightforward
//!   implementation lives on as the test oracle (`tests/oracle/`, not in
//!   the library); every path is verified bit-identical against it and
//!   the standard test vectors.
//! * [`chunker`] — FastCDC-style content-defined chunking with a gear
//!   hash: boundaries follow content, so an insertion early in a file
//!   shifts chunk boundaries only locally and the rest of the file still
//!   dedups.
//! * [`index`] — the in-memory fingerprint index with reference counts —
//!   the "extra memory space" §VI warns about, measured and bounded.
//!
//! The `Scheme`-coupled store built on these primitives (files become
//! chunk manifests; unique chunks are stored once under the scheme's own
//! redundancy policy) lives in `hyrd::dedupstore` — this crate stays a
//! leaf so core's integrity/scrub paths can use the hash kernels without
//! a package cycle.

pub mod chunker;
pub mod index;
pub mod sha256;

pub use chunker::{Chunk, Chunker, ChunkerConfig};
pub use index::{ChunkIndex, Fingerprint};
