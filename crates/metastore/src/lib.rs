//! # hyrd-metastore — client-side file-system metadata
//!
//! HyRD sits on the client and presents a file-system view over the
//! Cloud-of-Clouds. "Before accessing a file, its metadata blocks must be
//! loaded into the client memory. HyRD uses replication to store the file
//! system metadata and groups the metadata in a directory together to
//! exploit the access locality" (§III-C).
//!
//! This crate owns that metadata model:
//!
//! * [`path`] — normalized absolute paths and parent/child arithmetic.
//! * [`inode`] — per-file metadata: size, version, timestamps and the
//!   *placement* record that says where the bytes physically live
//!   (replicas on providers, or erasure-coded fragments with their
//!   [`hyrd_gfec::FragmentLayout`]).
//! * [`codec`] — the per-directory [`MetadataBlock`], the replication
//!   unit the dispatcher ships to performance-oriented providers, and
//!   `HYM3`, the checksummed length-framed binary frame it travels in —
//!   the only block encoding this crate reads or writes.
//! * [`shard`] — the [`ShardedMetaStore`], the one namespace every
//!   scheme runs on (HyRD's dispatcher at 16 shards, the baselines at
//!   one): directories hash-partitioned into independently versioned
//!   shards with optimistic read-validate-commit mutations, dirty
//!   tracking, and change-detected incremental flushes that ship
//!   per-directory **state diffs** with periodic compaction back into
//!   full blocks.
//! * [`diff`] — the `HYD2` wire frame for those diffs and
//!   [`resolve_chain`], which folds a block + diff chain back into the
//!   directory's current state on restart/attach.

pub mod codec;
pub mod diff;
mod frame;
pub mod inode;
pub mod path;
pub mod shard;

pub use codec::MetadataBlock;
pub use diff::{resolve_chain, ChainResolution, DiffBlock, EntryOp};
pub use frame::BlockDelta;
pub use inode::{FileId, Inode, Placement};
pub use path::NormPath;
pub use shard::{DirEntry, FlushItem, FlushKind, MetaOccStats, ShardGauge, ShardedMetaStore};

/// Errors from the metadata layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// Path is not absolute or contains empty components.
    BadPath(String),
    /// A path component that must be a directory is a file.
    NotADirectory(String),
    /// The named directory does not exist.
    NoSuchDirectory(String),
    /// The named file does not exist.
    NoSuchFile(String),
    /// Target name already exists.
    AlreadyExists(String),
    /// A metadata block failed to parse.
    CorruptBlock(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::BadPath(p) => write!(f, "bad path: '{p}'"),
            MetaError::NotADirectory(p) => write!(f, "'{p}' is not a directory"),
            MetaError::NoSuchDirectory(p) => write!(f, "no such directory: '{p}'"),
            MetaError::NoSuchFile(p) => write!(f, "no such file: '{p}'"),
            MetaError::AlreadyExists(p) => write!(f, "'{p}' already exists"),
            MetaError::CorruptBlock(e) => write!(f, "corrupt metadata block: {e}"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MetaError>;
