//! The [`Scheme`] trait: one interface over every redundant data
//! distribution layout — HyRD itself and the baselines it is evaluated
//! against (RACS, DuraCloud, DepSky, single-cloud). The figure harness
//! replays identical workloads through `&mut dyn Scheme` and compares the
//! resulting [`BatchReport`]s.

use std::sync::Arc;

use bytes::Bytes;

use hyrd_gcsapi::{BatchReport, CloudError, ProviderId};
use hyrd_gfec::GfecError;
use hyrd_metastore::MetaError;

/// Errors surfaced by scheme operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeError {
    /// An underlying provider operation failed in a way the scheme could
    /// not mask (e.g. container missing).
    Cloud(CloudError),
    /// A metadata operation failed (bad path, missing file, …).
    Meta(MetaError),
    /// Erasure coding failed (programming or corruption error).
    Code(GfecError),
    /// Too many providers are unavailable to serve the request — the
    /// availability loss the paper's redundancy exists to prevent.
    DataUnavailable {
        /// The file concerned.
        path: String,
        /// What was missing.
        detail: String,
    },
    /// The requested byte range is outside the file.
    BadRange {
        /// The file concerned.
        path: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual size.
        size: u64,
    },
}

impl From<CloudError> for SchemeError {
    fn from(e: CloudError) -> Self {
        SchemeError::Cloud(e)
    }
}

impl From<MetaError> for SchemeError {
    fn from(e: MetaError) -> Self {
        SchemeError::Meta(e)
    }
}

impl From<GfecError> for SchemeError {
    fn from(e: GfecError) -> Self {
        SchemeError::Code(e)
    }
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Cloud(e) => write!(f, "cloud error: {e}"),
            SchemeError::Meta(e) => write!(f, "metadata error: {e}"),
            SchemeError::Code(e) => write!(f, "erasure-coding error: {e}"),
            SchemeError::DataUnavailable { path, detail } => {
                write!(f, "data unavailable for '{path}': {detail}")
            }
            SchemeError::BadRange { path, offset, len, size } => {
                write!(f, "range {offset}+{len} outside '{path}' ({size} bytes)")
            }
        }
    }
}

impl std::error::Error for SchemeError {
    /// Exposes the wrapped layer error so `anyhow`-style chain walking
    /// (and plain `{:#}` reporting) reaches the root cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemeError::Cloud(e) => Some(e),
            SchemeError::Meta(e) => Some(e),
            SchemeError::Code(e) => Some(e),
            SchemeError::DataUnavailable { .. } | SchemeError::BadRange { .. } => None,
        }
    }
}

/// Result alias for scheme operations.
pub type SchemeResult<T> = Result<T, SchemeError>;

/// Stable physical object name for a file path (FNV-1a 64, hex). Derived
/// from the *path* rather than a per-client counter so that independent
/// clients sharing one fleet never collide on unrelated files, and a
/// client attaching to an existing namespace regenerates the same names.
/// Made once, as the shared string every key and placement then holds.
pub fn object_name(path: &str) -> Arc<str> {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in path.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    shared_name(format_args!("o{h:016x}"))
}

/// The name of fragment `index` of the object `base` names.
pub fn fragment_name(base: &str, index: usize) -> Arc<str> {
    shared_name(format_args!("{base}.f{index}"))
}

/// The name of the hot copy of the object `base` names.
pub fn hot_copy_name(base: &str) -> Arc<str> {
    shared_name(format_args!("{base}.hot"))
}

/// `name` as a shared string in one allocation: formatted on the stack,
/// then copied once (a name past the stack buffer goes through a
/// `String`).
fn shared_name(name: std::fmt::Arguments<'_>) -> Arc<str> {
    use std::io::Write;
    let mut buf = [0u8; 64];
    let mut rest = &mut buf[..];
    if rest.write_fmt(name).is_ok() {
        let len = 64 - rest.len();
        return Arc::from(std::str::from_utf8(&buf[..len]).expect("formatted from str"));
    }
    Arc::from(name.to_string())
}

/// A Cloud-of-Clouds data distribution scheme.
///
/// All methods report what the operation cost via [`BatchReport`]
/// (user-perceived latency from the parallel/serial composition of the
/// underlying provider ops, plus bytes and op counts for the cost
/// accounting).
pub trait Scheme {
    /// Scheme name for reports ("HyRD", "RACS", …).
    fn name(&self) -> &str;

    /// Creates a file with the given contents.
    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport>;

    /// Reads a whole file.
    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)>;

    /// Overwrites `data.len()` bytes at `offset`.
    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport>;

    /// Deletes a file.
    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport>;

    /// Lists a directory (a metadata access — fetches the directory's
    /// metadata from the cloud, which is where schemes differ).
    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)>;

    /// Logical size of a file, if it exists.
    fn file_size(&self, path: &str) -> Option<u64>;

    /// Runs the consistency update for a provider that has returned from
    /// an outage (§III-C phase 2): replays missed writes and rebuilds
    /// dirtied fragments. Until this runs, a returned provider may hold
    /// stale or missing objects and must not be counted on for
    /// redundancy. Returns what recovery moved.
    fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(crate::recovery::RecoveryReport, BatchReport)>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_gcsapi::ProviderId;

    #[test]
    fn conversions_and_display() {
        let e: SchemeError = CloudError::Unavailable { provider: ProviderId(1) }.into();
        assert!(e.to_string().contains("provider#1"));
        let e: SchemeError = MetaError::NoSuchFile("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        let e: SchemeError = GfecError::SingularMatrix.into();
        assert!(e.to_string().contains("singular"));
        let e = SchemeError::DataUnavailable { path: "/f".into(), detail: "2 of 4 down".into() };
        assert!(e.to_string().contains("2 of 4 down"));
        let e = SchemeError::BadRange { path: "/f".into(), offset: 9, len: 5, size: 10 };
        assert!(e.to_string().contains("9+5"));
    }

    #[test]
    fn names_are_made_whole_at_any_length() {
        let base = object_name("/a/b");
        assert_eq!(base.len(), 17);
        assert!(base.starts_with('o'));
        assert_eq!(*fragment_name(&base, 3), format!("{base}.f3"));
        assert_eq!(*hot_copy_name(&base), format!("{base}.hot"));
        let long = "x".repeat(100);
        assert_eq!(*fragment_name(&long, 12), format!("{long}.f12"));
    }

    #[test]
    fn source_reaches_the_wrapped_layer_error() {
        use std::error::Error;
        let e: SchemeError = CloudError::Unavailable { provider: ProviderId(1) }.into();
        let src = e.source().expect("wrapped errors expose a source");
        assert!(src.to_string().contains("unavailable"));
        assert!(src.downcast_ref::<CloudError>().is_some());

        let e: SchemeError = MetaError::NoSuchFile("/x".into()).into();
        assert!(e.source().expect("meta source").downcast_ref::<MetaError>().is_some());

        let e = SchemeError::DataUnavailable { path: "/f".into(), detail: "d".into() };
        assert!(e.source().is_none(), "scheme-level verdicts have no deeper cause");
    }
}
