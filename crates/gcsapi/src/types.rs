//! Core vocabulary of the GCS-API: who (provider), what (object key),
//! which op, and what it cost.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

/// Identifies one cloud storage provider within a fleet. Cheap to copy;
/// the human-readable name lives on the provider object itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub u16);

impl std::fmt::Display for ProviderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "provider#{}", self.0)
    }
}

/// Fully-qualified object name: container plus object name, mirroring the
/// bucket/key model every RESTful object store exposes.
///
/// Both parts are shared immutable strings, so a clone allocates
/// nothing: a container is almost always a `'static` constant, and a name
/// is allocated once, when the key is built, then kept by reference count
/// by whatever holds on to the object — the recovery log, a provider's
/// store, the integrity index. `Eq`, `Ord`, `Hash`, `Debug` and `Display`
/// are those of the `(container, name)` string pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Container (bucket) name.
    pub container: Cow<'static, str>,
    /// Object name within the container.
    pub name: Arc<str>,
}

impl ObjectKey {
    /// Builds a key from a container — a `'static` string is borrowed,
    /// an owned one kept — and a name, copied once into a shared string.
    pub fn new(container: impl Into<Cow<'static, str>>, name: impl AsRef<str>) -> Self {
        ObjectKey::shared(container, Arc::from(name.as_ref()))
    }

    /// Builds a key over a name that is already shared: no copy.
    pub fn shared(container: impl Into<Cow<'static, str>>, name: Arc<str>) -> Self {
        ObjectKey { container: container.into(), name }
    }
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.container, self.name)
    }
}

/// The five functions of the paper's passive storage entity, plus the
/// transaction class each maps to in Table II's price sheet:
/// Put/Copy/Post/List are billed together ("3Ps + List"), Get and
/// everything else are billed as "Get and others".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Lists the objects of a container.
    List,
    /// Reads an object.
    Get,
    /// Creates a container.
    Create,
    /// Writes or modifies an object in a container.
    Put,
    /// Deletes an object.
    Remove,
}

impl OpKind {
    /// Whether Table II bills this op in the Put/Copy/Post/List class
    /// (the expensive class on Amazon S3).
    pub fn is_put_class(self) -> bool {
        matches!(self, OpKind::Put | OpKind::Create | OpKind::List)
    }

    /// All op kinds, for exhaustive iteration in stats tables.
    pub const ALL: [OpKind; 5] =
        [OpKind::List, OpKind::Get, OpKind::Create, OpKind::Put, OpKind::Remove];

    /// The kind's name, as `Display` prints it.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::List => "List",
            OpKind::Get => "Get",
            OpKind::Create => "Create",
            OpKind::Put => "Put",
            OpKind::Remove => "Remove",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one operation cost: the observable every experiment in the paper
/// is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpReport {
    /// Which provider served the op.
    pub provider: ProviderId,
    /// Operation class.
    pub kind: OpKind,
    /// Wall latency of the op. In simulation this is virtual time; in the
    /// real-thread mode it is measured.
    pub latency: Duration,
    /// Bytes uploaded to the provider (data-in; free on all of Table II).
    pub bytes_in: u64,
    /// Bytes downloaded from the provider (data-out; billed on S3/Aliyun).
    pub bytes_out: u64,
}

impl OpReport {
    /// A zero-cost report stub, useful for ops resolved from local state.
    pub fn free(provider: ProviderId, kind: OpKind) -> Self {
        OpReport { provider, kind, latency: Duration::ZERO, bytes_in: 0, bytes_out: 0 }
    }
}

/// An operation result paired with its cost report.
#[derive(Debug, Clone)]
pub struct OpOutcome<T> {
    /// The operation's value (object bytes for Get, listing for List, …).
    pub value: T,
    /// What the operation cost.
    pub report: OpReport,
}

impl<T> OpOutcome<T> {
    /// Pairs a value with its report.
    pub fn new(value: T, report: OpReport) -> Self {
        OpOutcome { value, report }
    }

    /// Maps the value, preserving the report.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> OpOutcome<U> {
        OpOutcome { value: f(self.value), report: self.report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_billing_classes_match_table2() {
        assert!(OpKind::Put.is_put_class());
        assert!(OpKind::Create.is_put_class());
        assert!(OpKind::List.is_put_class());
        assert!(!OpKind::Get.is_put_class());
        assert!(!OpKind::Remove.is_put_class());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProviderId(3).to_string(), "provider#3");
        assert_eq!(ObjectKey::new("bucket", "a/b.txt").to_string(), "bucket/a/b.txt");
        assert_eq!(OpKind::Put.to_string(), "Put");
    }

    #[test]
    fn outcome_map_preserves_report() {
        let r = OpReport::free(ProviderId(1), OpKind::Get);
        let o = OpOutcome::new(41u32, r).map(|v| v + 1);
        assert_eq!(o.value, 42);
        assert_eq!(o.report.provider, ProviderId(1));
    }

    #[test]
    fn all_kinds_is_exhaustive() {
        assert_eq!(OpKind::ALL.len(), 5);
        let mut set = std::collections::HashSet::new();
        for k in OpKind::ALL {
            set.insert(format!("{k}"));
        }
        assert_eq!(set.len(), 5);
    }
}
