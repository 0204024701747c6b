//! The [`CloudStorage`] trait — the paper's five-function passive storage
//! entity — and [`MemoryCloud`], a zero-latency in-memory implementation
//! used as the reference semantics for conformance tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use std::sync::RwLock;

use crate::sync::{read, write};

use crate::error::{CloudError, CloudResult};
use crate::types::{ObjectKey, OpKind, OpOutcome, OpReport, ProviderId};

/// A cloud storage provider as seen through the GCS-API middleware.
///
/// The trait is deliberately minimal and synchronous: the paper models
/// providers as passive entities reachable over REST, and HyRD composes
/// parallelism *above* this interface (see [`crate::compose`]). All
/// methods take `&self`; implementations use interior mutability so a
/// provider can be shared across scheme components.
pub trait CloudStorage: Send + Sync {
    /// Stable identity of this provider within the fleet.
    fn id(&self) -> ProviderId;

    /// Human-readable provider name ("Amazon S3", …).
    fn name(&self) -> &str;

    /// Creates a container.
    fn create(&self, container: &str) -> CloudResult<OpOutcome<()>>;

    /// Writes or replaces an object.
    fn put(&self, key: &ObjectKey, data: Bytes) -> CloudResult<OpOutcome<()>>;

    /// Reads an object.
    fn get(&self, key: &ObjectKey) -> CloudResult<OpOutcome<Bytes>>;

    /// Lists object names in a container (sorted).
    fn list(&self, container: &str) -> CloudResult<OpOutcome<Vec<String>>>;

    /// Deletes an object. Deleting a missing object is an error, matching
    /// strict REST semantics.
    fn remove(&self, key: &ObjectKey) -> CloudResult<OpOutcome<()>>;

    /// Reads `len` bytes at `offset` (HTTP `Range` header). Only the
    /// requested bytes are transferred/billed. The default implementation
    /// fetches the whole object and slices — providers with native range
    /// support override it.
    fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> CloudResult<OpOutcome<Bytes>> {
        let out = self.get(key)?;
        let end = ((offset + len) as usize).min(out.value.len());
        let start = (offset as usize).min(end);
        Ok(OpOutcome::new(out.value.slice(start..end), out.report))
    }

    /// Overwrites `data.len()` bytes at `offset` within an existing
    /// object (the "modifies a file" half of the paper's Put function).
    /// Only the written bytes are transferred/billed. The default
    /// implementation performs a whole-object read-modify-write.
    fn put_range(&self, key: &ObjectKey, offset: u64, data: Bytes) -> CloudResult<OpOutcome<()>> {
        let old = self.get(key)?;
        let mut content = old.value.to_vec();
        let end = offset as usize + data.len();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[offset as usize..end].copy_from_slice(&data);
        self.put(key, Bytes::from(content))
    }

    /// Whether the provider currently answers requests. Defaults to true;
    /// simulated providers override this during outage windows.
    fn is_available(&self) -> bool {
        true
    }
}

/// In-memory reference implementation with zero latency and exact REST
/// semantics. The simulator (`hyrd-cloudsim`) wraps the same map behind a
/// latency/pricing model; unit tests use this directly.
pub struct MemoryCloud {
    id: ProviderId,
    name: String,
    containers: RwLock<BTreeMap<String, BTreeMap<Arc<str>, Bytes>>>,
}

impl MemoryCloud {
    /// Creates an empty in-memory provider.
    pub fn new(id: ProviderId, name: impl Into<String>) -> Self {
        MemoryCloud { id, name: name.into(), containers: RwLock::new(BTreeMap::new()) }
    }

    /// Total bytes currently stored, for space-overhead assertions.
    pub fn stored_bytes(&self) -> u64 {
        read(&self.containers).values().flat_map(|c| c.values()).map(|b| b.len() as u64).sum()
    }

    /// Number of objects stored across all containers.
    pub fn object_count(&self) -> usize {
        read(&self.containers).values().map(|c| c.len()).sum()
    }

    fn report(&self, kind: OpKind, bytes_in: u64, bytes_out: u64) -> OpReport {
        OpReport {
            provider: self.id,
            kind,
            latency: std::time::Duration::ZERO,
            bytes_in,
            bytes_out,
        }
    }
}

impl CloudStorage for MemoryCloud {
    fn id(&self) -> ProviderId {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, container: &str) -> CloudResult<OpOutcome<()>> {
        let mut c = write(&self.containers);
        if c.contains_key(container) {
            return Err(CloudError::ContainerExists { container: container.to_string() });
        }
        c.insert(container.to_string(), BTreeMap::new());
        Ok(OpOutcome::new((), self.report(OpKind::Create, 0, 0)))
    }

    fn put(&self, key: &ObjectKey, data: Bytes) -> CloudResult<OpOutcome<()>> {
        let mut c = write(&self.containers);
        let container = c
            .get_mut(&*key.container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: key.container.to_string() })?;
        let len = data.len() as u64;
        container.insert(key.name.clone(), data);
        Ok(OpOutcome::new((), self.report(OpKind::Put, len, 0)))
    }

    fn get(&self, key: &ObjectKey) -> CloudResult<OpOutcome<Bytes>> {
        let c = read(&self.containers);
        let container = c
            .get(&*key.container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: key.container.to_string() })?;
        let data = container
            .get(&*key.name)
            .cloned()
            .ok_or_else(|| CloudError::NoSuchObject { key: key.clone() })?;
        let len = data.len() as u64;
        Ok(OpOutcome::new(data, self.report(OpKind::Get, 0, len)))
    }

    fn list(&self, container: &str) -> CloudResult<OpOutcome<Vec<String>>> {
        let c = read(&self.containers);
        let cont = c
            .get(container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: container.to_string() })?;
        let names: Vec<String> = cont.keys().map(|name| name.to_string()).collect();
        Ok(OpOutcome::new(names, self.report(OpKind::List, 0, 0)))
    }

    fn remove(&self, key: &ObjectKey) -> CloudResult<OpOutcome<()>> {
        let mut c = write(&self.containers);
        let container = c
            .get_mut(&*key.container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: key.container.to_string() })?;
        container
            .remove(&*key.name)
            .ok_or_else(|| CloudError::NoSuchObject { key: key.clone() })?;
        Ok(OpOutcome::new((), self.report(OpKind::Remove, 0, 0)))
    }

    fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> CloudResult<OpOutcome<Bytes>> {
        let c = read(&self.containers);
        let container = c
            .get(&*key.container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: key.container.to_string() })?;
        let data = container
            .get(&*key.name)
            .ok_or_else(|| CloudError::NoSuchObject { key: key.clone() })?;
        let end = ((offset + len) as usize).min(data.len());
        let start = (offset as usize).min(end);
        let slice = data.slice(start..end);
        let n = slice.len() as u64;
        Ok(OpOutcome::new(slice, self.report(OpKind::Get, 0, n)))
    }

    fn put_range(&self, key: &ObjectKey, offset: u64, data: Bytes) -> CloudResult<OpOutcome<()>> {
        let mut c = write(&self.containers);
        let container = c
            .get_mut(&*key.container)
            .ok_or_else(|| CloudError::NoSuchContainer { container: key.container.to_string() })?;
        let existing = container
            .get_mut(&*key.name)
            .ok_or_else(|| CloudError::NoSuchObject { key: key.clone() })?;
        let mut content = existing.to_vec();
        let end = offset as usize + data.len();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[offset as usize..end].copy_from_slice(&data);
        *existing = Bytes::from(content);
        Ok(OpOutcome::new((), self.report(OpKind::Put, data.len() as u64, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> MemoryCloud {
        let c = MemoryCloud::new(ProviderId(0), "mem");
        c.create("data").unwrap();
        c
    }

    #[test]
    fn put_get_roundtrip() {
        let c = cloud();
        let key = ObjectKey::new("data", "hello");
        c.put(&key, Bytes::from_static(b"world")).unwrap();
        let got = c.get(&key).unwrap();
        assert_eq!(&got.value[..], b"world");
        assert_eq!(got.report.bytes_out, 5);
        assert_eq!(got.report.kind, OpKind::Get);
    }

    #[test]
    fn put_overwrites() {
        let c = cloud();
        let key = ObjectKey::new("data", "k");
        c.put(&key, Bytes::from_static(b"v1")).unwrap();
        c.put(&key, Bytes::from_static(b"longer-v2")).unwrap();
        assert_eq!(&c.get(&key).unwrap().value[..], b"longer-v2");
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.stored_bytes(), 9);
    }

    #[test]
    fn list_is_sorted_and_scoped() {
        let c = cloud();
        c.create("other").unwrap();
        for name in ["zeta", "alpha", "mid"] {
            c.put(&ObjectKey::new("data", name), Bytes::new()).unwrap();
        }
        c.put(&ObjectKey::new("other", "elsewhere"), Bytes::new()).unwrap();
        let names = c.list("data").unwrap().value;
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn remove_then_get_fails() {
        let c = cloud();
        let key = ObjectKey::new("data", "gone");
        c.put(&key, Bytes::from_static(b"x")).unwrap();
        c.remove(&key).unwrap();
        assert!(matches!(c.get(&key), Err(CloudError::NoSuchObject { .. })));
        assert!(matches!(c.remove(&key), Err(CloudError::NoSuchObject { .. })));
    }

    #[test]
    fn missing_container_errors() {
        let c = MemoryCloud::new(ProviderId(1), "empty");
        let key = ObjectKey::new("nope", "k");
        assert!(matches!(c.get(&key), Err(CloudError::NoSuchContainer { .. })));
        assert!(matches!(c.put(&key, Bytes::new()), Err(CloudError::NoSuchContainer { .. })));
        assert!(matches!(c.list("nope"), Err(CloudError::NoSuchContainer { .. })));
    }

    #[test]
    fn duplicate_create_errors() {
        let c = cloud();
        assert!(matches!(c.create("data"), Err(CloudError::ContainerExists { .. })));
    }

    #[test]
    fn put_reports_ingress_bytes() {
        let c = cloud();
        let out = c.put(&ObjectKey::new("data", "k"), Bytes::from(vec![0u8; 1234])).unwrap();
        assert_eq!(out.report.bytes_in, 1234);
        assert_eq!(out.report.bytes_out, 0);
    }

    #[test]
    fn default_availability_is_up() {
        assert!(cloud().is_available());
    }
}
