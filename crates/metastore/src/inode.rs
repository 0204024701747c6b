//! File metadata records and physical placement descriptors.

use std::sync::Arc;
use std::time::Duration;

use hyrd_gcsapi::ProviderId;
use hyrd_gfec::FragmentLayout;

/// Stable file identifier, unique within one [`crate::ShardedMetaStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Where a file's bytes physically live in the Cloud-of-Clouds.
///
/// Object names are shared strings, made once when the object is named:
/// an object key, a recovery record or a request's copy of the placement
/// shares the name instead of copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Not yet dispatched (metadata exists, data write pending).
    Pending,
    /// Full copies on each listed provider under the given object name —
    /// the small-file tier.
    Replicated {
        /// Providers holding a complete copy.
        providers: Vec<ProviderId>,
        /// Object name common to all replicas.
        object: Arc<str>,
    },
    /// Erasure-coded fragments — the large-file tier. `fragments[i]` is
    /// the provider holding code fragment `i` and its object name.
    ErasureCoded {
        /// The code geometry needed to decode.
        layout: FragmentLayout,
        /// Per-fragment location: `(provider, object_name)`.
        fragments: Vec<(ProviderId, Arc<str>)>,
        /// Optional whole-object cache on a performance-oriented
        /// provider — Figure 2's "frequently accessed large files are
        /// also placed in performance-oriented providers".
        hot_copy: Option<(ProviderId, Arc<str>)>,
    },
}

impl Placement {
    /// Providers involved in this placement (with duplicates removed).
    pub fn providers(&self) -> Vec<ProviderId> {
        let mut v = match self {
            Placement::Pending => Vec::new(),
            Placement::Replicated { providers, .. } => providers.clone(),
            Placement::ErasureCoded { fragments, hot_copy, .. } => {
                let mut v: Vec<ProviderId> = fragments.iter().map(|(p, _)| *p).collect();
                if let Some((p, _)) = hot_copy {
                    v.push(*p);
                }
                v
            }
        };
        v.sort();
        v.dedup();
        v
    }

    /// Every physical object of this placement with the provider that
    /// holds it: each replica, or each fragment and then the hot copy.
    pub fn objects(&self) -> impl Iterator<Item = (ProviderId, &Arc<str>)> {
        let (replicas, fragments, hot_copy) = match self {
            Placement::Pending => (None, &[][..], None),
            Placement::Replicated { providers, object } => {
                (Some((providers, object)), &[][..], None)
            }
            Placement::ErasureCoded { fragments, hot_copy, .. } => {
                (None, &fragments[..], hot_copy.as_ref())
            }
        };
        let replicas = replicas
            .into_iter()
            .flat_map(|(providers, object)| providers.iter().map(move |&p| (p, object)));
        replicas.chain(fragments.iter().chain(hot_copy).map(|(p, name)| (*p, name)))
    }

    /// Number of provider outages this placement survives while staying
    /// readable (replication: replicas−1; erasure code: n−m; pending: 0).
    pub fn fault_tolerance(&self) -> usize {
        match self {
            Placement::Pending => 0,
            Placement::Replicated { providers, .. } => providers.len().saturating_sub(1),
            Placement::ErasureCoded { layout, .. } => layout.n - layout.m,
        }
    }

    /// Physical bytes this placement stores for a file of `size` bytes.
    pub fn stored_bytes(&self, size: u64) -> u64 {
        match self {
            Placement::Pending => 0,
            Placement::Replicated { providers, .. } => size * providers.len() as u64,
            Placement::ErasureCoded { layout, hot_copy, .. } => {
                layout.stored_bytes() as u64 + if hot_copy.is_some() { size } else { 0 }
            }
        }
    }
}

/// Per-file metadata. This is what a metadata block replicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Stable id.
    pub id: FileId,
    /// Logical size in bytes.
    pub size: u64,
    /// Physical placement.
    pub placement: Placement,
    /// Monotone version, bumped on every data or placement change — the
    /// consistency-update protocol compares these after an outage.
    pub version: u64,
    /// Virtual creation time.
    pub created: Duration,
    /// Virtual last-modification time.
    pub modified: Duration,
}

impl Inode {
    /// A fresh inode with pending placement.
    pub fn new(id: FileId, size: u64, now: Duration) -> Self {
        Inode { id, size, placement: Placement::Pending, version: 0, created: now, modified: now }
    }

    /// Records a data/placement change at virtual time `now`.
    pub fn touch(&mut self, now: Duration) {
        self.version += 1;
        self.modified = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ec_placement() -> Placement {
        Placement::ErasureCoded {
            layout: FragmentLayout { object_len: 1000, m: 3, n: 4, shard_len: 384 },
            fragments: (0..4).map(|i| (ProviderId(i), format!("f{i}").into())).collect(),
            hot_copy: None,
        }
    }

    #[test]
    fn providers_deduped_and_sorted() {
        let p = Placement::Replicated {
            providers: vec![ProviderId(2), ProviderId(0), ProviderId(2)],
            object: "o".into(),
        };
        assert_eq!(p.providers(), vec![ProviderId(0), ProviderId(2)]);
        assert_eq!(ec_placement().providers().len(), 4);
        assert!(Placement::Pending.providers().is_empty());
    }

    #[test]
    fn objects_lists_every_copy_with_its_holder() {
        let r2 = Placement::Replicated {
            providers: vec![ProviderId(2), ProviderId(0)],
            object: "o".into(),
        };
        let listed: Vec<(ProviderId, &str)> = r2.objects().map(|(p, name)| (p, &**name)).collect();
        assert_eq!(listed, [(ProviderId(2), "o"), (ProviderId(0), "o")]);
        let Placement::ErasureCoded { layout, fragments, .. } = ec_placement() else {
            unreachable!("built erasure-coded");
        };
        let hot = Placement::ErasureCoded {
            layout,
            fragments,
            hot_copy: Some((ProviderId(9), "o.hot".into())),
        };
        let names: Vec<&str> = hot.objects().map(|(_, name)| &**name).collect();
        assert_eq!(names, ["f0", "f1", "f2", "f3", "o.hot"]);
        assert_eq!(hot.objects().last(), Some((ProviderId(9), &Arc::from("o.hot"))));
        assert_eq!(Placement::Pending.objects().count(), 0);
    }

    #[test]
    fn fault_tolerance_by_scheme() {
        let r2 = Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId(1)],
            object: "o".into(),
        };
        assert_eq!(r2.fault_tolerance(), 1);
        assert_eq!(ec_placement().fault_tolerance(), 1);
        assert_eq!(Placement::Pending.fault_tolerance(), 0);
    }

    #[test]
    fn stored_bytes_reflects_redundancy() {
        let r2 = Placement::Replicated {
            providers: vec![ProviderId(0), ProviderId(1)],
            object: "o".into(),
        };
        assert_eq!(r2.stored_bytes(1000), 2000);
        // 4 fragments x 384 B.
        assert_eq!(ec_placement().stored_bytes(1000), 4 * 384);
    }

    #[test]
    fn touch_bumps_version_and_mtime() {
        let mut i = Inode::new(FileId(1), 10, Duration::from_secs(5));
        assert_eq!(i.version, 0);
        i.touch(Duration::from_secs(9));
        assert_eq!(i.version, 1);
        assert_eq!(i.modified, Duration::from_secs(9));
        assert_eq!(i.created, Duration::from_secs(5));
    }
}
