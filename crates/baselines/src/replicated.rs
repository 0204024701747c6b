//! The replicated baselines: a full copy of every object — files and
//! metadata blocks alike — on each target provider. Single-cloud,
//! DuraCloud and DepSky are one data path over a layout of three fields:
//!
//! * **targets** — the providers holding a copy, primary first;
//! * **write rule** — how a write round composes (`WriteRule`);
//! * **read rule** — which copy serves a read (`ReadRule`).
//!
//! | scheme | targets | write | read |
//! |---|---|---|---|
//! | [`Replicated::single_cloud`] | one provider | parallel (`k = n = 1`) | primary first |
//! | [`Replicated::duracloud`] | a pair, S3 + Azure by default | serial | primary first |
//! | [`Replicated::depsky`] | the whole fleet | acked at `n / 2 + 1` | fastest first |
//!
//! **Single cloud.** Figure 4a/4b report its cost for each of the four
//! providers; Figure 6 normalizes every scheme to the Amazon S3 instance.
//! Its availability is exactly the provider's: one outage and every
//! operation fails, which is the problem statement of the paper.
//!
//! **DuraCloud.** "DuraCloud utilizes replication to copy user content
//! onto several different cloud storage providers … Moreover, it ensures
//! that all copies of user content remain synchronized" (§V). The
//! synchronization is the serial write rule (primary copy, then sync to
//! the secondary), which is what produces the paper's Figure 6
//! observation that DuraCloud gets *faster* during an outage — "no double
//! writes or updates are performed". Reads go to the primary: users work
//! against their primary store and the mirror serves only when the
//! primary is unreachable, so an outage of the secondary leaves reads
//! unchanged and makes writes faster (single copy).
//!
//! **DepSky.** "DEPSKY improves the availability and confidentiality of
//! commercial storage cloud services by building a cloud-of-clouds on top
//! of a set of storage clouds, combining Byzantine quorum system
//! protocols, cryptographic secret sharing, replication and the diversity
//! provided by the use of several cloud providers" (§V). This keeps the
//! availability machinery of DepSky-A — full replicas on all `n`
//! providers, writes acknowledged by a majority quorum, reads served by
//! the fastest replica — and omits the confidentiality layer (secret
//! sharing / DepSky-CA), which none of the paper's experiments exercise.

use std::sync::Arc;

use bytes::Bytes;

use hyrd::dispatcher::SmallFileCache;
use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use crate::common::{self, SchemeCore, Write, WriteRule};

/// Which copy serves a read; the others are tried in order behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadRule {
    /// The targets in layout order.
    PrimaryFirst,
    /// The targets by calibrated expected latency, fastest first.
    FastestFirst,
}

/// Full replication on a fixed target set.
pub struct Replicated {
    pub(crate) core: SchemeCore,
    /// Write-through copy of recent file contents, so an update needs no
    /// read round when the client produced the data.
    pub(crate) cache: SmallFileCache,
    name: String,
    /// The providers holding a copy of every object, primary first.
    targets: Vec<Arc<SimProvider>>,
    write: WriteRule,
    read: ReadRule,
}

/// The content cache's budget.
const CACHE_BYTES: usize = 512 << 20;

/// A constructor's refusal: the fleet lacks what the layout names.
fn refused(detail: String) -> SchemeError {
    SchemeError::DataUnavailable { path: String::new(), detail }
}

fn unavailable(path: &str, detail: &str) -> SchemeError {
    SchemeError::DataUnavailable { path: path.to_string(), detail: detail.to_string() }
}

fn member(fleet: &Fleet, id: ProviderId) -> SchemeResult<Arc<SimProvider>> {
    fleet.get(id).cloned().ok_or_else(|| refused(format!("{id} not in fleet")))
}

fn named(fleet: &Fleet, name: &str) -> SchemeResult<ProviderId> {
    fleet.by_name(name).map(|p| p.id()).ok_or_else(|| refused(format!("fleet has no {name}")))
}

impl Replicated {
    fn new(
        fleet: &Fleet,
        name: &str,
        targets: Vec<Arc<SimProvider>>,
        write: WriteRule,
        read: ReadRule,
    ) -> Self {
        let name = name.to_string();
        let (core, cache) = (SchemeCore::new(fleet), SmallFileCache::new(CACHE_BYTES));
        Replicated { core, cache, name, targets, write, read }
    }

    /// Single cloud: everything on the given fleet member, no redundancy.
    pub fn single_cloud(fleet: &Fleet, provider: ProviderId) -> SchemeResult<Self> {
        let p = member(fleet, provider)?;
        let name = format!("Single({})", p.name());
        Ok(Replicated::new(fleet, &name, vec![p], WriteRule::AckedAt(1), ReadRule::PrimaryFirst))
    }

    /// Single cloud on the fleet's Amazon S3 (the paper's normalization
    /// baseline).
    pub fn amazon_s3(fleet: &Fleet) -> SchemeResult<Self> {
        Replicated::single_cloud(fleet, named(fleet, "Amazon S3")?)
    }

    /// DuraCloud on an explicit provider pair, `a` the primary.
    pub fn duracloud(fleet: &Fleet, a: ProviderId, b: ProviderId) -> SchemeResult<Self> {
        let pair = vec![member(fleet, a)?, member(fleet, b)?];
        Ok(Replicated::new(fleet, "DuraCloud", pair, WriteRule::Serial, ReadRule::PrimaryFirst))
    }

    /// DuraCloud on its paper-era deployment pair: Amazon S3 (primary) +
    /// Windows Azure.
    pub fn duracloud_standard(fleet: &Fleet) -> SchemeResult<Self> {
        Replicated::duracloud(fleet, named(fleet, "Amazon S3")?, named(fleet, "Windows Azure")?)
    }

    /// DepSky over the whole fleet, which needs at least 3 providers for
    /// a quorum.
    pub fn depsky(fleet: &Fleet) -> SchemeResult<Self> {
        if fleet.len() < 3 {
            return Err(refused("DepSky needs at least 3 providers for a quorum".to_string()));
        }
        let quorum = WriteRule::AckedAt(fleet.len() / 2 + 1);
        let all = fleet.providers().to_vec();
        Ok(Replicated::new(fleet, "DepSky", all, quorum, ReadRule::FastestFirst))
    }

    /// Pending missed-write records.
    pub fn pending_log_len(&self) -> usize {
        self.core.log.len()
    }

    fn read_order(&self) -> Vec<Arc<SimProvider>> {
        match self.read {
            ReadRule::PrimaryFirst => self.targets.clone(),
            ReadRule::FastestFirst => common::fastest_first(&self.targets),
        }
    }

    fn put_all(&mut self, name: &str, write: Write<'_>) -> BatchReport {
        common::put_all(&self.targets, name, write, self.write, &mut self.core.log)
    }

    /// Metadata blocks follow the same targets and write rule as data.
    fn flush_metadata(&mut self) -> BatchReport {
        let Replicated { core, targets, write, .. } = self;
        core.flush_metadata(|core, name, bytes| {
            common::put_all(targets, name, Write::Put(&Bytes::from(bytes)), *write, &mut core.log)
        })
    }
}

impl Scheme for Replicated {
    fn name(&self) -> &str {
        &self.name
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let now = self.core.now();
        self.core.meta.create_file(&npath, data.len() as u64, now)?;
        let name = hyrd::scheme::object_name(path);
        let bytes = Bytes::copy_from_slice(data);
        let batch = self.put_all(&name, Write::Put(&bytes));
        if batch.ops.is_empty() {
            self.core.meta.remove_file(&npath)?;
            common::roll_back_logged(&self.targets, &name, None, &mut self.core.log);
            return Err(unavailable(path, "no replica target available"));
        }
        self.cache.put(&npath, bytes);
        let providers = self.targets.iter().map(|p| p.id()).collect();
        let placement = Placement::Replicated { providers, object: name };
        self.core.meta.set_placement(&npath, placement, data.len() as u64, now)?;
        Ok(batch.then(self.flush_metadata()))
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        let Placement::Replicated { object, .. } = &inode.placement else {
            return Err(unavailable(path, "no placement"));
        };
        common::get_first(&self.read_order(), object, path)
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        let size = inode.size;
        if offset.checked_add(data.len() as u64).is_none_or(|end| end > size) {
            let len = data.len() as u64;
            return Err(SchemeError::BadRange { path: path.to_string(), offset, len, size });
        }
        let Placement::Replicated { object, providers } = inode.placement else {
            return Err(unavailable(path, "no placement"));
        };
        let (before, read_batch) = match self.cache.get(npath.as_str()) {
            Some(b) => (b, BatchReport::empty()),
            None => common::get_first(&self.read_order(), &object, path)?,
        };
        let mut content = before.to_vec();
        content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        let bytes = Bytes::from(content);
        let patch = Bytes::copy_from_slice(data);
        let write_batch =
            self.put_all(&object, Write::Range { offset, patch: &patch, full: &bytes });
        if write_batch.ops.is_empty() {
            common::roll_back_logged(&self.targets, &object, Some(&before), &mut self.core.log);
            return Err(unavailable(path, "no replica target available"));
        }
        self.cache.put(&npath, bytes);
        let now = self.core.now();
        let placement = Placement::Replicated { providers, object };
        self.core.meta.set_placement(&npath, placement, size, now)?;
        Ok(read_batch.then(write_batch).then(self.flush_metadata()))
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.remove_file(&npath)?;
        self.cache.remove(npath.as_str());
        let batch = match &inode.placement {
            Placement::Replicated { object, .. } => {
                common::remove_everywhere(&self.targets, object, &mut self.core.log)
            }
            _ => BatchReport::empty(),
        };
        Ok(batch.then(self.flush_metadata()))
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        let npath = NormPath::parse(path)?;
        let name = MetadataBlock::object_name(&npath);
        let batch = match common::get_first(&self.read_order(), &name, path) {
            Ok((_, b)) => b,
            Err(_) => BatchReport::empty(),
        };
        Ok((self.core.local_listing(&npath)?, batch))
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        let npath = NormPath::parse(path).ok()?;
        self.core.meta.inode(&npath).ok().map(|i| i.size)
    }

    fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(hyrd::recovery::RecoveryReport, BatchReport)> {
        self.core.recover_provider(id)
    }
}
