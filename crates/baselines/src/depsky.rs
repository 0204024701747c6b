//! DepSky-lite baseline: replication on every provider, DepSky-A flavor.
//!
//! "DEPSKY improves the availability and confidentiality of commercial
//! storage cloud services by building a cloud-of-clouds on top of a set
//! of storage clouds, combining Byzantine quorum system protocols,
//! cryptographic secret sharing, replication and the diversity provided
//! by the use of several cloud providers" (§V). This reproduction keeps
//! the availability machinery of the DepSky-A protocol — full replicas
//! on all `n` providers, writes acknowledged by a majority quorum, reads
//! served by the fastest replica — and omits the confidentiality layer
//! (secret sharing / DepSky-CA), which none of the paper's experiments
//! exercise.

use bytes::Bytes;

use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use std::sync::Arc;

use crate::common::{self, SchemeCore};

/// Replicate-everywhere with majority-quorum writes.
pub struct DepSky {
    core: SchemeCore,
}

impl DepSky {
    /// Builds DepSky over the whole fleet.
    pub fn new(fleet: &Fleet) -> SchemeResult<Self> {
        if fleet.len() < 3 {
            return Err(SchemeError::DataUnavailable {
                path: String::new(),
                detail: "DepSky needs at least 3 providers for a quorum".to_string(),
            });
        }
        Ok(DepSky { core: SchemeCore::new(fleet) })
    }

    fn targets(&self) -> Vec<Arc<SimProvider>> {
        self.core.fleet.providers().to_vec()
    }

    fn quorum(&self) -> usize {
        self.core.fleet.len() / 2 + 1
    }

    fn all_ids(&self) -> Vec<ProviderId> {
        self.core.fleet.providers().iter().map(|p| p.id()).collect()
    }

    /// Parallel write acknowledged once a majority has it: the
    /// user-visible latency is the quorum-th fastest put, and the
    /// stragglers complete in the background (still charged as ops).
    fn put_quorum(&mut self, name: &str, data: &Bytes) -> (BatchReport, usize) {
        let (batch, live) = common::put_parallel(&self.targets(), name, data, &mut self.core.log);
        (acked_at_quorum(batch, live, self.quorum()), live)
    }

    /// Ranged quorum overwrite: like [`Self::put_quorum`] but transfers
    /// only the modified range; unavailable providers get the full new
    /// content logged.
    fn put_range_quorum(
        &mut self,
        name: &str,
        offset: u64,
        patch: &Bytes,
        full_for_log: &Bytes,
    ) -> (BatchReport, usize) {
        let (batch, live) = common::put_range_parallel(
            &self.targets(),
            name,
            offset,
            patch,
            full_for_log,
            &mut self.core.log,
        );
        (acked_at_quorum(batch, live, self.quorum()), live)
    }

    fn flush_metadata(&mut self) -> BatchReport {
        let (targets, quorum) = (self.targets(), self.quorum());
        self.core.flush_metadata(|core, name, bytes| {
            let (batch, live) =
                common::put_parallel(&targets, name, &Bytes::from(bytes), &mut core.log);
            acked_at_quorum(batch, live, quorum)
        })
    }

    /// Replays missed writes onto a returned provider.
    pub fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(hyrd::recovery::RecoveryReport, BatchReport)> {
        self.core.recover_provider(id)
    }
}

/// Re-times a parallel fan-out of which `live` puts landed as a quorum
/// write: acknowledged at the `quorum`-th fastest op. With fewer acks
/// than a quorum the latency degenerates to the slowest survivor (the
/// write must wait hoping for a quorum).
fn acked_at_quorum(batch: BatchReport, live: usize, quorum: usize) -> BatchReport {
    if live == 0 {
        return batch;
    }
    let mut lats: Vec<_> = batch.ops.iter().map(|o| o.latency).collect();
    lats.sort();
    let acked = if live < quorum { lats.len() } else { quorum.min(lats.len()) };
    BatchReport { latency: lats[acked - 1], ops: batch.ops }
}

impl Scheme for DepSky {
    fn name(&self) -> &str {
        "DepSky"
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let now = self.core.now();
        self.core.meta.create_file(&npath, data.len() as u64, now)?;
        let name = hyrd::scheme::object_name(path);
        let bytes = Bytes::copy_from_slice(data);
        let (batch, live) = self.put_quorum(&name, &bytes);
        if live == 0 {
            self.core.meta.remove_file(&npath)?;
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no provider available".to_string(),
            });
        }
        self.core.cache.put(path, bytes);
        self.core.meta.set_placement(
            &npath,
            Placement::Replicated { providers: self.all_ids(), object: name },
            data.len() as u64,
            now,
        )?;
        Ok(batch.then(self.flush_metadata()))
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        let Placement::Replicated { object, .. } = &inode.placement else {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no placement".to_string(),
            });
        };
        common::get_first(&common::fastest_first(&self.targets()), object, path)
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        let size = inode.size;
        if offset + data.len() as u64 > size {
            return Err(SchemeError::BadRange {
                path: path.to_string(),
                offset,
                len: data.len() as u64,
                size,
            });
        }
        let object = match &inode.placement {
            Placement::Replicated { object, .. } => object.clone(),
            _ => {
                return Err(SchemeError::DataUnavailable {
                    path: path.to_string(),
                    detail: "no placement".to_string(),
                })
            }
        };
        let (mut content, read_batch) = match self.core.cache.get(path) {
            Some(b) => (b.to_vec(), BatchReport::empty()),
            None => {
                let (b, r) =
                    common::get_first(&common::fastest_first(&self.targets()), &object, path)?;
                (b.to_vec(), r)
            }
        };
        content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        let bytes = Bytes::from(content);
        let patch = Bytes::copy_from_slice(data);
        let (write_batch, live) = self.put_range_quorum(&object, offset, &patch, &bytes);
        if live == 0 {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no provider available".to_string(),
            });
        }
        self.core.cache.put(path, bytes);
        let now = self.core.now();
        self.core.meta.set_placement(
            &npath,
            Placement::Replicated { providers: self.all_ids(), object },
            size,
            now,
        )?;
        Ok(read_batch.then(write_batch).then(self.flush_metadata()))
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.remove_file(&npath)?;
        self.core.cache.remove(path);
        let batch = match &inode.placement {
            Placement::Replicated { object, .. } => {
                common::remove_everywhere(&self.targets(), object, &mut self.core.log)
            }
            _ => BatchReport::empty(),
        };
        Ok(batch.then(self.flush_metadata()))
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        let npath = NormPath::parse(path)?;
        let name = MetadataBlock::object_name(&npath);
        let batch = match common::get_first(&common::fastest_first(&self.targets()), &name, path) {
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
        DepSky::recover_provider(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;
    use hyrd_gcsapi::CloudStorage;

    fn setup() -> (Fleet, DepSky) {
        let fleet = Fleet::standard_four(SimClock::new());
        let d = DepSky::new(&fleet).unwrap();
        (fleet, d)
    }

    #[test]
    fn replicates_on_every_provider() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 10_000]).unwrap();
        for p in fleet.providers() {
            assert!(p.stats().put >= 1, "{}", p.name());
        }
        // 4x storage (plus metadata).
        assert!(fleet.total_stored_bytes() >= 40_000);
    }

    #[test]
    fn write_latency_is_quorum_not_slowest() {
        let (fleet, mut d) = setup();
        let report = d.create_file("/a", &vec![1u8; 256 * 1024]).unwrap();
        let mut lats: Vec<_> =
            report.ops.iter().filter(|o| o.bytes_in >= 256 * 1024).map(|o| o.latency).collect();
        lats.sort();
        assert_eq!(lats.len(), 4);
        // Latency ≥ 3rd fastest (quorum of 3) but < the slowest + meta.
        assert!(report.latency >= lats[2]);
        let _ = fleet;
    }

    #[test]
    fn survives_one_outage_reads_from_fastest_survivor() {
        let (fleet, mut d) = setup();
        let data = vec![2u8; 50_000];
        d.create_file("/a", &data).unwrap();
        fleet.by_name("Aliyun").unwrap().force_down();
        let (bytes, report) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(
            report.ops[0].provider,
            fleet.by_name("Windows Azure").unwrap().id(),
            "next-fastest replica serves"
        );
    }

    #[test]
    fn quorum_loss_still_writes_but_slowly() {
        let (fleet, mut d) = setup();
        fleet.by_name("Aliyun").unwrap().force_down();
        fleet.by_name("Windows Azure").unwrap().force_down();
        // Only 2 of 4 live: below the majority quorum of 3.
        let report = d.create_file("/a", &[1u8; 1024]).unwrap();
        assert!(report.op_count() >= 2);
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 1024);
    }

    #[test]
    fn update_roundtrip() {
        let (_fleet, mut d) = setup();
        d.create_file("/a", &[0u8; 2048]).unwrap();
        d.update_file("/a", 10, &[7u8; 20]).unwrap();
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[10..30], &[7u8; 20][..]);
    }
}
