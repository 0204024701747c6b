//! DuraCloud baseline: full replication of all data on two providers.
//!
//! "DuraCloud utilizes replication to copy user content onto several
//! different cloud storage providers … Moreover, it ensures that all
//! copies of user content remain synchronized" (§V). The synchronization
//! is modelled as a **serial** write path (primary copy, then sync to the
//! secondary), which is what produces the paper's Figure 6 observation
//! that DuraCloud gets *faster* during an outage — "no double writes or
//! updates are performed".
//!
//! Reads come from the faster replica. Default placement is Amazon S3 +
//! Windows Azure, the provider pair DuraCloud's hosted service ran on.

use bytes::Bytes;

use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::{Fleet, SimProvider};
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use std::sync::Arc;

use crate::common::{self, SchemeCore};

/// Two-provider full replication with synchronized (serial) writes.
pub struct DuraCloud {
    core: SchemeCore,
    replicas: Vec<ProviderId>,
}

impl DuraCloud {
    /// Builds DuraCloud on an explicit provider pair.
    pub fn new(fleet: &Fleet, a: ProviderId, b: ProviderId) -> SchemeResult<Self> {
        for id in [a, b] {
            if fleet.get(id).is_none() {
                return Err(SchemeError::DataUnavailable {
                    path: String::new(),
                    detail: format!("{id} not in fleet"),
                });
            }
        }
        Ok(DuraCloud { core: SchemeCore::new(fleet), replicas: vec![a, b] })
    }

    /// The paper-era deployment pair: Amazon S3 + Windows Azure.
    pub fn standard(fleet: &Fleet) -> SchemeResult<Self> {
        let s3 = fleet.by_name("Amazon S3").map(|p| p.id());
        let azure = fleet.by_name("Windows Azure").map(|p| p.id());
        match (s3, azure) {
            (Some(a), Some(b)) => DuraCloud::new(fleet, a, b),
            _ => Err(SchemeError::DataUnavailable {
                path: String::new(),
                detail: "standard fleet providers missing".to_string(),
            }),
        }
    }

    fn targets(&self) -> Vec<Arc<SimProvider>> {
        self.replicas.iter().map(|&id| self.core.provider(id)).collect()
    }

    /// Read order: **primary first** (the first provider of the pair).
    /// DuraCloud is a synchronization service — users work against their
    /// primary store and the mirrored copy exists for durability, serving
    /// reads only when the primary is unreachable. This is also what
    /// produces the paper's Figure 6 behaviour: during an outage of the
    /// secondary, reads are unchanged and writes get *faster* (single
    /// copy), so DuraCloud beats its own normal state.
    fn read_order(&self) -> Vec<Arc<SimProvider>> {
        self.targets()
    }

    fn flush_metadata(&mut self) -> BatchReport {
        let targets = self.targets();
        // Metadata follows the same synchronized path.
        self.core.flush_metadata(|core, name, bytes| {
            common::put_serial(&targets, name, &Bytes::from(bytes), &mut core.log).0
        })
    }

    /// Replays missed writes onto a returned provider.
    pub fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(hyrd::recovery::RecoveryReport, BatchReport)> {
        self.core.recover_provider(id)
    }

    /// Pending missed-write records.
    pub fn pending_log_len(&self) -> usize {
        self.core.log.len()
    }
}

impl Scheme for DuraCloud {
    fn name(&self) -> &str {
        "DuraCloud"
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let now = self.core.now();
        self.core.meta.create_file(&npath, data.len() as u64, now)?;
        let name = hyrd::scheme::object_name(path);
        let bytes = Bytes::copy_from_slice(data);
        let (batch, live) = common::put_serial(&self.targets(), &name, &bytes, &mut self.core.log);
        if live == 0 {
            self.core.meta.remove_file(&npath)?;
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "both replicas unavailable".to_string(),
            });
        }
        self.core.cache.put(path, bytes);
        self.core.meta.set_placement(
            &npath,
            Placement::Replicated { providers: self.replicas.clone(), object: name },
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
        common::get_first(&self.read_order(), object, path)
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
        let (object, providers) = match inode.placement.clone() {
            Placement::Replicated { object, providers } => (object, providers),
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
                let (b, r) = common::get_first(&self.read_order(), &object, path)?;
                (b.to_vec(), r)
            }
        };
        content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        let bytes = Bytes::from(content);
        let patch = Bytes::copy_from_slice(data);
        let (write_batch, live) = common::put_range_serial(
            &self.targets(),
            &object,
            offset,
            &patch,
            &bytes,
            &mut self.core.log,
        );
        if live == 0 {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "both replicas unavailable".to_string(),
            });
        }
        self.core.cache.put(path, bytes);
        let now = self.core.now();
        self.core.meta.set_placement(
            &npath,
            Placement::Replicated { providers, object },
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
        DuraCloud::recover_provider(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;

    fn setup() -> (Fleet, DuraCloud) {
        let fleet = Fleet::standard_four(SimClock::new());
        let d = DuraCloud::standard(&fleet).unwrap();
        (fleet, d)
    }

    #[test]
    fn writes_land_on_both_replicas_serially() {
        let (fleet, mut d) = setup();
        let report = d.create_file("/a", &[5u8; 200 * 1024]).unwrap();
        // Serial composition: latency is the sum of both replica puts
        // (plus metadata), so it exceeds either provider's single put.
        let s3 = fleet.by_name("Amazon S3").unwrap();
        let azure = fleet.by_name("Windows Azure").unwrap();
        assert!(s3.stats().put >= 1);
        assert!(azure.stats().put >= 1);
        let data_puts: Vec<_> = report.ops.iter().filter(|o| o.bytes_in >= 200 * 1024).collect();
        assert_eq!(data_puts.len(), 2);
        let sum: std::time::Duration = data_puts.iter().map(|o| o.latency).sum();
        assert!(report.latency >= sum, "writes are synchronized (serial)");
    }

    #[test]
    fn reads_come_from_the_primary() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[5u8; 1024]).unwrap();
        let (_, report) = d.read_file("/a").unwrap();
        let s3 = fleet.by_name("Amazon S3").unwrap();
        assert_eq!(report.ops[0].provider, s3.id(), "primary serves reads");
        // Secondary takes over only when the primary is down.
        s3.force_down();
        let (_, report) = d.read_file("/a").unwrap();
        assert_eq!(report.ops[0].provider, fleet.by_name("Windows Azure").unwrap().id());
        s3.restore();
    }

    #[test]
    fn outage_failover_and_faster_writes() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[5u8; 100 * 1024]).unwrap();
        let normal_write = d.create_file("/b", &[5u8; 100 * 1024]).unwrap();

        fleet.by_name("Windows Azure").unwrap().force_down();
        // Reads fail over to S3.
        let (bytes, report) = d.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 100 * 1024);
        assert_eq!(report.ops[0].provider, fleet.by_name("Amazon S3").unwrap().id());
        // Writes during the outage are *faster* (single copy) — the
        // paper's Figure 6 observation.
        let outage_write = d.create_file("/c", &[5u8; 100 * 1024]).unwrap();
        assert!(outage_write.latency < normal_write.latency);
        assert!(d.pending_log_len() > 0);

        // Consistency update on return.
        fleet.by_name("Windows Azure").unwrap().restore();
        let azure_id = fleet.by_name("Windows Azure").unwrap().id();
        let (rep, _) = d.recover_provider(azure_id).unwrap();
        assert!(rep.puts_replayed > 0);
        assert_eq!(d.pending_log_len(), 0);

        // The recovered copy serves when S3 goes down.
        fleet.by_name("Amazon S3").unwrap().force_down();
        let (bytes, _) = d.read_file("/c").unwrap();
        assert_eq!(bytes.len(), 100 * 1024);
    }

    #[test]
    fn storage_overhead_is_2x() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 1_000_000]).unwrap();
        // 2 MB of data + 2 small metadata blocks.
        let stored = fleet.total_stored_bytes();
        assert!((2_000_000..2_010_000).contains(&stored), "stored={stored}");
    }

    #[test]
    fn update_roundtrip() {
        let (_fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 4096]).unwrap();
        d.update_file("/a", 1000, &[9u8; 100]).unwrap();
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[1000..1100], &[9u8; 100][..]);
        assert_eq!(bytes.len(), 4096);
    }
}
