//! Single-cloud baseline: everything on one provider, no redundancy.
//!
//! Figure 4a/4b report its cost for each of the four providers; Figure 6
//! normalizes every scheme to the Amazon S3 instance of this baseline.
//! Its availability is exactly the provider's availability — one outage
//! and every operation fails, which is the problem statement of the
//! paper.

use bytes::Bytes;

use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use crate::common::{self, SchemeCore};

/// All data on one provider.
pub struct SingleCloud {
    core: SchemeCore,
    provider: ProviderId,
    name: String,
}

impl SingleCloud {
    /// Builds the baseline on the given fleet member.
    pub fn new(fleet: &Fleet, provider: ProviderId) -> SchemeResult<Self> {
        let p = fleet.get(provider).ok_or_else(|| SchemeError::DataUnavailable {
            path: String::new(),
            detail: format!("{provider} not in fleet"),
        })?;
        let name = format!("Single({})", p.name());
        Ok(SingleCloud { core: SchemeCore::new(fleet), provider, name })
    }

    /// Convenience: the S3 member of the standard fleet (the paper's
    /// normalization baseline).
    pub fn amazon_s3(fleet: &Fleet) -> SchemeResult<Self> {
        let id = fleet
            .by_name("Amazon S3")
            .ok_or_else(|| SchemeError::DataUnavailable {
                path: String::new(),
                detail: "fleet has no Amazon S3".to_string(),
            })?
            .id();
        SingleCloud::new(fleet, id)
    }

    fn targets(&self) -> Vec<std::sync::Arc<hyrd_cloudsim::SimProvider>> {
        vec![self.core.provider(self.provider)]
    }

    fn flush_metadata(&mut self) -> BatchReport {
        let targets = self.targets();
        self.core.flush_metadata(|core, name, bytes| {
            common::put_parallel(&targets, name, &Bytes::from(bytes), &mut core.log).0
        })
    }
}

impl Scheme for SingleCloud {
    fn name(&self) -> &str {
        &self.name
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let now = self.core.now();
        self.core.meta.create_file(&npath, data.len() as u64, now)?;
        let name = hyrd::scheme::object_name(path);
        let bytes = Bytes::copy_from_slice(data);
        let (batch, live) =
            common::put_parallel(&self.targets(), &name, &bytes, &mut self.core.log);
        if live == 0 {
            self.core.meta.remove_file(&npath)?;
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "provider unavailable".to_string(),
            });
        }
        self.core.cache.put(path, bytes);
        self.core.meta.set_placement(
            &npath,
            Placement::Replicated { providers: vec![self.provider], object: name },
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
        common::get_first(&self.targets(), object, path)
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
                let (b, r) = common::get_first(&self.targets(), &object, path)?;
                (b.to_vec(), r)
            }
        };
        content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        let bytes = Bytes::from(content);
        let patch = Bytes::copy_from_slice(data);
        let (write_batch, live) = common::put_range_parallel(
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
                detail: "provider unavailable".to_string(),
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
        let batch = match common::get_first(&self.targets(), &name, path) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::SimClock;

    #[test]
    fn lifecycle_on_one_provider() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s = SingleCloud::amazon_s3(&fleet).unwrap();
        assert_eq!(s.name(), "Single(Amazon S3)");

        s.create_file("/a", &[1u8; 1000]).unwrap();
        let (bytes, report) = s.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 1000);
        assert_eq!(report.op_count(), 1);

        s.update_file("/a", 100, &[9u8; 50]).unwrap();
        let (bytes, _) = s.read_file("/a").unwrap();
        assert_eq!(&bytes[100..150], &[9u8; 50]);

        let (names, _) = s.list_dir("/").unwrap();
        assert_eq!(names, vec!["a"]);

        s.delete_file("/a").unwrap();
        assert!(s.read_file("/a").is_err());
        assert_eq!(s.file_size("/a"), None);
    }

    #[test]
    fn outage_kills_everything_the_papers_problem() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s = SingleCloud::amazon_s3(&fleet).unwrap();
        s.create_file("/a", &[1u8; 100]).unwrap();
        fleet.by_name("Amazon S3").unwrap().force_down();
        assert!(s.read_file("/a").is_err());
        assert!(s.create_file("/b", &[0u8; 10]).is_err());
    }

    #[test]
    fn only_the_chosen_provider_is_touched() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s = SingleCloud::new(&fleet, fleet.by_name("Aliyun").unwrap().id()).unwrap();
        s.create_file("/a", &[1u8; 100]).unwrap();
        s.read_file("/a").unwrap();
        for p in fleet.providers() {
            let s = p.stats();
            if p.name() == "Aliyun" {
                assert!(s.put > 0 && s.get > 0);
            } else {
                // Only the fleet-setup Create op, no data traffic.
                assert_eq!(s.put + s.get + s.remove + s.list, 0, "{}", p.name());
            }
        }
    }
}
