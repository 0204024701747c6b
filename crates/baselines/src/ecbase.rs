//! The erasure-coded baselines: stripes *all* data — large files, small
//! files, and metadata blocks alike — across every provider with one
//! erasure code. RACS is `EcEverything<Raid5>` and NCCloud-lite
//! `EcEverything<ReedSolomon>`, each with its own constructor; the
//! uniform treatment of small data is exactly what HyRD's hybrid design
//! fixes.

use std::collections::HashMap;

use bytes::Bytes;

use hyrd::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{BatchReport, CloudStorage, ProviderId};
use hyrd_gfec::stripe::StripePlanner;
use hyrd_gfec::{ErasureCode, FragmentLayout};
use hyrd_metastore::{MetadataBlock, NormPath, Placement};

use crate::common::{self, FragmentMap, SchemeCore};
use crate::strips::StripStore;

/// What a whole-provider repair moved (the recovery-traffic experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairTraffic {
    /// Fragments rebuilt onto the repaired provider.
    pub fragments_rebuilt: u64,
    /// Bytes read from surviving providers.
    pub bytes_read: u64,
    /// Bytes written to the repaired provider.
    pub bytes_written: u64,
}

impl RepairTraffic {
    /// Read amplification: survivor bytes read per byte rebuilt.
    pub fn amplification(&self) -> f64 {
        if self.bytes_written == 0 {
            return 0.0;
        }
        self.bytes_read as f64 / self.bytes_written as f64
    }
}

/// Erasure-codes every object across the whole fleet.
pub struct EcEverything<C: ErasureCode> {
    pub(crate) core: SchemeCore,
    planner: StripePlanner,
    code: C,
    scheme_name: String,
    /// Metadata-block placements (object name → layout + fragment
    /// map), client state mirroring the dirty-block bookkeeping.
    meta_blocks: HashMap<String, (FragmentLayout, FragmentMap)>,
    /// RAID-style strip groups for small objects (including metadata
    /// blocks): one strip on one provider, parity elsewhere.
    strips: StripStore,
    /// Objects at or below this size are strip-placed instead of striped.
    strip_unit: usize,
}

impl<C: ErasureCode> EcEverything<C> {
    /// Builds the scheme over `code`; the code's `n` must equal the fleet
    /// size (one fragment per provider — the RACS layout).
    pub fn with_code(fleet: &Fleet, code: C, scheme_name: &str) -> SchemeResult<Self> {
        if code.total_fragments() != fleet.len() {
            return Err(SchemeError::DataUnavailable {
                path: String::new(),
                detail: format!(
                    "code has {} fragments but fleet has {} providers",
                    code.total_fragments(),
                    fleet.len()
                ),
            });
        }
        let planner = StripePlanner::new(code.data_fragments(), code.total_fragments())?;
        let strips = StripStore::new(&code, fleet.providers().to_vec());
        Ok(EcEverything {
            core: SchemeCore::new(fleet),
            planner,
            code,
            scheme_name: scheme_name.to_string(),
            meta_blocks: HashMap::new(),
            strips,
            strip_unit: 1024 * 1024,
        })
    }

    fn lookup(&self) -> impl Fn(ProviderId) -> std::sync::Arc<hyrd_cloudsim::SimProvider> + '_ {
        |id| self.core.provider(id)
    }

    fn flush_metadata(&mut self) -> BatchReport {
        let providers = self.core.fleet.providers().to_vec();
        let EcEverything { core, planner, code, meta_blocks, strips, strip_unit, .. } = self;
        core.flush_metadata(|core, name, bytes| {
            // Metadata blocks are small: they take the strip layout (one
            // provider + parity), exactly like small files.
            if bytes.len() <= *strip_unit {
                let placed = if strips.contains(name) {
                    strips.replace(name, &bytes, &mut core.log, name)
                } else {
                    strips.place(name, &bytes, &mut core.log).map(|(_, b)| b)
                };
                return placed.unwrap_or_default();
            }
            // Oversized block: full striping.
            let rot = name.bytes().map(|b| b as usize).sum::<usize>() % providers.len();
            match common::ec_write(planner, code, &providers, name, &bytes, rot, &mut core.log) {
                Ok(written) => {
                    meta_blocks.insert(name.to_string(), (written.layout, written.fragments));
                    written.report
                }
                Err(_) => BatchReport::empty(),
            }
        })
    }

    /// Fragment objects with windows of degraded updates pending replay.
    pub fn pending_dirty_fragments(&self) -> usize {
        self.core.log.window_objects()
    }

    /// Pending missed-write records.
    pub fn pending_log_len(&self) -> usize {
        self.core.log.len()
    }

    /// Rebuilds every fragment the given provider holds, by reading `m`
    /// surviving fragments per object and writing the reconstructed
    /// fragment back — the full-provider recovery whose cross-rack
    /// traffic §I quotes from the Facebook warehouse study. The provider
    /// must be back up (rebuild targets the repaired node).
    pub fn repair_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(RepairTraffic, BatchReport)> {
        let mut traffic = RepairTraffic::default();
        let mut ops = Vec::new();

        // Collect every placement that has a fragment on `id`.
        let mut jobs: Vec<(FragmentLayout, FragmentMap)> = Vec::new();
        for path in self.all_file_paths() {
            if let Ok(inode) = self.core.meta.inode(&path) {
                if let Placement::ErasureCoded { layout, fragments, .. } = &inode.placement {
                    if fragments.iter().any(|(p, _)| *p == id) {
                        jobs.push((*layout, fragments.clone()));
                    }
                }
            }
        }
        for (layout, map) in self.meta_blocks.values() {
            if map.iter().any(|(p, _)| *p == id) {
                jobs.push((*layout, map.clone()));
            }
        }

        // Strip-placed small objects and their parity strips.
        let (rebuilt, read, written, strip_ops) = self.strips.repair_provider(id, "repair")?;
        traffic.fragments_rebuilt += rebuilt;
        traffic.bytes_read += read;
        traffic.bytes_written += written;
        ops.extend(strip_ops);

        for (layout, map) in jobs {
            // Read m surviving fragments.
            let mut got: Vec<(usize, Bytes)> = Vec::new();
            for (idx, (pid, name)) in map.iter().enumerate() {
                if *pid == id || got.len() == layout.m {
                    continue;
                }
                if let Ok(out) = self.core.provider(*pid).get(&common::key(name)) {
                    traffic.bytes_read += out.report.bytes_out;
                    ops.push(out.report);
                    got.push((idx, out.value));
                }
            }
            if got.len() < layout.m {
                continue; // another provider is also down; skip this object
            }
            // Reconstruct the lost fragments and write them back.
            for (idx, (pid, name)) in map.iter().enumerate() {
                if *pid != id {
                    continue;
                }
                let data = hyrd_gfec::rebuild_fragment(&self.code, layout.shard_len, &got, idx)?;
                let bytes = Bytes::from(data);
                let out = self.core.provider(*pid).put(&common::key(name), bytes)?;
                traffic.bytes_written += out.report.bytes_in;
                traffic.fragments_rebuilt += 1;
                ops.push(out.report);
            }
        }
        Ok((traffic, BatchReport::serial(ops)))
    }

    fn all_file_paths(&self) -> Vec<NormPath> {
        // Walk every directory's files.
        let mut out = Vec::new();
        for dir in self.core.meta.all_dirs() {
            if let Ok(entries) = self.core.meta.list(&dir) {
                for e in entries {
                    if let hyrd_metastore::DirEntry::File(name, _) = e {
                        if let Ok(p) = dir.join(&name) {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }
}

impl<C: ErasureCode> Scheme for EcEverything<C> {
    fn name(&self) -> &str {
        &self.scheme_name
    }

    fn create_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let now = self.core.now();
        self.core.meta.create_file(&npath, data.len() as u64, now)?;
        let base_name = hyrd::scheme::object_name(path);
        if data.len() <= self.strip_unit {
            // Small object: one data strip + parity (the RAID block
            // layout).
            let name = base_name;
            let (pid, batch) = match self.strips.place(&name, data, &mut self.core.log) {
                Ok(v) => v,
                Err(e) => {
                    self.core.meta.remove_file(&npath)?;
                    return Err(e);
                }
            };
            self.core.meta.set_placement(
                &npath,
                Placement::Replicated { providers: vec![pid], object: name },
                data.len() as u64,
                now,
            )?;
            return Ok(batch.then(self.flush_metadata()));
        }
        let providers = self.core.fleet.providers().to_vec();
        // Rotate parity placement by the name hash (stable per path).
        let rot = base_name.bytes().map(|b| b as usize).sum::<usize>() % providers.len();
        let common::EcWrite { layout, fragments: map, report: batch, live } = common::ec_write(
            &self.planner,
            &self.code,
            &providers,
            &base_name,
            data,
            rot,
            &mut self.core.log,
        )?;
        if live < layout.m {
            self.core.meta.remove_file(&npath)?;
            self.core.retire(&map);
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("only {live} fragment targets available"),
            });
        }
        self.core.meta.set_placement(
            &npath,
            Placement::ErasureCoded { layout, fragments: map, hot_copy: None },
            data.len() as u64,
            now,
        )?;
        Ok(batch.then(self.flush_metadata()))
    }

    fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        match inode.placement.clone() {
            Placement::Replicated { object, .. } if self.strips.contains(&object) => {
                self.strips.read(&object, path)
            }
            Placement::ErasureCoded { layout, fragments, .. } => {
                common::ec_read(&self.code, &self.lookup(), &layout, &fragments, path)
            }
            _ => Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "no placement".to_string(),
            }),
        }
    }

    fn update_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.inode(&npath)?;
        let size = inode.size;
        if offset.checked_add(data.len() as u64).is_none_or(|end| end > size) {
            let len = data.len() as u64;
            return Err(SchemeError::BadRange { path: path.to_string(), offset, len, size });
        }
        let (layout, fragments) = match inode.placement.clone() {
            Placement::Replicated { object, .. } if self.strips.contains(&object) => {
                let batch = self.strips.update_range(
                    &object,
                    offset as usize,
                    data,
                    &mut self.core.log,
                    path,
                )?;
                let now = self.core.now();
                let placement = inode.placement.clone();
                self.core.meta.set_placement(&npath, placement, size, now)?;
                return Ok(batch.then(self.flush_metadata()));
            }
            Placement::ErasureCoded { layout, fragments, .. } => (layout, fragments),
            _ => {
                return Err(SchemeError::DataUnavailable {
                    path: path.to_string(),
                    detail: "no placement".to_string(),
                })
            }
        };
        let update = hyrd::ecops::ranged_update(
            &self.code,
            &self.lookup(),
            &hyrd::telemetry::Collector::disabled(),
            &layout,
            &fragments,
            path,
            offset as usize,
            data,
        )?;
        let logged = npath.shared();
        update.missed.into_iter().for_each(|w| self.core.log.log_window(&logged, w));
        let now = self.core.now();
        self.core.meta.set_placement(
            &npath,
            Placement::ErasureCoded { layout, fragments, hot_copy: None },
            size,
            now,
        )?;
        Ok(update.batch.then(self.flush_metadata()))
    }

    fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        let npath = NormPath::parse(path)?;
        let inode = self.core.meta.remove_file(&npath)?;
        if let Placement::Replicated { object, .. } = &inode.placement {
            if self.strips.contains(object) {
                let batch = self.strips.remove(object, &mut self.core.log, path)?;
                return Ok(batch.then(self.flush_metadata()));
            }
        }
        let mut ops = Vec::new();
        if let Placement::ErasureCoded { fragments, .. } = &inode.placement {
            for (pid, name) in fragments {
                let p = self.core.provider(*pid);
                match p.remove(&common::key(name)) {
                    Ok(out) => ops.push(out.report),
                    Err(hyrd_gcsapi::CloudError::Unavailable { .. }) => {
                        self.core.log.log_remove(*pid, common::key(name));
                    }
                    Err(_) => {}
                }
            }
        }
        Ok(BatchReport::parallel(ops).then(self.flush_metadata()))
    }

    fn list_dir(&mut self, path: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        let npath = NormPath::parse(path)?;
        // A metadata access reads the block from its strip (one access
        // normally, full reconstruction when that provider is down).
        let strip_name = MetadataBlock::object_name(&npath);
        if self.strips.contains(&strip_name) {
            let (_, batch) = self.strips.read(&strip_name, path)?;
            return Ok((self.core.local_listing(&npath)?, batch));
        }
        let batch = match self.meta_blocks.get(&*strip_name).cloned() {
            Some((layout, map)) => {
                common::ec_read(&self.code, &self.lookup(), &layout, &map, path)?.1
            }
            None => BatchReport::empty(),
        };
        Ok((self.core.local_listing(&npath)?, batch))
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        let npath = NormPath::parse(path).ok()?;
        self.core.meta.inode(&npath).ok().map(|i| i.size)
    }

    /// Replays missed writes — whole objects and the windows of
    /// degraded updates — onto a returned provider (consistency update).
    fn recover_provider(
        &mut self,
        id: ProviderId,
    ) -> SchemeResult<(hyrd::recovery::RecoveryReport, BatchReport)> {
        self.core.recover_provider(id)
    }
}
