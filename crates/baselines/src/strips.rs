//! RAID5-style strip groups for small objects — the block-array layout
//! RACS inherits from disk RAID (§II-B of the paper describes RAID5
//! semantics throughout).
//!
//! A small object (at most one strip unit) occupies a single **strip** on
//! a single provider; `m` member strips form a stripe group protected by
//! the code's parity strips on the remaining providers. That layout is
//! what produces the paper's small-object behaviour for RACS:
//!
//! * a normal small read touches **one** provider,
//! * a small update is the RAID5 read-modify-write — read old strip +
//!   parity, write new strip + parity, the "4 accesses" of §I,
//! * a degraded read during an outage "will require it to access all the
//!   other three single-cloud storage providers to reconstruct the
//!   unavailable data" (§IV-C).
//!
//! Members of a group may have different lengths; strips are implicitly
//! zero-padded to the group's strip length for parity arithmetic (codes
//! here are linear and positionwise, so padding commutes with encoding).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use hyrd::recovery::UpdateLog;
use hyrd::scheme::{SchemeError, SchemeResult};
use hyrd_cloudsim::SimProvider;
use hyrd_gcsapi::{BatchReport, CloudStorage, OpReport, ProviderId};
use hyrd_gfec::gf256::Gf256;
use hyrd_gfec::{ErasureCode, Fragment};

use crate::common::key;

/// One member strip.
#[derive(Debug, Clone)]
struct Member {
    object: String,
    len: usize,
}

/// One stripe group: `m` member slots + parity strips.
#[derive(Debug, Clone)]
struct Group {
    /// Provider per strip position (0..m data, m..n parity).
    providers: Vec<ProviderId>,
    /// Parity object names (one per parity strip).
    parity_names: Vec<String>,
    /// Member slots.
    members: Vec<Option<Member>>,
    /// Current strip length (max member length seen; parity objects have
    /// exactly this length).
    strip_len: usize,
}

/// Where a small object lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripRef {
    group: usize,
    slot: usize,
}

/// The strip-group store for one scheme instance.
pub struct StripStore {
    m: usize,
    n: usize,
    coeffs: Vec<Vec<Gf256>>,
    groups: Vec<Group>,
    by_object: HashMap<String, StripRef>,
    /// Fleet in id order (strip position p of group g maps to provider
    /// `(p + g) % n` — parity rotation across groups).
    fleet: Vec<Arc<SimProvider>>,
}

impl StripStore {
    /// Builds a store for a code over the given fleet (one strip per
    /// provider).
    pub fn new<C: ErasureCode + ?Sized>(code: &C, fleet: Vec<Arc<SimProvider>>) -> Self {
        assert_eq!(code.total_fragments(), fleet.len(), "one strip per provider");
        StripStore {
            m: code.data_fragments(),
            n: code.total_fragments(),
            coeffs: code.parity_coefficients(),
            groups: Vec::new(),
            by_object: HashMap::new(),
            fleet,
        }
    }

    /// Whether an object is managed by this store.
    pub fn contains(&self, object: &str) -> bool {
        self.by_object.contains_key(object)
    }

    /// The provider holding an object's data strip.
    pub fn provider_of(&self, object: &str) -> Option<ProviderId> {
        let r = self.by_object.get(object)?;
        Some(self.groups[r.group].providers[r.slot])
    }

    fn provider(&self, id: ProviderId) -> &Arc<SimProvider> {
        self.fleet.iter().find(|p| p.id() == id).expect("strip providers come from the fleet")
    }

    fn pad(data: &[u8], len: usize) -> Vec<u8> {
        let mut v = data.to_vec();
        v.resize(len, 0);
        v
    }

    /// Gathers every reachable strip of a group (members zero-padded,
    /// missing slots synthesized as zero strips) and reconstructs the
    /// data strips. Returns `(data_strips, read_ops)`.
    fn reconstruct_group(
        &self,
        group: &Group,
        skip_member: Option<usize>,
        path: &str,
    ) -> SchemeResult<(Vec<Vec<u8>>, Vec<OpReport>)> {
        let mut frags: Vec<Fragment> = Vec::new();
        let mut ops = Vec::new();
        for (slot, member) in group.members.iter().enumerate() {
            if Some(slot) == skip_member {
                continue;
            }
            match member {
                None => {
                    // Empty slot: a zero strip, free of charge.
                    frags.push(Fragment::new(slot, vec![0u8; group.strip_len]));
                }
                Some(mr) => {
                    let p = self.provider(group.providers[slot]);
                    if !p.is_available() {
                        continue;
                    }
                    if let Ok(out) = p.get(&key(&mr.object)) {
                        ops.push(out.report);
                        frags.push(Fragment::new(slot, Self::pad(&out.value, group.strip_len)));
                    }
                }
            }
        }
        for (j, pname) in group.parity_names.iter().enumerate() {
            if frags.len() >= self.m {
                break;
            }
            let p = self.provider(group.providers[self.m + j]);
            if !p.is_available() {
                continue;
            }
            if let Ok(out) = p.get(&key(pname)) {
                ops.push(out.report);
                frags.push(Fragment::new(self.m + j, Self::pad(&out.value, group.strip_len)));
            }
        }
        if frags.len() < self.m {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: format!("{} of {} strips reachable, need {}", frags.len(), self.n, self.m),
            });
        }
        // Positionwise linear code: reconstruct over the strip length.
        let code_frags: Vec<Fragment> = frags;
        let data = self.reconstruct_strips(&code_frags, group.strip_len, path)?;
        Ok((data, ops))
    }

    fn reconstruct_strips(
        &self,
        frags: &[Fragment],
        strip_len: usize,
        path: &str,
    ) -> SchemeResult<Vec<Vec<u8>>> {
        // Delegate to a throwaway RS view of the coefficients: all codes
        // here are systematic linear codes, so reconstruct via XOR of
        // parity rows is code-specific. Rather than re-deriving, rebuild
        // through Gaussian elimination on the generator rows.
        let mut matrix_rows = Vec::new();
        let mut data_rows = Vec::new();
        for f in frags.iter().take(self.m) {
            let row: Vec<Gf256> = if f.index < self.m {
                (0..self.m).map(|c| if c == f.index { Gf256::ONE } else { Gf256::ZERO }).collect()
            } else {
                self.coeffs[f.index - self.m].clone()
            };
            matrix_rows.push(row.iter().map(|g| g.0).collect::<Vec<u8>>());
            data_rows.push(f.data.clone());
        }
        let mat = hyrd_gfec::Matrix::from_rows(&matrix_rows);
        let inv = mat.invert().map_err(|_| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: "strip decode matrix singular".to_string(),
        })?;
        let refs: Vec<&[u8]> = data_rows.iter().map(|d| d.as_slice()).collect();
        let _ = strip_len;
        Ok(inv.mul_shards(&refs))
    }

    /// Computes all parity strips from complete data strips.
    fn parities_from_data(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let len = data.first().map_or(0, |d| d.len());
        self.coeffs
            .iter()
            .map(|row| {
                let mut p = vec![0u8; len];
                for (i, d) in data.iter().enumerate() {
                    hyrd_gfec::gf256::mul_slice_acc(&mut p, d, row[i]);
                }
                p
            })
            .collect()
    }

    /// Writes parity strips; unreachable parity providers get the write
    /// logged.
    fn write_parities(
        &self,
        group: &Group,
        parities: Vec<Vec<u8>>,
        log: &mut UpdateLog,
    ) -> Vec<OpReport> {
        let mut ops = Vec::new();
        for (j, bytes) in parities.into_iter().enumerate() {
            let pid = group.providers[self.m + j];
            let k = key(&group.parity_names[j]);
            let b = Bytes::from(bytes);
            match self.provider(pid).put(&k, b.clone()) {
                Ok(out) => ops.push(out.report),
                Err(_) => log.log_put(pid, k, b),
            }
        }
        ops
    }

    /// Places a new small object, returning the provider its data strip
    /// landed on (record it in the placement).
    pub fn place(
        &mut self,
        object: &str,
        data: &[u8],
        log: &mut UpdateLog,
    ) -> SchemeResult<(ProviderId, BatchReport)> {
        // Find or open a group with a free slot.
        let gid = match self.groups.iter().rposition(|g| g.members.iter().any(|s| s.is_none())) {
            Some(g) => g,
            None => {
                let gid = self.groups.len();
                let providers: Vec<ProviderId> =
                    (0..self.n).map(|p| self.fleet[(p + gid) % self.n].id()).collect();
                let parity_names = (0..self.n - self.m).map(|j| format!("sg{gid}.p{j}")).collect();
                self.groups.push(Group {
                    providers,
                    parity_names,
                    members: vec![None; self.m],
                    strip_len: 0,
                });
                gid
            }
        };
        let slot = self.groups[gid]
            .members
            .iter()
            .position(|s| s.is_none())
            .expect("group chosen for its free slot");

        // Parity delta needs the old parity content over the new strip
        // length; a fresh slot's old content is zeros, so
        // P_j' = P_j ^ c_js * pad(data).
        let group_snapshot = self.groups[gid].clone();
        let new_strip_len = group_snapshot.strip_len.max(data.len());
        let mut read_ops = Vec::new();
        let mut parities: Vec<Vec<u8>> = Vec::new();
        let mut degraded = false;
        if group_snapshot.strip_len > 0 {
            for (j, pname) in group_snapshot.parity_names.iter().enumerate() {
                let p = self.provider(group_snapshot.providers[self.m + j]);
                match p.get(&key(pname)) {
                    Ok(out) => {
                        read_ops.push(out.report);
                        parities.push(Self::pad(&out.value, new_strip_len));
                    }
                    Err(_) => {
                        degraded = true;
                        break;
                    }
                }
            }
        } else {
            parities = vec![vec![0u8; new_strip_len]; self.n - self.m];
        }

        if degraded {
            // Some parity is unreachable: recompute everything from the
            // data strips instead.
            let (mut strips, ops) = self.reconstruct_group(&group_snapshot, None, object)?;
            read_ops.extend(ops);
            for s in &mut strips {
                s.resize(new_strip_len, 0);
            }
            strips[slot] = Self::pad(data, new_strip_len);
            parities = self.parities_from_data(&strips);
        } else {
            let padded = Self::pad(data, new_strip_len);
            for (j, p) in parities.iter_mut().enumerate() {
                hyrd_gfec::gf256::mul_slice_acc(p, &padded, self.coeffs[j][slot]);
            }
        }

        // Write the member strip (logged if its provider is down) and
        // the parities.
        let pid = group_snapshot.providers[slot];
        let k = key(object);
        let b = Bytes::copy_from_slice(data);
        let mut write_ops = Vec::new();
        match self.provider(pid).put(&k, b.clone()) {
            Ok(out) => write_ops.push(out.report),
            Err(_) => log.log_put(pid, k, b),
        }
        write_ops.extend(self.write_parities(&group_snapshot, parities, log));

        let group = &mut self.groups[gid];
        group.strip_len = new_strip_len;
        group.members[slot] = Some(Member { object: object.to_string(), len: data.len() });
        self.by_object.insert(object.to_string(), StripRef { group: gid, slot });
        Ok((pid, BatchReport::parallel(read_ops).then(BatchReport::parallel(write_ops))))
    }

    /// Reads a small object: one Get from its provider, or the
    /// reconstruct-from-survivors degraded path during an outage.
    pub fn read(&self, object: &str, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        let r = *self.by_object.get(object).ok_or_else(|| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("'{object}' is not strip-placed"),
        })?;
        let group = &self.groups[r.group];
        let member = group.members[r.slot].as_ref().expect("by_object in sync");
        let p = self.provider(group.providers[r.slot]);
        if p.is_available() {
            if let Ok(out) = p.get(&key(object)) {
                let report = out.report;
                return Ok((out.value, BatchReport::parallel(vec![report])));
            }
        }
        // Degraded: read the surviving strips and reconstruct — this is
        // the "access all the other three providers" path of §IV-C.
        let (data, ops) = self.reconstruct_group(group, Some(r.slot), path)?;
        let bytes = Bytes::from(data[r.slot][..member.len].to_vec());
        Ok((bytes, BatchReport::parallel(ops)))
    }

    /// Replaces an object's content in place (same or different length) —
    /// the RAID5 read-modify-write.
    pub fn replace(
        &mut self,
        object: &str,
        new_data: &[u8],
        log: &mut UpdateLog,
        path: &str,
    ) -> SchemeResult<BatchReport> {
        let r = *self.by_object.get(object).ok_or_else(|| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("'{object}' is not strip-placed"),
        })?;
        let group_snapshot = self.groups[r.group].clone();
        let new_strip_len = group_snapshot.strip_len.max(new_data.len());
        let member_provider = self.provider(group_snapshot.providers[r.slot]).clone();

        let mut read_ops = Vec::new();
        let mut write_ops = Vec::new();
        let member_up = member_provider.is_available();
        let mut parity_up = true;
        let mut old_parities = Vec::new();
        if member_up {
            for (j, pname) in group_snapshot.parity_names.iter().enumerate() {
                let p = self.provider(group_snapshot.providers[self.m + j]);
                match p.get(&key(pname)) {
                    Ok(out) => {
                        read_ops.push(out.report);
                        old_parities.push(Self::pad(&out.value, new_strip_len));
                    }
                    Err(_) => {
                        parity_up = false;
                        break;
                    }
                }
            }
        }

        if member_up && parity_up {
            // Fast RMW: read old member + parities, delta, write back.
            let old = member_provider.get(&key(object))?;
            read_ops.push(old.report);
            let old_pad = Self::pad(&old.value, new_strip_len);
            let new_pad = Self::pad(new_data, new_strip_len);
            let mut diff = old_pad;
            hyrd_gfec::gf256::xor_slice(&mut diff, &new_pad);
            for (j, p) in old_parities.iter_mut().enumerate() {
                hyrd_gfec::gf256::mul_slice_acc(p, &diff, self.coeffs[j][r.slot]);
            }
            let out = member_provider.put(&key(object), Bytes::copy_from_slice(new_data))?;
            write_ops.push(out.report);
            write_ops.extend(self.write_parities(&group_snapshot, old_parities, log));
        } else {
            // Degraded: reconstruct the group, patch, recompute, write
            // what is reachable and log the rest.
            let (mut strips, ops) = self.reconstruct_group(&group_snapshot, None, path)?;
            read_ops.extend(ops);
            for s in &mut strips {
                s.resize(new_strip_len, 0);
            }
            strips[r.slot] = Self::pad(new_data, new_strip_len);
            let parities = self.parities_from_data(&strips);
            let k = key(object);
            let b = Bytes::copy_from_slice(new_data);
            match member_provider.put(&k, b.clone()) {
                Ok(out) => write_ops.push(out.report),
                Err(_) => log.log_put(member_provider.id(), k, b),
            }
            write_ops.extend(self.write_parities(&group_snapshot, parities, log));
        }

        let group = &mut self.groups[r.group];
        group.strip_len = new_strip_len;
        group.members[r.slot] = Some(Member { object: object.to_string(), len: new_data.len() });
        Ok(BatchReport::parallel(read_ops).then(BatchReport::parallel(write_ops)))
    }

    /// Overwrites a byte range of a strip-placed object — the fast path
    /// is the classic 4-access RMW; a reachable member with an
    /// unreachable parity (or vice versa) falls back to group
    /// reconstruction.
    pub fn update_range(
        &mut self,
        object: &str,
        offset: usize,
        patch: &[u8],
        log: &mut UpdateLog,
        path: &str,
    ) -> SchemeResult<BatchReport> {
        let r = *self.by_object.get(object).ok_or_else(|| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("'{object}' is not strip-placed"),
        })?;
        let member_len = self.groups[r.group].members[r.slot].as_ref().expect("in sync").len;
        if offset.checked_add(patch.len()).is_none_or(|end| end > member_len) {
            return Err(SchemeError::BadRange {
                path: path.to_string(),
                offset: offset as u64,
                len: patch.len() as u64,
                size: member_len as u64,
            });
        }
        let group_snapshot = self.groups[r.group].clone();
        let member_provider = self.provider(group_snapshot.providers[r.slot]).clone();
        let parities_up = group_snapshot
            .providers
            .iter()
            .skip(self.m)
            .all(|&pid| self.provider(pid).is_available());

        if member_provider.is_available() && parities_up {
            // 4-access RMW on the member strip.
            let old = member_provider.get(&key(object))?;
            let mut read_ops = vec![old.report];
            let mut new_content = old.value.to_vec();
            new_content[offset..offset + patch.len()].copy_from_slice(patch);
            let old_pad = Self::pad(&old.value, group_snapshot.strip_len);
            let new_pad = Self::pad(&new_content, group_snapshot.strip_len);
            let mut diff = old_pad;
            hyrd_gfec::gf256::xor_slice(&mut diff, &new_pad);

            let mut parities = Vec::new();
            for (j, pname) in group_snapshot.parity_names.iter().enumerate() {
                let p = self.provider(group_snapshot.providers[self.m + j]);
                let out = p.get(&key(pname))?;
                read_ops.push(out.report);
                let mut parity = Self::pad(&out.value, group_snapshot.strip_len);
                hyrd_gfec::gf256::mul_slice_acc(&mut parity, &diff, self.coeffs[j][r.slot]);
                parities.push(parity);
            }
            let mut write_ops = Vec::new();
            let out = member_provider.put(&key(object), Bytes::from(new_content))?;
            write_ops.push(out.report);
            write_ops.extend(self.write_parities(&group_snapshot, parities, log));
            Ok(BatchReport::parallel(read_ops).then(BatchReport::parallel(write_ops)))
        } else {
            // Degraded: reconstruct the full content and go through the
            // generic replace path.
            let (strips, read_ops) = self.reconstruct_group(&group_snapshot, None, path)?;
            let mut content = strips[r.slot][..member_len].to_vec();
            content[offset..offset + patch.len()].copy_from_slice(patch);
            let batch = self.replace(object, &content, log, path)?;
            Ok(BatchReport::parallel(read_ops).then(batch))
        }
    }

    /// Rebuilds every strip (member or parity) the given provider holds,
    /// for the recovery-traffic experiments. Returns `(strips_rebuilt,
    /// bytes_read, bytes_written, ops)`.
    pub fn repair_provider(
        &self,
        id: ProviderId,
        path: &str,
    ) -> SchemeResult<(u64, u64, u64, Vec<OpReport>)> {
        let mut rebuilt = 0u64;
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut ops = Vec::new();
        for group in &self.groups {
            let has_strip_here = group.providers.contains(&id);
            if !has_strip_here || group.strip_len == 0 {
                continue;
            }
            let (data, read_ops) = self.reconstruct_group(group, None, path)?;
            bytes_read += read_ops.iter().map(|o| o.bytes_out).sum::<u64>();
            ops.extend(read_ops);
            let parities = self.parities_from_data(&data);
            for (pos, &pid) in group.providers.iter().enumerate() {
                if pid != id {
                    continue;
                }
                let (name, bytes) = if pos < self.m {
                    match &group.members[pos] {
                        Some(m) => (m.object.clone(), data[pos][..m.len].to_vec()),
                        None => continue,
                    }
                } else {
                    (group.parity_names[pos - self.m].clone(), parities[pos - self.m].clone())
                };
                let out = self.provider(pid).put(&key(&name), Bytes::from(bytes))?;
                bytes_written += out.report.bytes_in;
                rebuilt += 1;
                ops.push(out.report);
            }
        }
        Ok((rebuilt, bytes_read, bytes_written, ops))
    }

    /// Removes an object: XORs it out of the parity and deletes the strip.
    pub fn remove(
        &mut self,
        object: &str,
        log: &mut UpdateLog,
        path: &str,
    ) -> SchemeResult<BatchReport> {
        // A removal is a replace-with-zeros followed by object deletion.
        let r = *self.by_object.get(object).ok_or_else(|| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: format!("'{object}' is not strip-placed"),
        })?;
        let zero_len = self.groups[r.group].members[r.slot].as_ref().map_or(0, |m| m.len);
        let mut batch = self.replace(object, &vec![0u8; zero_len], log, path)?;
        let group = &self.groups[r.group];
        let pid = group.providers[r.slot];
        let k = key(object);
        match self.provider(pid).remove(&k) {
            Ok(out) => batch = batch.then(BatchReport::parallel(vec![out.report])),
            Err(hyrd_gcsapi::CloudError::Unavailable { .. }) => log.log_remove(pid, k),
            Err(_) => {}
        }
        self.groups[r.group].members[r.slot] = None;
        self.by_object.remove(object);
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_cloudsim::{Fleet, SimClock};
    use hyrd_gfec::Raid5;

    fn store() -> (Fleet, StripStore, UpdateLog) {
        let fleet = Fleet::standard_four(SimClock::new());
        let code = Raid5::new(3).unwrap();
        let store = StripStore::new(&code, fleet.providers().to_vec());
        (fleet, store, UpdateLog::new())
    }

    #[test]
    fn normal_small_read_is_one_access() {
        let (_fleet, mut s, mut log) = store();
        let data = vec![7u8; 2048];
        let (pid, _) = s.place("obj1", &data, &mut log).unwrap();
        let (bytes, report) = s.read("obj1", "/p").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(report.op_count(), 1, "normal small read = one provider");
        assert_eq!(report.ops[0].provider, pid);
    }

    #[test]
    fn degraded_read_reconstructs_from_the_other_three() {
        let (fleet, mut s, mut log) = store();
        // Fill a whole group so reconstruction needs real reads.
        let contents: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 1000 + i * 37]).collect();
        let mut pids = Vec::new();
        for (i, c) in contents.iter().enumerate() {
            let (pid, _) = s.place(&format!("o{i}"), c, &mut log).unwrap();
            pids.push(pid);
        }
        fleet.get(pids[1]).unwrap().force_down();
        let (bytes, report) = s.read("o1", "/p").unwrap();
        assert_eq!(&bytes[..], &contents[1][..]);
        // All three surviving providers answer (2 members + parity).
        assert_eq!(report.op_count(), 3, "degraded read = the other three providers");
        let providers: std::collections::HashSet<_> =
            report.ops.iter().map(|o| o.provider).collect();
        assert!(!providers.contains(&pids[1]));
        assert_eq!(providers.len(), 3);
    }

    #[test]
    fn update_is_the_four_access_rmw() {
        let (_fleet, mut s, mut log) = store();
        s.place("obj", &vec![1u8; 4096], &mut log).unwrap();
        let new = vec![9u8; 4096];
        let batch = s.replace("obj", &new, &mut log, "/p").unwrap();
        // 2 reads (old member + parity) + 2 writes (member + parity).
        assert_eq!(batch.op_count(), 4);
        let (bytes, _) = s.read("obj", "/p").unwrap();
        assert_eq!(&bytes[..], &new[..]);
    }

    #[test]
    fn mixed_lengths_keep_parity_consistent() {
        let (fleet, mut s, mut log) = store();
        let a = vec![0xAAu8; 100];
        let b = vec![0xBBu8; 5000];
        let c = vec![0xCCu8; 1234];
        let (pa, _) = s.place("a", &a, &mut log).unwrap();
        s.place("b", &b, &mut log).unwrap();
        s.place("c", &c, &mut log).unwrap();
        fleet.get(pa).unwrap().force_down();
        let (bytes, _) = s.read("a", "/p").unwrap();
        assert_eq!(&bytes[..], &a[..], "short member reconstructs after padding");
    }

    #[test]
    fn replace_with_longer_content_extends_the_strip() {
        let (fleet, mut s, mut log) = store();
        let (pid, _) = s.place("grow", &[1u8; 64], &mut log).unwrap();
        let longer = vec![2u8; 9000];
        s.replace("grow", &longer, &mut log, "/p").unwrap();
        fleet.get(pid).unwrap().force_down();
        let (bytes, _) = s.read("grow", "/p").unwrap();
        assert_eq!(&bytes[..], &longer[..]);
    }

    #[test]
    fn remove_xors_out_of_parity() {
        let (fleet, mut s, mut log) = store();
        let a = vec![3u8; 800];
        let b = vec![4u8; 900];
        let (pa, _) = s.place("a", &a, &mut log).unwrap();
        let (_pb, _) = s.place("b", &b, &mut log).unwrap();
        s.remove("b", &mut log, "/p").unwrap();
        assert!(!s.contains("b"));
        // 'a' still reconstructs degraded after b's removal.
        fleet.get(pa).unwrap().force_down();
        let (bytes, _) = s.read("a", "/p").unwrap();
        assert_eq!(&bytes[..], &a[..]);
    }

    #[test]
    fn groups_rotate_across_providers() {
        let (_fleet, mut s, mut log) = store();
        // 6 objects fill two groups; rotation moves the parity provider.
        let mut providers = Vec::new();
        for i in 0..6 {
            let (pid, _) = s.place(&format!("o{i}"), &[i as u8; 32], &mut log).unwrap();
            providers.push(pid);
        }
        // Group 0 slots 0..3 = providers 0,1,2 (parity 3); group 1 slots
        // = providers 1,2,3 (parity 0).
        assert_eq!(providers[0].0, 0);
        assert_eq!(providers[3].0, 1);
    }

    #[test]
    fn write_during_outage_is_logged_but_reconstructable() {
        let (fleet, mut s, mut log) = store();
        // First fill slot 0 so the victim gets slot 1.
        s.place("first", &[1u8; 128], &mut log).unwrap();
        let victim = fleet.providers()[1].clone();
        victim.force_down();
        let data = vec![0x5Au8; 256];
        let (pid, _) = s.place("during", &data, &mut log).unwrap();
        assert_eq!(pid, victim.id());
        assert!(!log.is_empty(), "missed member write is logged");
        // Degraded read serves from parity immediately.
        let (bytes, _) = s.read("during", "/p").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        // Replay restores the member strip.
        victim.restore();
        log.replay(victim.as_ref(), &hyrd::telemetry::Collector::disabled()).unwrap();
        let (bytes, report) = s.read("during", "/p").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(report.op_count(), 1, "back to the one-access path");
    }

    #[test]
    fn rs24_strip_groups_survive_two_outages() {
        use hyrd_gfec::ReedSolomon;
        let fleet = Fleet::standard_four(SimClock::new());
        let code = ReedSolomon::new(2, 4).unwrap();
        let mut s = StripStore::new(&code, fleet.providers().to_vec());
        let mut log = UpdateLog::new();
        let a = vec![0x11u8; 700];
        let b = vec![0x22u8; 300];
        let (pa, _) = s.place("a", &a, &mut log).unwrap();
        let (pb, _) = s.place("b", &b, &mut log).unwrap();
        fleet.get(pa).unwrap().force_down();
        fleet.get(pb).unwrap().force_down();
        let (ba, _) = s.read("a", "/p").unwrap();
        let (bb, _) = s.read("b", "/p").unwrap();
        assert_eq!(&ba[..], &a[..]);
        assert_eq!(&bb[..], &b[..]);
    }
}
