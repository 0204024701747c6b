//! Background integrity scrub: sweep stored objects, verify them against
//! the client-side digest index, and rewrite what fails.
//!
//! Checksum-on-read only catches corruption when somebody reads; a cold
//! object can rot silently until the day its fragment is needed for a
//! degraded read. The scrub pass closes that gap. It walks the namespace,
//! fetches every reachable copy/fragment, and
//!
//! * **verifies** each against the recorded SHA-256 digest,
//! * **repairs** corrupt replicas from a verified sibling, and corrupt
//!   fragments by decoding the object from `m` verified fragments and
//!   re-encoding the damaged one,
//! * **refreshes** digests the dispatcher had to drop (ranged erasure
//!   updates rewrite fragments in place), once the stored state proves
//!   self-consistent,
//! * reports anything it cannot restore as **unrecoverable** — the number
//!   the chaos drill asserts to be zero.
//!
//! Unreachable copies (provider in outage, open breaker, pending replay,
//! dirty fragment) are *skipped*, not condemned: outage recovery owns
//! them. A reachable holder that answers "no such object" is different:
//! that copy is **lost**, and is restored like a corrupt one. Scrub
//! traffic runs through the same hardened verbs as foreground I/O
//! ([`Hyrd::get_object`], [`Hyrd::put_object`]).

use std::sync::Arc;

use bytes::Bytes;

use hyrd_gcsapi::{BatchReport, CloudError, CloudStorage, OpReport, ProviderId};
use hyrd_metastore::Placement;

use crate::dispatcher::Hyrd;
use crate::integrity::Verdict;
use crate::scheme::SchemeResult;

hyrd_telemetry::json_struct! {
    /// What one scrub pass found and fixed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ScrubReport {
        /// Stored copies/fragments fetched and examined.
        pub objects_swept: u64,
        /// Copies whose bytes failed their digest.
        pub corrupt_detected: u64,
        /// Copies rewritten with known-good bytes.
        pub repaired: u64,
        /// Objects whose digests were re-recorded after proving consistent.
        pub digests_refreshed: u64,
        /// Objects with no intact source left to repair from.
        pub unrecoverable: u64,
        /// Copies not examined (outage, open breaker, pending replay, dirty).
        pub skipped: u64,
    }
}

impl ScrubReport {
    /// Merges another report into this one.
    pub fn absorb(&mut self, other: ScrubReport) {
        self.objects_swept += other.objects_swept;
        self.corrupt_detected += other.corrupt_detected;
        self.repaired += other.repaired;
        self.digests_refreshed += other.digests_refreshed;
        self.unrecoverable += other.unrecoverable;
        self.skipped += other.skipped;
    }
}

/// One holder's answer to a scrub fetch.
enum Fetched {
    Copy(Bytes),
    /// A scrubbable holder says the object does not exist.
    Lost,
    /// The fetch failed some other way: neither examined nor condemned.
    Failed,
}

impl Hyrd {
    /// Traces a digest mismatch or a lost copy found by the sweep
    /// (distinct from `integrity.corrupt`, which marks read-path
    /// detections). Carries
    /// the file identity — and the fragment index for erasure fragments —
    /// so the exposure tracker can open a below-redundancy interval.
    fn note_scrub_corrupt(
        &self,
        path: &str,
        fragment: Option<u64>,
        provider: ProviderId,
        object: &str,
    ) {
        if self.telemetry.enabled() {
            let mut ev = self.telemetry.event("scrub.corrupt");
            ev.field("path", path)
                .field("provider", self.provider(provider).name())
                .field("object", object);
            if let Some(idx) = fragment {
                ev.field("fragment", idx);
            }
            ev.emit();
            self.telemetry.inc("scrub.corruptions", 1);
        }
    }

    /// Whether scrub may touch `provider`'s copy of `object` right now.
    fn scrubbable(&self, provider: ProviderId, name: &Arc<str>) -> bool {
        self.provider(provider).is_available()
            && self.health.admits(provider, self.now())
            && !self.log_l().is_pending(provider, &Self::key(Arc::clone(name)))
    }

    /// Fetches one copy for scrubbing, pushing its op on success.
    fn scrub_fetch(
        &self,
        provider: ProviderId,
        name: &Arc<str>,
        ops: &mut Vec<OpReport>,
    ) -> Fetched {
        match self.get_object(provider, &Self::key(Arc::clone(name))) {
            Ok(out) => {
                ops.push(out.report);
                Fetched::Copy(out.value)
            }
            Err(CloudError::NoSuchObject { .. }) => Fetched::Lost,
            Err(_) => Fetched::Failed,
        }
    }

    /// Rewrites one copy with known-good bytes, pushing its op. The
    /// repair event mirrors `scrub.corrupt`'s identity fields so the
    /// exposure tracker can close the interval the detection opened.
    fn scrub_rewrite(
        &self,
        path: &str,
        fragment: Option<u64>,
        provider: ProviderId,
        name: &Arc<str>,
        good: &Bytes,
        ops: &mut Vec<OpReport>,
    ) -> bool {
        match self.put_object(provider, &Self::key(Arc::clone(name)), good) {
            Ok(put) => {
                ops.push(put);
                if self.telemetry.enabled() {
                    let mut ev = self.telemetry.event("scrub.repair");
                    ev.field("path", path)
                        .field("provider", self.provider(provider).name())
                        .field("object", &**name);
                    if let Some(idx) = fragment {
                        ev.field("fragment", idx);
                    }
                    ev.emit();
                    self.telemetry.inc("scrub.repairs", 1);
                }
                true
            }
            Err(_) => false,
        }
    }

    fn scrub_replicated(
        &self,
        path: &str,
        providers: &[ProviderId],
        object: &Arc<str>,
        report: &mut ScrubReport,
        ops: &mut Vec<OpReport>,
    ) {
        // `None` is a lost copy.
        let mut copies: Vec<(ProviderId, Option<Bytes>)> = Vec::new();
        for &p in providers {
            if !self.scrubbable(p, object) {
                report.skipped += 1;
                continue;
            }
            match self.scrub_fetch(p, object, ops) {
                Fetched::Copy(bytes) => {
                    report.objects_swept += 1;
                    copies.push((p, Some(bytes)));
                }
                Fetched::Lost => copies.push((p, None)),
                Fetched::Failed => {}
            }
        }
        // The truth: a copy that verifies, or — with no digest on record
        // (a freshly attached client) — what every held copy agrees on;
        // there is no way to tell which of two differing copies it is.
        let known = self.integrity_l().digest(object).is_some();
        let mut held = copies.iter().filter_map(|(_, copy)| copy.as_ref());
        let good = if known {
            held.find(|bytes| self.verify_digest(object, bytes) == Verdict::Verified)
        } else {
            held.next().filter(|first| held.all(|bytes| bytes == *first))
        };
        // Against the truth every other copy is corrupt or lost; against
        // a digest no copy meets, every held copy is corrupt.
        let condemned = |copy: &Option<Bytes>| match good {
            Some(good) => copy.as_ref() != Some(good),
            None => known && copy.is_some(),
        };
        let mut bad: Vec<ProviderId> = Vec::new();
        for (p, copy) in &copies {
            if condemned(copy) {
                report.corrupt_detected += 1;
                self.note_scrub_corrupt(path, None, *p, object);
                bad.push(*p);
            }
        }
        let Some(good) = good else {
            if !copies.is_empty() {
                report.unrecoverable += 1;
            }
            return;
        };
        if !known {
            self.record_digest(Arc::clone(object), good);
            report.digests_refreshed += 1;
        }
        for p in bad {
            if self.scrub_rewrite(path, None, p, object, good, ops) {
                report.repaired += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scrub_erasure(
        &self,
        path: &str,
        layout: &hyrd_gfec::FragmentLayout,
        fragments: &[(ProviderId, Arc<str>)],
        hot_copy: &Option<(ProviderId, Arc<str>)>,
        report: &mut ScrubReport,
        ops: &mut Vec<OpReport>,
    ) {
        let mut fetched: Vec<(usize, ProviderId, Bytes, Verdict)> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        for (i, (p, name)) in fragments.iter().enumerate() {
            if !self.scrubbable(*p, name) || self.dirty_l().contains(path, i) {
                report.skipped += 1;
                continue;
            }
            match self.scrub_fetch(*p, name, ops) {
                Fetched::Copy(bytes) => {
                    report.objects_swept += 1;
                    let verdict = self.verify_digest(name, &bytes);
                    if verdict == Verdict::Corrupt {
                        report.corrupt_detected += 1;
                        self.note_scrub_corrupt(path, Some(i as u64), *p, name);
                    }
                    fetched.push((i, *p, bytes, verdict));
                }
                Fetched::Lost => {
                    report.corrupt_detected += 1;
                    self.note_scrub_corrupt(path, Some(i as u64), *p, name);
                    lost.push(i);
                }
                Fetched::Failed => {}
            }
        }

        // Reconstruct the truth from m trusted fragments: verified ones
        // if we have enough, otherwise (digests dropped after a ranged
        // update) any m fetched — the re-encode check below catches an
        // inconsistent stripe.
        let m = layout.m;
        let trusted: Vec<&(usize, ProviderId, Bytes, Verdict)> =
            fetched.iter().filter(|(_, _, _, v)| *v == Verdict::Verified).collect();
        let from_verified = trusted.len() >= m;
        let source: Vec<&(usize, ProviderId, Bytes, Verdict)> = if from_verified {
            trusted
        } else if fetched.len() >= m && fetched.iter().all(|(_, _, _, v)| *v != Verdict::Corrupt) {
            fetched.iter().collect()
        } else if !fetched.is_empty() {
            // Corrupt fragments and not enough verified ones to decode
            // around them: nothing trustworthy to rebuild from.
            report.unrecoverable += 1;
            return;
        } else {
            return; // nothing reachable; outage recovery's problem
        };

        let frags: Vec<(usize, &Bytes)> =
            source.iter().take(m).map(|(i, _, b, _)| (*i, b)).collect();
        let Ok(object) = hyrd_gfec::decode_object(self.code.as_code(), layout, &frags) else {
            report.unrecoverable += 1;
            return;
        };
        let Ok((_, mut oracle)) = self.planner.split_encode(self.code.as_code(), &object) else {
            report.unrecoverable += 1;
            return;
        };

        if !from_verified {
            // The decode came from unverified fragments; only adopt it if
            // the whole fetched stripe is consistent with the re-encode.
            let consistent = fetched
                .iter()
                .all(|(i, _, b, _)| oracle.get(*i).is_some_and(|want| want[..] == b[..]));
            if !consistent {
                report.unrecoverable += 1;
                return;
            }
        }

        // The truth is established: repair mismatching fragments and
        // (re-)record every fragment digest we are now sure of.
        for (i, p, bytes, verdict) in &fetched {
            let name = &fragments[*i].1;
            if bytes[..] != oracle[*i][..] {
                // Each fragment was fetched once, so its oracle copy can
                // move into the repair write.
                let good = Bytes::from(std::mem::take(&mut oracle[*i]));
                if self.scrub_rewrite(path, Some(*i as u64), *p, name, &good, ops) {
                    report.repaired += 1;
                }
            } else if *verdict == Verdict::Unknown {
                self.record_digest(Arc::clone(name), bytes);
                report.digests_refreshed += 1;
            }
        }
        for i in lost {
            let (p, name) = &fragments[i];
            let good = Bytes::from(std::mem::take(&mut oracle[i]));
            if self.scrub_rewrite(path, Some(i as u64), *p, name, &good, ops) {
                report.repaired += 1;
                self.record_digest(Arc::clone(name), &good);
            }
        }

        // The hot copy, when reachable, must match the decoded object.
        if let Some((p, name)) = hot_copy {
            let fetched = if self.scrubbable(*p, name) {
                self.scrub_fetch(*p, name, ops)
            } else {
                Fetched::Failed
            };
            if matches!(fetched, Fetched::Copy(_)) {
                report.objects_swept += 1;
            }
            match fetched {
                Fetched::Failed => report.skipped += 1,
                Fetched::Copy(bytes) if bytes[..] == object[..] => {
                    if self.integrity_l().digest(name).is_none() {
                        self.record_digest(Arc::clone(name), &bytes);
                        report.digests_refreshed += 1;
                    }
                }
                Fetched::Copy(_) | Fetched::Lost => {
                    report.corrupt_detected += 1;
                    self.note_scrub_corrupt(path, None, *p, name);
                    let good = Bytes::from(object);
                    if self.scrub_rewrite(path, None, *p, name, &good, ops) {
                        report.repaired += 1;
                        self.record_digest(Arc::clone(name), &good);
                    }
                }
            }
        }
    }

    /// One full scrub pass over every file in the namespace. Returns what
    /// was found/fixed plus the op accounting (scrub is background
    /// traffic: latencies sum serially).
    pub fn scrub(&self) -> SchemeResult<(ScrubReport, BatchReport)> {
        let _span = self.telemetry.span("scrub");
        let mut report = ScrubReport::default();
        let mut ops: Vec<OpReport> = Vec::new();

        for (_, files) in self.meta.walk() {
            for (fpath, inode) in files {
                match inode.placement {
                    Placement::Pending => {}
                    Placement::Replicated { providers, object } => {
                        self.scrub_replicated(
                            fpath.as_str(),
                            &providers,
                            &object,
                            &mut report,
                            &mut ops,
                        );
                    }
                    Placement::ErasureCoded { layout, fragments, hot_copy } => {
                        self.scrub_erasure(
                            fpath.as_str(),
                            &layout,
                            &fragments,
                            &hot_copy,
                            &mut report,
                            &mut ops,
                        );
                    }
                }
            }
        }
        Ok((report, BatchReport::serial(ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyrdConfig;
    use crate::driver::synth_content;
    use hyrd_cloudsim::{Fleet, SimClock};

    const KB: usize = 1024;
    const MB: usize = 1024 * 1024;

    fn fleet() -> Fleet {
        Fleet::standard_four(SimClock::new())
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let fleet = fleet();
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        h.create_file("/a", &synth_content("/a", 0, 8 * KB)).expect("up");
        h.create_file("/b", &synth_content("/b", 0, 2 * MB)).expect("up");
        let (report, batch) = h.scrub().expect("scrub runs");
        assert_eq!(report.corrupt_detected, 0);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrecoverable, 0);
        assert!(report.objects_swept >= 6, "2 replicas + 4 fragments");
        assert!(batch.op_count() as u64 >= report.objects_swept);
    }

    #[test]
    fn corrupt_replica_is_detected_and_rewritten() {
        let fleet = fleet();
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let data = synth_content("/f", 0, 8 * KB);
        h.create_file("/f", &data).expect("up");

        // Flip a bit in one replica via the maintenance backdoor.
        let object = crate::scheme::object_name("/f");
        let key = Hyrd::key(object.clone());
        let victim = fleet
            .providers()
            .iter()
            .find(|p| p.corrupt_object(&key, 12345))
            .map(|p| p.id())
            .expect("some provider holds a replica");

        let (report, _) = h.scrub().expect("scrub runs");
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrecoverable, 0);

        // The rewritten copy is bytewise right again.
        let got = fleet.get(victim).expect("fleet member").get(&key).expect("stored");
        assert_eq!(&got.value[..], &data[..]);
        // And a second pass finds nothing.
        let (again, _) = h.scrub().expect("scrub runs");
        assert_eq!(again.corrupt_detected, 0);
        assert_eq!(again.repaired, 0);
    }

    #[test]
    fn corrupt_fragment_is_rebuilt_from_the_stripe() {
        let fleet = fleet();
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let data = synth_content("/big", 0, 3 * MB);
        h.create_file("/big", &data).expect("up");

        let base = crate::scheme::object_name("/big");
        let key0 = Hyrd::key(format!("{base}.f0"));
        fleet
            .providers()
            .iter()
            .find(|p| p.corrupt_object(&key0, 777))
            .expect("some provider holds fragment 0");

        let (report, _) = h.scrub().expect("scrub runs");
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrecoverable, 0);

        // The file reads back correctly and another scrub is quiet.
        let (bytes, _) = h.read_file("/big").expect("up");
        assert_eq!(&bytes[..], &data[..]);
        let (again, _) = h.scrub().expect("scrub runs");
        assert_eq!(again.corrupt_detected, 0);
    }

    /// A holder that answers "no such object" has lost its copy; the
    /// sweep used to pass over it (`repaired: 0`) and leave the file one
    /// failure from gone.
    #[test]
    fn lost_replica_and_lost_fragment_are_restored() {
        let fleet = fleet();
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let small = synth_content("/f", 0, 8 * KB);
        let large = synth_content("/big", 0, 2 * MB);
        h.create_file("/f", &small).expect("up");
        h.create_file("/big", &large).expect("up");

        // Remove one replica and one fragment behind the client's back.
        let replica = Hyrd::key(crate::scheme::object_name("/f"));
        let fragment = Hyrd::key(format!("{}.f2", crate::scheme::object_name("/big")));
        let lose = |key: &hyrd_gcsapi::ObjectKey| {
            let holder = fleet.providers().iter().find(|p| p.get(key).is_ok());
            let holder = holder.expect("some provider holds the object");
            let was = holder.get(key).expect("held").value;
            holder.remove(key).expect("held");
            (holder.id(), was)
        };
        let (replica_holder, _) = lose(&replica);
        let (fragment_holder, fragment_was) = lose(&fragment);

        let (report, _) = h.scrub().expect("scrub runs");
        assert_eq!(report.corrupt_detected, 2);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.unrecoverable, 0);
        let stored = |id, key| fleet.get(id).expect("fleet member").get(key).expect("restored");
        assert_eq!(&stored(replica_holder, &replica).value[..], &small[..]);
        assert_eq!(stored(fragment_holder, &fragment).value, fragment_was);
        let (bytes, _) = h.read_file("/big").expect("up");
        assert_eq!(&bytes[..], &large[..]);

        let (again, _) = h.scrub().expect("scrub runs");
        assert_eq!((again.corrupt_detected, again.repaired), (0, 0), "a second pass is quiet");
    }

    #[test]
    fn ranged_update_drops_digests_and_scrub_refreshes_them() {
        let fleet = fleet();
        let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid config");
        let data = synth_content("/big", 0, 2 * MB);
        h.create_file("/big", &data).expect("up");
        h.update_file("/big", 4096, &synth_content("/big", 1, 32 * KB)).expect("up");

        let before = h.integrity_len();
        let (report, _) = h.scrub().expect("scrub runs");
        assert!(report.digests_refreshed >= 4, "all four fragment digests return");
        assert_eq!(report.unrecoverable, 0);
        assert!(h.integrity_len() > before);

        // Refreshed digests verify on the next scrub.
        let (again, _) = h.scrub().expect("scrub runs");
        assert_eq!(again.digests_refreshed, 0);
        assert_eq!(again.corrupt_detected, 0);
    }

    #[test]
    fn report_absorb_sums_fields() {
        let mut a = ScrubReport { objects_swept: 1, corrupt_detected: 2, ..Default::default() };
        let b = ScrubReport { objects_swept: 3, repaired: 4, skipped: 5, ..Default::default() };
        a.absorb(b);
        assert_eq!(a.objects_swept, 4);
        assert_eq!(a.corrupt_detected, 2);
        assert_eq!(a.repaired, 4);
        assert_eq!(a.skipped, 5);
    }
}
