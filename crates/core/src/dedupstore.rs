//! [`DedupStore`]: the deduplicating layer over any [`Scheme`].
//!
//! Files are stored as a **manifest** (the chunk fingerprint list, as
//! JSON) plus one object per *unique* chunk. A chunk
//! already in the index never travels over the network again — the
//! transfer reduction §VI is after. Chunk objects inherit the underlying
//! scheme's redundancy policy: with HyRD underneath, the (small) chunks
//! land replicated on the performance tier and the manifest rides the
//! same path as metadata.
//!
//! The chunking, fingerprinting, and index primitives live in the leaf
//! [`hyrd_dedup`] crate; this module supplies the [`Scheme`]-coupled
//! store on top of them.

use std::collections::HashMap;

use bytes::Bytes;

use hyrd_gcsapi::BatchReport;

use crate::scheme::{Scheme, SchemeError, SchemeResult};
use hyrd_dedup::chunker::{Chunker, ChunkerConfig};
use hyrd_dedup::index::{ChunkIndex, Fingerprint};
use hyrd_dedup::sha256::hex;

hyrd_telemetry::json_struct! {
    /// A stored file's chunk list.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Manifest {
        /// Total file length.
        len: u64,
        /// Chunk fingerprints (hex) in order, with lengths.
        chunks: Vec<(String, usize)>,
    }
}

/// Cumulative dedup effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Logical bytes written through the store.
    pub logical_bytes: u64,
    /// Bytes actually sent to the cloud (unique chunks + manifests).
    pub transferred_bytes: u64,
    /// Chunks that were already present (no network transfer).
    pub duplicate_chunks: u64,
    /// Chunks stored for the first time.
    pub unique_chunks: u64,
}

impl DedupStats {
    /// The classic dedup ratio: logical bytes per transferred byte.
    pub fn dedup_ratio(&self) -> f64 {
        if self.transferred_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.transferred_bytes as f64
    }
}

/// The deduplicating store.
///
/// ```
/// use hyrd::prelude::*;
/// use hyrd::DedupStore;
///
/// let fleet = Fleet::standard_four(SimClock::new());
/// let hyrd = Hyrd::new(&fleet, HyrdConfig::default()).unwrap();
/// let mut store = DedupStore::new(hyrd);
///
/// let data = vec![42u8; 100_000];
/// store.write_file("/a", &data).unwrap();
/// store.write_file("/b", &data).unwrap(); // same bytes: only a manifest moves
/// assert!(store.stats().dedup_ratio() > 1.8);
/// let (bytes, _) = store.read_file("/b").unwrap();
/// assert_eq!(&bytes[..], &data[..]);
/// ```
pub struct DedupStore<S: Scheme> {
    inner: S,
    chunker: Chunker,
    index: ChunkIndex,
    /// Path → (manifest, fingerprints) for files written through us.
    manifests: HashMap<String, (Manifest, Vec<Fingerprint>)>,
    stats: DedupStats,
}

impl<S: Scheme> DedupStore<S> {
    /// Wraps a scheme with the default chunking parameters.
    pub fn new(inner: S) -> Self {
        DedupStore::with_config(inner, ChunkerConfig::default())
    }

    /// Wraps a scheme with explicit chunking parameters.
    pub fn with_config(inner: S, config: ChunkerConfig) -> Self {
        DedupStore {
            inner,
            chunker: Chunker::new(config),
            index: ChunkIndex::new(),
            manifests: HashMap::new(),
            stats: DedupStats::default(),
        }
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Dedup effectiveness so far.
    pub fn stats(&self) -> &DedupStats {
        &self.stats
    }

    /// Unique chunks currently retained.
    pub fn unique_chunks(&self) -> usize {
        self.index.unique_chunks()
    }

    /// The index's client-side memory footprint in bytes (§VI's cost).
    pub fn index_memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }

    fn chunk_path(fp: &Fingerprint) -> String {
        format!("/.dedup/chunks/{}", hex(fp))
    }

    fn manifest_path(path: &str) -> String {
        format!("/.dedup/manifests{path}")
    }

    /// Writes a file, storing only chunks the cloud has not seen.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> SchemeResult<BatchReport> {
        if self.manifests.contains_key(path) {
            return Err(SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "already stored through this dedup client".to_string(),
            });
        }
        let chunks = self.chunker.chunk(data);
        let mut batch = BatchReport::empty();
        let mut fps = Vec::with_capacity(chunks.len());
        let mut entries = Vec::with_capacity(chunks.len());

        for chunk in &chunks {
            entries.push((hex(&chunk.digest), chunk.data.len()));
            fps.push(chunk.digest);
            if self.index.add_ref(&chunk.digest).is_some() {
                self.stats.duplicate_chunks += 1;
                continue; // dedup hit: nothing moves
            }
            let object = Self::chunk_path(&chunk.digest);
            let b = self.inner.create_file(&object, &chunk.data)?;
            self.stats.unique_chunks += 1;
            self.stats.transferred_bytes += chunk.data.len() as u64;
            self.index.insert(chunk.digest, object, chunk.data.len());
            batch = batch.alongside(b); // unique chunks upload in parallel
        }

        let manifest = Manifest { len: data.len() as u64, chunks: entries };
        let mbytes = hyrd_telemetry::json::to_string(&manifest).into_bytes();
        self.stats.transferred_bytes += mbytes.len() as u64;
        self.stats.logical_bytes += data.len() as u64;
        let mb = self.inner.create_file(&Self::manifest_path(path), &mbytes)?;
        self.manifests.insert(path.to_string(), (manifest, fps));
        Ok(batch.then(mb))
    }

    /// Reads a file back by fetching its manifest and chunks.
    pub fn read_file(&mut self, path: &str) -> SchemeResult<(Bytes, BatchReport)> {
        // The manifest read is charged (it lives in the cloud); the local
        // copy is used to avoid re-parsing.
        let (_, mbatch) = self.inner.read_file(&Self::manifest_path(path))?;
        let (manifest, fps) = self
            .manifests
            .get(path)
            .ok_or_else(|| SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "manifest not tracked by this client".to_string(),
            })?
            .clone();

        let mut out = Vec::with_capacity(manifest.len as usize);
        let mut batch = mbatch;
        let mut chunk_batches = BatchReport::empty();
        for fp in &fps {
            let entry = self.index.get(fp).ok_or_else(|| SchemeError::DataUnavailable {
                path: path.to_string(),
                detail: "chunk missing from index".to_string(),
            })?;
            let (bytes, b) = self.inner.read_file(&entry.object.clone())?;
            out.extend_from_slice(&bytes);
            chunk_batches = chunk_batches.alongside(b); // chunks fetch in parallel
        }
        batch = batch.then(chunk_batches);
        debug_assert_eq!(out.len() as u64, manifest.len);
        Ok((Bytes::from(out), batch))
    }

    /// Deletes a file; chunks whose last reference this was are removed
    /// from the cloud too (garbage collection by refcount).
    pub fn delete_file(&mut self, path: &str) -> SchemeResult<BatchReport> {
        let (_, fps) = self.manifests.remove(path).ok_or_else(|| SchemeError::DataUnavailable {
            path: path.to_string(),
            detail: "not stored through this dedup client".to_string(),
        })?;
        let mut batch = self.inner.delete_file(&Self::manifest_path(path))?;
        for fp in fps {
            if let Some(object) = self.index.release(&fp) {
                let b = self.inner.delete_file(&object)?;
                batch = batch.alongside(b);
            }
        }
        Ok(batch)
    }

    /// Logical size of a stored file.
    pub fn file_size(&self, path: &str) -> Option<u64> {
        self.manifests.get(path).map(|(m, _)| m.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyrdConfig;
    use crate::dispatcher::Hyrd;
    use hyrd_cloudsim::{Fleet, SimClock};

    fn store() -> (Fleet, DedupStore<Hyrd>) {
        let fleet = Fleet::standard_four(SimClock::new());
        let hyrd = Hyrd::new(&fleet, HyrdConfig::default()).expect("valid default config");
        (fleet, DedupStore::new(hyrd))
    }

    fn content(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_random_content() {
        let (_, mut d) = store();
        let data = content(300_000, 1);
        d.write_file("/f", &data).expect("fleet up");
        let (bytes, _) = d.read_file("/f").expect("just wrote");
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(d.file_size("/f"), Some(300_000));
    }

    #[test]
    fn identical_file_transfers_almost_nothing() {
        let (_, mut d) = store();
        let data = content(500_000, 2);
        d.write_file("/a", &data).expect("fleet up");
        let after_first = d.stats().transferred_bytes;
        d.write_file("/b", &data).expect("fleet up");
        let second_cost = d.stats().transferred_bytes - after_first;
        // Only the manifest travels for the duplicate file.
        assert!(second_cost < 20_000, "duplicate file moved {second_cost} bytes over the network");
        assert!(d.stats().dedup_ratio() > 1.9, "ratio {}", d.stats().dedup_ratio());

        // Both files read correctly.
        let (a, _) = d.read_file("/a").expect("present");
        let (b, _) = d.read_file("/b").expect("present");
        assert_eq!(a, b);
    }

    #[test]
    fn shared_region_dedups_across_different_files() {
        let (_, mut d) = store();
        let shared = content(400_000, 3);
        let mut a = content(20_000, 4);
        a.extend_from_slice(&shared);
        let mut b = content(35_000, 5);
        b.extend_from_slice(&shared);

        d.write_file("/a", &a).expect("fleet up");
        let after_a = d.stats().transferred_bytes;
        d.write_file("/b", &b).expect("fleet up");
        let b_cost = d.stats().transferred_bytes - after_a;
        assert!(
            (b_cost as f64) < 0.35 * b.len() as f64,
            "file b moved {b_cost} of {} bytes despite the shared region",
            b.len()
        );
        let (bb, _) = d.read_file("/b").expect("present");
        assert_eq!(&bb[..], &b[..]);
    }

    #[test]
    fn delete_garbage_collects_unreferenced_chunks_only() {
        let (fleet, mut d) = store();
        let data = content(200_000, 6);
        d.write_file("/a", &data).expect("fleet up");
        d.write_file("/b", &data).expect("fleet up");
        let unique = d.unique_chunks();
        assert!(unique > 0);

        // Deleting one reference keeps every chunk alive.
        d.delete_file("/a").expect("present");
        assert_eq!(d.unique_chunks(), unique);
        let (bytes, _) = d.read_file("/b").expect("survives");
        assert_eq!(&bytes[..], &data[..]);

        // Deleting the last reference frees the chunks in the cloud.
        let stored_before = fleet.total_stored_bytes();
        d.delete_file("/b").expect("present");
        assert_eq!(d.unique_chunks(), 0);
        assert!(fleet.total_stored_bytes() < stored_before);
        assert!(d.read_file("/b").is_err());
    }

    #[test]
    fn survives_an_outage_through_the_underlying_scheme() {
        let (fleet, mut d) = store();
        let data = content(250_000, 7);
        d.write_file("/f", &data).expect("fleet up");
        fleet.by_name("Aliyun").expect("standard fleet").force_down();
        let (bytes, _) = d.read_file("/f").expect("chunks are HyRD-redundant");
        assert_eq!(&bytes[..], &data[..]);
    }

    #[test]
    fn duplicate_write_is_rejected() {
        let (_, mut d) = store();
        d.write_file("/f", &content(1000, 8)).expect("fleet up");
        assert!(d.write_file("/f", &content(1000, 9)).is_err());
    }

    #[test]
    fn index_memory_is_reported() {
        let (_, mut d) = store();
        d.write_file("/f", &content(300_000, 10)).expect("fleet up");
        let per_chunk = d.index_memory_bytes() as f64 / d.unique_chunks() as f64;
        // Digest + entry + name: order 100 bytes per chunk — the §VI
        // client-memory cost, quantified.
        assert!(per_chunk > 32.0 && per_chunk < 400.0, "{per_chunk}");
    }
}
