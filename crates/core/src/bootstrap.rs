//! The one bootstrap: building the namespace from stored state.
//!
//! "Before accessing a file, its metadata blocks must be loaded into the
//! client memory" (§III-C). [`Hyrd::attach`] and [`Hyrd::restart`] both
//! start here; neither lists, fetches, decodes or votes on a metadata
//! object itself.
//!
//! * **List** every available provider and union the `meta:` / `metad:`
//!   names, remembering who listed what. On restart, the names of the
//!   journal's pending metadata puts join the union — the crashed client
//!   may have been mid-ship, so those bytes can be newer than anything
//!   that landed.
//! * **Fetch** each name from the providers that listed it. A torn read
//!   (truncated or bit-flipped, caught by the `HYM3` / `HYD2` checksum)
//!   is retried twice — wire corruption is transient — before that
//!   replica is skipped.
//! * **Vote**: the highest intact version of a full block wins; a diff
//!   is written once and never overwritten, so its first intact copy is
//!   authoritative. A stale or re-ranked replica never decides what the
//!   namespace is.
//! * **Fold** each directory's diffs onto its winning block with
//!   [`resolve_chain`]; a torn or lost diff strands the chain's suffix
//!   there, exactly like a torn block.
//! * **Load** the resolved blocks parent-first and seed the flush state
//!   at each resolved version, so the next real change ships a diff on
//!   top and a re-flush never regresses.
//!
//! The price is one List per available provider and one Get per
//! (object, provider that listed it), paid once per mount (DESIGN §15).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use hyrd_cloudsim::Fleet;
use hyrd_gcsapi::{CloudStorage, OpReport, ProviderId};
use hyrd_metastore::{resolve_chain, DiffBlock, MetadataBlock, NormPath};

use crate::dispatcher::Hyrd;
use crate::scheme::{SchemeError, SchemeResult};

/// How often one replica is asked for an object that arrives torn.
const TORN_READ_TRIES: usize = 3;

/// Whether a provider object belongs to the metadata plane.
pub(crate) fn is_meta_object(name: &str) -> bool {
    name.starts_with("meta:") || DiffBlock::is_diff_object(name)
}

/// One directory as [`Hyrd::load_namespace`] resolved it.
pub(crate) struct LoadedDir {
    /// The winning block with its diff chain folded in.
    pub block: MetadataBlock,
    /// `block` on the wire (the winner's own bytes when no diff applied).
    pub bytes: Bytes,
    /// Object names of the diffs folded in, in version order.
    pub chain: Vec<Arc<str>>,
}

/// What [`Hyrd::load_namespace`] found and what finding it cost.
#[derive(Default)]
pub(crate) struct LoadedNamespace {
    /// Every directory loaded into the metastore, parent-first.
    pub dirs: Vec<LoadedDir>,
    /// Provider reads that failed length/checksum validation.
    pub torn: u64,
    /// Block/diff names with no intact copy anywhere.
    pub lost: u64,
    /// The Lists and Gets issued, in order.
    pub ops: Vec<OpReport>,
}

/// The intact candidates seen for one object name.
#[derive(Default)]
struct Vote {
    block: Option<(MetadataBlock, Bytes)>,
    diff: Option<DiffBlock>,
}

impl Vote {
    /// Decodes one candidate and counts it; false ⇒ torn.
    fn cast(&mut self, is_diff: bool, bytes: &Bytes) -> bool {
        if is_diff {
            let Ok(diff) = DiffBlock::from_bytes(bytes) else {
                return false;
            };
            self.diff.get_or_insert(diff);
        } else {
            let Ok(block) = MetadataBlock::from_bytes(bytes) else {
                return false;
            };
            if self.block.as_ref().is_none_or(|(best, _)| block.version > best.version) {
                self.block = Some((block, bytes.clone()));
            }
        }
        true
    }
}

impl Hyrd {
    /// Loads the namespace into this (fresh) client's metastore from the
    /// providers' metadata objects and, on restart, the `journaled`
    /// metadata puts the journal's log holds, by object name. See the
    /// module docs for the rule. Fails only when there is nothing to read
    /// from: no provider answered the List and there is no journal.
    pub(crate) fn load_namespace(
        &self,
        journaled: Option<&[(Arc<str>, Bytes)]>,
    ) -> SchemeResult<LoadedNamespace> {
        let mut out = LoadedNamespace::default();

        let mut listers: BTreeMap<String, Vec<ProviderId>> = BTreeMap::new();
        let mut answered = false;
        for p in self.fleet.available() {
            let Ok(listing) = p.list(Fleet::CONTAINER) else {
                continue;
            };
            answered = true;
            out.ops.push(listing.report);
            for name in listing.value.into_iter().filter(|n| is_meta_object(n)) {
                listers.entry(name).or_default().push(p.id());
            }
        }
        if !answered && journaled.is_none() {
            return Err(SchemeError::DataUnavailable {
                path: String::new(),
                detail: "no provider answered the bootstrap List".to_string(),
            });
        }
        let journaled = journaled.unwrap_or_default();
        for (name, _) in journaled {
            listers.entry(name.to_string()).or_default();
        }

        let mut winners: Vec<(MetadataBlock, Bytes)> = Vec::new();
        let mut dir_diffs: BTreeMap<NormPath, Vec<DiffBlock>> = BTreeMap::new();
        for (name, holders) in &listers {
            let is_diff = DiffBlock::is_diff_object(name);
            let mut vote = Vote::default();
            let key = Self::key(name.as_str());
            for &id in holders {
                for _attempt in 0..TORN_READ_TRIES {
                    let Ok(got) = self.get_object(id, &key) else {
                        break;
                    };
                    out.ops.push(got.report);
                    if vote.cast(is_diff, &got.value) {
                        break;
                    }
                    out.torn += 1;
                    if self.telemetry.enabled() {
                        self.telemetry
                            .event("bootstrap.torn_block")
                            .field("object", name.as_str())
                            .field("provider", self.provider(id).name())
                            .emit();
                        self.telemetry.inc("bootstrap.torn_blocks", 1);
                    }
                }
                if vote.diff.is_some() {
                    break;
                }
            }
            for (_, data) in journaled.iter().filter(|(n, _)| **n == **name) {
                vote.cast(is_diff, data);
            }
            match (vote.diff, vote.block) {
                (Some(d), _) => dir_diffs.entry(d.dir.clone()).or_default().push(d),
                (None, Some(winner)) => winners.push(winner),
                (None, None) => {
                    // A lost diff truncates its directory's chain at the
                    // gap; a lost block takes the directory with it. The
                    // rest of the namespace stays mountable.
                    out.lost += 1;
                    if self.telemetry.enabled() {
                        self.telemetry
                            .event("bootstrap.block_lost")
                            .field("object", name.as_str())
                            .emit();
                        self.telemetry.inc("bootstrap.blocks_lost", 1);
                    }
                }
            }
        }

        // The resolved block is re-encoded only when a diff applied;
        // diffs that resolve nothing (stale, or stranded past a gap)
        // leave the winner's own bytes.
        for (block, bytes) in winners {
            let diffs = dir_diffs.remove(&block.dir).unwrap_or_default();
            let r = resolve_chain(block, diffs);
            let bytes = if r.applied.is_empty() { bytes } else { Bytes::from(r.block.to_bytes()) };
            out.dirs.push(LoadedDir { block: r.block, bytes, chain: r.applied });
        }

        // Parent directories first so joins always resolve; seed the
        // flush state at each resolved version so nothing regresses.
        out.dirs.sort_by(|a, b| a.block.dir.cmp(&b.block.dir));
        for dir in &out.dirs {
            self.meta.load_block(&dir.block)?;
        }
        for dir in &out.dirs {
            self.meta.seed_flushed(&dir.block.dir, dir.block.version);
        }
        Ok(out)
    }
}
