//! Seeded model test of the recovery-log rule (dispatcher module docs):
//! random interleavings of create / update / delete with outages,
//! returns and consistency updates of two providers, over one file per
//! tier. Whatever the order, a read returns the acknowledged bytes or a
//! typed error, and once everyone is recovered every copy holds them,
//! nothing is orphaned and the log is empty.

use hyrd::config::HyrdConfig;
use hyrd::Hyrd;
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gcsapi::{CloudStorage, ObjectKey};

const KB: usize = 1024;
/// Both hold a replica of the small file and a fragment of the large one.
const VICTIMS: [&str; 2] = ["Aliyun", "Windows Azure"];
/// `(path, size)`: replicated below the 16 KiB threshold, coded above.
const FILES: [(&str, usize); 2] = [("/small", 8 * KB), ("/large", 48 * KB)];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` bytes no earlier write produced.
    fn content(&mut self, len: usize) -> Vec<u8> {
        let stamp = self.next();
        (0..len).map(|i| (stamp >> (i % 8 * 8)) as u8 ^ i as u8).collect()
    }
}

fn config() -> HyrdConfig {
    HyrdConfig { threshold: 16 * KB as u64, ..HyrdConfig::default() }
}

/// A read is the acknowledged bytes or a typed error, never anything else.
fn check_reads(h: &Hyrd, acked: &[Option<Vec<u8>>; 2], when: &str) {
    for ((path, _), acked) in FILES.iter().zip(acked) {
        if let Ok((bytes, _)) = h.read_file(path) {
            let acked =
                acked.as_ref().unwrap_or_else(|| panic!("{when}: {path} read after delete"));
            assert!(bytes[..] == acked[..], "{when}: {path} read stale bytes");
        }
    }
}

fn run(seed: u64) {
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, config()).expect("valid config");
    let mut rng = SplitMix64(seed);
    let mut acked: [Option<Vec<u8>>; 2] = [None, None];

    for step in 0..48 {
        let when = format!("seed {seed} step {step}");
        let file = rng.below(FILES.len());
        let (path, size) = FILES[file];
        let victim = fleet.by_name(VICTIMS[rng.below(VICTIMS.len())]).expect("in the fleet");
        match rng.below(12) {
            0 | 1 => {
                let data = rng.content(size);
                if h.create_file(path, &data).is_ok() {
                    assert!(acked[file].is_none(), "{when}: created {path} twice");
                    acked[file] = Some(data);
                }
            }
            2..=4 => {
                let len = 1 + rng.below(6 * KB);
                let offset = rng.below(size - len);
                let patch = rng.content(len);
                if h.update_file(path, offset as u64, &patch).is_ok() {
                    let data =
                        acked[file].as_mut().unwrap_or_else(|| panic!("{when}: updated nothing"));
                    data[offset..offset + len].copy_from_slice(&patch);
                }
            }
            5 => {
                if h.delete_file(path).is_ok() {
                    assert!(acked[file].take().is_some(), "{when}: deleted nothing");
                }
            }
            6 | 7 => victim.force_down(),
            8 | 9 => victim.restore(),
            // Fails, and changes nothing, while the victim is down.
            _ => drop(h.recover_provider(victim.id())),
        }
        check_reads(&h, &acked, &when);
    }

    // Everyone returns and gets the consistency update.
    for name in VICTIMS {
        fleet.by_name(name).expect("in the fleet").restore();
    }
    for name in VICTIMS {
        h.recover_provider(fleet.by_name(name).expect("in the fleet").id()).expect("it is up");
    }
    assert_eq!(h.pending_log_len(), 0, "seed {seed}");
    assert_eq!(h.pending_dirty_fragments(), 0, "seed {seed}");
    let refs = h.audit_references();
    for p in fleet.providers() {
        for (name, _) in p.object_inventory(Fleet::CONTAINER) {
            assert!(refs.contains(&name), "seed {seed}: orphan {name} on {}", p.name());
        }
    }
    // Every replica holds the acknowledged bytes ...
    if let Some(small) = &acked[0] {
        let key = ObjectKey::new(Fleet::CONTAINER, hyrd::scheme::object_name(FILES[0].0));
        for name in VICTIMS {
            let stored = fleet.by_name(name).expect("in the fleet").get(&key).expect("a replica");
            assert!(stored.value[..] == small[..], "seed {seed}: stale replica on {name}");
        }
    }
    // ... and a client with no memory of the run reads them from any `m`
    // fragments, or from either replica alone.
    for down in fleet.providers() {
        down.force_down();
        let (fresh, _) = Hyrd::attach(&fleet, config()).expect("three providers list");
        for ((path, _), acked) in FILES.iter().zip(&acked) {
            match (fresh.read_file(path), acked) {
                (Ok((bytes, _)), Some(acked)) => {
                    assert!(bytes[..] == acked[..], "seed {seed}: {path} without {}", down.name())
                }
                (Err(_), None) => {}
                (got, _) => panic!("seed {seed}: {path} without {}: {:?}", down.name(), got.err()),
            }
        }
        down.restore();
    }
}

#[test]
fn any_interleaving_of_writes_outages_and_recoveries_converges_on_the_acked_bytes() {
    for seed in 0..96 {
        run(seed);
    }
}
