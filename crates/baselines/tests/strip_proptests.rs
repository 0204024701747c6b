//! Property-based tests for the RAID strip groups: random
//! place/replace/update/remove sequences, checked against a plain map
//! model under random single-provider outages.

use hyrd_testkit::{check, Gen};

use hyrd::recovery::UpdateLog;
use hyrd_baselines::strips::StripStore;
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gfec::Raid5;

#[derive(Debug, Clone)]
enum Op {
    Place { slot: u8, size: usize },
    Replace { slot: u8, size: usize },
    Update { slot: u8, frac: f64, len: usize },
    Remove { slot: u8 },
    ReadDegraded { slot: u8 },
}

fn op_strategy(g: &mut Gen) -> Op {
    let slot = g.range(0..5u8);
    match g.range(0..5u8) {
        0 => Op::Place { slot, size: g.range(1..20_000usize) },
        1 => Op::Replace { slot, size: g.range(1..20_000usize) },
        2 => Op::Update { slot, frac: g.unit(), len: g.range(1..2048usize) },
        3 => Op::Remove { slot },
        _ => Op::ReadDegraded { slot },
    }
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
fn strip_store_matches_a_map_model() {
    check(
        24,
        |g| g.vec(1..50, op_strategy),
        |ops| {
            let fleet = Fleet::standard_four(SimClock::new());
            let code = Raid5::new(3).unwrap();
            let mut store = StripStore::new(&code, fleet.providers().to_vec());
            let mut log = UpdateLog::new();
            let mut model: [Option<Vec<u8>>; 5] = Default::default();
            let mut version = 0u64;

            for op in ops {
                version += 1;
                match op {
                    Op::Place { slot, size } => {
                        let name = format!("obj{slot}");
                        if model[slot as usize].is_some() {
                            continue;
                        }
                        let data = content(size, version);
                        store.place(&name, &data, &mut log).expect("all providers up");
                        model[slot as usize] = Some(data);
                    }
                    Op::Replace { slot, size } => {
                        let name = format!("obj{slot}");
                        if model[slot as usize].is_none() {
                            continue;
                        }
                        let data = content(size, version ^ 0xFF);
                        store.replace(&name, &data, &mut log, "/p").expect("present");
                        model[slot as usize] = Some(data);
                    }
                    Op::Update { slot, frac, len } => {
                        let name = format!("obj{slot}");
                        let Some(cur) = model[slot as usize].clone() else { continue };
                        if cur.is_empty() {
                            continue;
                        }
                        let offset = ((cur.len() - 1) as f64 * frac) as usize;
                        let len = len.min(cur.len() - offset).max(1);
                        let patch = content(len, version ^ 0xABCD);
                        store
                            .update_range(&name, offset, &patch, &mut log, "/p")
                            .expect("present, in bounds");
                        let m = model[slot as usize].as_mut().expect("present");
                        m[offset..offset + len].copy_from_slice(&patch);
                    }
                    Op::Remove { slot } => {
                        let name = format!("obj{slot}");
                        if model[slot as usize].is_none() {
                            continue;
                        }
                        store.remove(&name, &mut log, "/p").expect("present");
                        model[slot as usize] = None;
                    }
                    Op::ReadDegraded { slot } => {
                        let name = format!("obj{slot}");
                        let Some(want) = &model[slot as usize] else { continue };
                        // Fail the member's own provider: the read must
                        // reconstruct from the survivors.
                        let holder = store.provider_of(&name).expect("placed");
                        fleet.get(holder).expect("fleet member").force_down();
                        let (got, _) = store.read(&name, "/p").expect("reconstructable");
                        fleet.get(holder).expect("fleet member").restore();
                        assert_eq!(&got[..], &want[..], "degraded slot {}", slot);
                    }
                }

                // Invariant: every live object reads correctly right now.
                for (i, m) in model.iter().enumerate() {
                    if let Some(want) = m {
                        let (got, _) = store.read(&format!("obj{i}"), "/p").expect("live");
                        assert_eq!(&got[..], &want[..], "slot {} after {:?}", i, version);
                    }
                }
            }
        },
    );
}
