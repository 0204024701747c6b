//! A provider's objects are kept in a hash map per container, yet every
//! order an observer can see is name order. Filled in random order —
//! names with non-ASCII characters and names that are prefixes of each
//! other, in two containers, some objects ghosts and some empty — a
//! provider must list and inventory in name order, and each rot event of
//! a `FaultPlan` must flip the very (object, bit) that a reference
//! walking the objects in (container, name) order picks.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use hyrd_cloudsim::{
    FaultPlan, LatencyModel, PriceBook, ProviderCategory, ProviderProfile, SimClock, SimProvider,
};
use hyrd_gcsapi::{CloudStorage, ObjectKey, ProviderId};
use hyrd_testkit::{check, Gen};

const CONTAINERS: [&str; 2] = ["a", "b"];
const ALPHABET: [char; 5] = ['x', 'y', '/', 'é', '€'];
const ROT_EVENTS: u64 = 6;

#[derive(Debug)]
struct Object {
    container: &'static str,
    name: String,
    bytes: Vec<u8>,
    ghost: bool,
}

/// Objects in the order they are put, each (container, name) once.
fn objects(g: &mut Gen) -> Vec<Object> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..g.len(1..80) {
        let container = g.pick(&CONTAINERS);
        let name: String = g.vec(0..5, |g| g.pick(&ALPHABET)).into_iter().collect();
        if seen.insert((container, name.clone())) {
            let bytes = g.bytes(0..40);
            out.push(Object { container, name, bytes, ghost: g.range(0..4u8) == 0 });
        }
    }
    out
}

fn provider(clock: &SimClock) -> SimProvider {
    let profile = ProviderProfile {
        name: "test".to_string(),
        prices: PriceBook::FREE,
        latency: LatencyModel::instant(),
        category: ProviderCategory::Both,
    };
    let p = SimProvider::new(ProviderId(0), profile, clock.clone());
    for c in CONTAINERS {
        p.create(c).expect("fresh provider");
    }
    p
}

/// What the provider must hold: (container, name) → (bytes, ghost), in
/// name order.
type Reference = BTreeMap<(&'static str, String), (Vec<u8>, bool)>;

fn filled(p: &SimProvider, objects: &[Object]) -> Reference {
    let mut reference = Reference::new();
    for o in objects {
        p.set_ghost_mode(o.ghost);
        p.put(&ObjectKey::new(o.container, &o.name), Bytes::from(o.bytes.clone())).expect("quiet");
        reference.insert((o.container, o.name.clone()), (o.bytes.clone(), o.ghost));
    }
    p.set_ghost_mode(false);
    reference
}

#[test]
fn listings_and_inventories_are_in_name_order() {
    check(128, objects, |objects| {
        let p = provider(&SimClock::new());
        let reference = filled(&p, &objects);
        for c in CONTAINERS {
            let want: Vec<(String, u64)> = reference
                .iter()
                .filter(|((container, _), _)| *container == c)
                .map(|((_, name), (bytes, _))| (name.clone(), bytes.len() as u64))
                .collect();
            let names: Vec<String> = want.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(p.list(c).expect("quiet").value, names, "list of {c}");
            assert_eq!(p.object_inventory(c), want, "inventory of {c}");
        }
    });
}

#[test]
fn rot_picks_the_object_a_name_ordered_walk_picks() {
    check(
        128,
        |g| (objects(g), g.range(..)),
        |(objects, seed): (Vec<Object>, u64)| {
            let clock = SimClock::new();
            let p = provider(&clock);
            let mut reference = filled(&p, &objects);
            let hour = Duration::from_secs(3600);
            let plan = (1..=ROT_EVENTS).fold(FaultPlan::quiet().with_seed(seed), |plan, h| {
                plan.with_rot_at(hour * h as u32)
            });
            p.set_fault_plan(plan.clone());
            for event in 0..ROT_EVENTS as usize {
                clock.advance(hour);
                // Any op applies the events that are due.
                p.list(CONTAINERS[0]).expect("quiet");
                let entropy = plan.rot_due(event, clock.now()).expect("due");
                let k = entropy as usize % reference.len();
                let (bytes, ghost) = reference.values_mut().nth(k).expect("k < len");
                if !*ghost && !bytes.is_empty() {
                    let bit = (entropy >> 17) as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                for ((container, name), (bytes, ghost)) in &reference {
                    let got = p.get(&ObjectKey::new(*container, name)).expect("stored").value;
                    let want = if *ghost { vec![0; bytes.len()] } else { bytes.clone() };
                    assert_eq!(&got[..], &want[..], "after rot event {event}: {container}/{name}");
                }
            }
        },
    );
}
