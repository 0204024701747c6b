//! `ObjectKey` is the `(container, name)` string pair it replaced, held
//! in shared strings: on random names — empty ones, non-ASCII ones, and
//! pairs where one name is a prefix of the other — its `Eq`, `Ord`,
//! `Hash`, `Debug` and `Display` agree with a `(String, String)` oracle,
//! `ObjectKey::new` takes a name as `&str`, `String` or `&String`, and a
//! clone allocates nothing (counted per thread, so the other tests in
//! this binary cannot bill theirs to it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hyrd_gcsapi::ObjectKey;
use hyrd_testkit::{check, Gen};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocator calls while `op` runs.
fn allocs_of<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = op();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Characters of one, two, three and four UTF-8 bytes, the separator and
/// the byte that sorts first.
const ALPHABET: [char; 8] = ['a', 'b', '/', '\0', 'é', 'ß', '€', '🦀'];

fn name(g: &mut Gen) -> String {
    g.vec(0..6, |g| g.pick(&ALPHABET)).into_iter().collect()
}

/// Two names, one of them — now and then — a prefix of the other.
fn pair(g: &mut Gen) -> (String, String) {
    let a = name(g);
    let b = match g.range(0..3u8) {
        0 => a.clone() + &name(g),
        1 => a.chars().take(g.range(0..=a.chars().count())).collect(),
        _ => name(g),
    };
    (a, b)
}

const CONTAINERS: [&str; 3] = ["", "hyrd", "hyrd-b"];

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[test]
fn agrees_with_the_string_pair_it_replaced() {
    check(
        512,
        |g| {
            let (a, b) = pair(g);
            ((g.pick(&CONTAINERS), a), (g.pick(&CONTAINERS), b))
        },
        |((ca, a), (cb, b))| {
            let (ka, kb) = (ObjectKey::new(ca, &a), ObjectKey::new(cb, &b));
            let (oa, ob) = ((ca.to_string(), a.clone()), (cb.to_string(), b.clone()));
            assert_eq!(ka == kb, oa == ob);
            assert_eq!(ka.cmp(&kb), oa.cmp(&ob));
            assert_eq!(ka.partial_cmp(&kb), Some(oa.cmp(&ob)));
            if ka == kb {
                assert_eq!(hash_of(&ka), hash_of(&kb));
            }
            // Field for field, the key hashes as the pair does.
            assert_eq!(hash_of(&ka), hash_of(&oa));
            assert_eq!(ka.to_string(), format!("{ca}/{a}"));
            assert_eq!(
                format!("{ka:?}"),
                format!("ObjectKey {{ container: {ca:?}, name: {a:?} }}")
            );
            assert_eq!(format!("{ka:#?}").lines().count(), 4);
        },
    );
}

#[test]
fn sorts_as_the_string_pairs_do() {
    check(
        64,
        |g| g.vec(0..40, |g| (g.pick(&CONTAINERS), name(g))),
        |pairs| {
            let mut keys: Vec<ObjectKey> =
                pairs.iter().map(|(c, n)| ObjectKey::new(*c, n)).collect();
            let mut oracle: Vec<(String, String)> =
                pairs.iter().map(|(c, n)| (c.to_string(), n.clone())).collect();
            keys.sort();
            oracle.sort();
            let sorted: Vec<(String, String)> =
                keys.iter().map(|k| (k.container.to_string(), k.name.to_string())).collect();
            assert_eq!(sorted, oracle);
        },
    );
}

#[test]
fn new_takes_borrowed_and_owned_names() {
    let owned = String::from("a/b.txt");
    let from_str = ObjectKey::new("bucket", "a/b.txt");
    let from_ref = ObjectKey::new("bucket", &owned);
    let from_owned = ObjectKey::new("bucket", owned.clone());
    let from_container = ObjectKey::new(String::from("bucket"), owned.as_str());
    let shared = ObjectKey::shared("bucket", Arc::from("a/b.txt"));
    for key in [&from_ref, &from_owned, &from_container, &shared] {
        assert_eq!(*key, from_str);
    }
    assert_eq!(from_str.to_string(), "bucket/a/b.txt");
}

#[test]
fn a_clone_allocates_nothing_and_shares_the_name() {
    let key = ObjectKey::new("hyrd", "obj-0123456789abcdef0123456789abcdef");
    let (allocs, clones) = allocs_of(|| [key.clone(), key.clone(), key.clone()]);
    assert_eq!(allocs, 0, "cloning a key allocated");
    for clone in &clones {
        assert!(Arc::ptr_eq(&clone.name, &key.name));
        assert_eq!(clone.cmp(&key), Ordering::Equal);
    }
    let (allocs, shared) = allocs_of(|| ObjectKey::shared("hyrd", Arc::clone(&key.name)));
    assert_eq!((allocs, &shared), (0, &key), "a key over a shared name copied it");
    let (allocs, _) = allocs_of(|| ObjectKey::new("hyrd", "fresh"));
    assert_eq!(allocs, 1, "a new key is its name's one allocation");
}
