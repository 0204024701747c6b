//! One provider under threads: four threads run a few thousand mixed ops
//! each against one `SimProvider` with flakiness, a burst window and torn
//! puts, traced into a ring. Each op is one critical section, so whatever
//! the interleaving, the provider's books must agree with what the
//! callers saw: per-kind op counts with the `Ok` results, `errors` with
//! the `Err` results, the `stored_bytes` gauge with the objects actually
//! stored, and the trace with one `provider.op` per `Ok`.

use std::time::Duration;

use bytes::Bytes;
use hyrd_cloudsim::{FaultPlan, SimClock, SimProvider, WellKnownProvider};
use hyrd_gcsapi::{CloudResult, CloudStorage, ObjectKey, OpKind, OpOutcome, ProviderId};
use hyrd_telemetry::Collector;

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 2_000;
/// Objects every thread writes, reads and removes, so threads race on
/// the same entries and the same gauge.
const SHARED_KEYS: u64 = 6;

/// What one thread saw: successful ops per kind, and failures.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    put: u64,
    get: u64,
    list: u64,
    remove: u64,
    errors: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Seen {
    fn tally<T>(&mut self, result: CloudResult<OpOutcome<T>>) {
        match result {
            Ok(out) => {
                let r = out.report;
                match r.kind {
                    OpKind::Put => self.put += 1,
                    OpKind::Get => self.get += 1,
                    OpKind::List => self.list += 1,
                    OpKind::Remove => self.remove += 1,
                    OpKind::Create => panic!("no thread creates a container"),
                }
                self.bytes_in += r.bytes_in;
                self.bytes_out += r.bytes_out;
            }
            Err(_) => self.errors += 1,
        }
    }

    fn oks(&self) -> u64 {
        self.put + self.get + self.list + self.remove
    }

    fn add(mut self, other: Seen) -> Seen {
        self.put += other.put;
        self.get += other.get;
        self.list += other.list;
        self.remove += other.remove;
        self.errors += other.errors;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self
    }
}

/// One thread's op stream (splitmix64 over the thread's seed).
fn run_thread(p: &SimProvider, clock: &SimClock, thread: u64) -> Seen {
    let mut state = thread.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut seen = Seen::default();
    for _ in 0..OPS_PER_THREAD {
        // The burst window opens and closes while the threads run.
        clock.advance(Duration::from_millis(1));
        let r = next();
        let key = if r % 3 == 0 {
            ObjectKey::new("data", format!("shared-{}", (r >> 8) % SHARED_KEYS))
        } else {
            ObjectKey::new("data", format!("t{thread}-{}", (r >> 8) % 16))
        };
        let len = 1 + (r >> 16) % 3_000;
        match (r >> 32) % 12 {
            0..=3 => seen.tally(p.put(&key, Bytes::from(vec![thread as u8; len as usize]))),
            4 | 5 => seen.tally(p.put_range(&key, (r >> 40) % 2_000, Bytes::from(vec![7u8; 64]))),
            6 | 7 => seen.tally(p.get(&key)),
            8 => seen.tally(p.get_range(&key, (r >> 40) % 1_000, 256)),
            9 | 10 => seen.tally(p.remove(&key)),
            _ => seen.tally(p.list("data")),
        }
    }
    seen
}

#[test]
fn one_provider_keeps_its_books_under_four_threads() {
    let clock = SimClock::new();
    let p = SimProvider::well_known(ProviderId(0), WellKnownProvider::AmazonS3, clock.clone());
    let tel = Collector::builder(clock.clone()).ring(1 << 16).build();
    p.set_telemetry(tel.clone());
    p.create("data").unwrap();
    p.set_flakiness(0.03);
    p.set_fault_plan(
        FaultPlan::quiet()
            .with_seed(17)
            .with_burst(Duration::from_secs(2), Duration::from_secs(4), 300)
            .with_torn_puts(60),
    );

    let per_thread: Vec<Seen> = std::thread::scope(|scope| {
        let (p, clock) = (&p, &clock);
        let handles: Vec<_> =
            (0..THREADS).map(|t| scope.spawn(move || run_thread(p, clock, t))).collect();
        handles.into_iter().map(|h| h.join().expect("every thread joins")).collect()
    });
    assert_eq!(per_thread.len() as u64, THREADS);
    let seen = per_thread.into_iter().fold(Seen::default(), Seen::add);
    assert_eq!(seen.oks() + seen.errors, THREADS * OPS_PER_THREAD);
    assert!(seen.errors > 0 && seen.put > 0 && seen.remove > 0, "a mixed run: {seen:?}");

    let stats = p.stats();
    assert_eq!(stats.create, 1, "the container");
    assert_eq!(
        (stats.put, stats.get, stats.list, stats.remove),
        (seen.put, seen.get, seen.list, seen.remove),
        "per-kind op counts are the Ok results"
    );
    assert_eq!(stats.errors, seen.errors, "errors are the Err results");
    assert_eq!((stats.bytes_in, stats.bytes_out), (seen.bytes_in, seen.bytes_out));

    let inventory: u64 = p.object_inventory("data").iter().map(|(_, len)| len).sum();
    assert_eq!(p.stored_bytes(), inventory, "the gauge is what is stored");

    let ops = tel.ring_records().iter().filter(|r| r.is_event("provider.op")).count() as u64;
    assert_eq!(ops, seen.oks() + 1, "one provider.op per Ok, the create's included");
}
