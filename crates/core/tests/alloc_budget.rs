//! Allocation budgets of the request path.
//!
//! **Large objects** (DESIGN.md §8, "buffer ownership"): the bytes the
//! client asks the allocator for per large op are the bytes the op has
//! to produce, plus small change.
//!
//! * a read — healthy or degraded — allocates the object once: fetched
//!   fragments are borrowed where they lie and the decode writes into
//!   one exactly-sized buffer — in a pinned number of allocations;
//! * a create allocates the `n` fragments it ships (`n/m` × the object)
//!   and nothing payload-sized besides;
//! * a ranged update allocates the ranges it writes, never the fragments
//!   it patches (the provider patches a stored fragment in place as long
//!   as nobody still holds a view of it), and the replay of a window it
//!   missed allocates no window-sized buffer at all;
//! * and each of them, and that replay, in a pinned number of
//!   allocations: the erasure-coded path keeps its decode plans and
//!   ranged-update lists on the stack (DESIGN.md §8.1).
//!
//! **Small objects** (DESIGN.md §7, §11, §15): create, 4 KiB update,
//! read, list and delete of a 4 KB replicated file on a quiet fleet,
//! flush included, cost an exact number of allocations that does not
//! depend on how many siblings share the directory — the metadata flush
//! encodes what changed, not the directory; an object's name is made
//! once, when the object is, and every key and layer below shares it; the
//! inode is lent, not cloned; a listing allocates one name per entry on
//! top — and a 4 KiB update of a large replica
//! allocates for the 4 KiB, however long the replica is: the
//! write-through cache's entry is the client's one copy (DESIGN.md §8.1)
//! and is patched where it lies, copied only while something else still
//! shares its buffer.
//!
//! **Telemetry** (DESIGN.md §9): watching costs what it writes. With a
//! JSONL sink and the observatory's tap attached, an event, a labelled
//! span, a labelled metric and the tap's fold of a `provider.op` allocate
//! nothing once their names have been seen; the disabled collector
//! allocates nothing ever; and folding a trace back allocates for the
//! providers and files in it, not for its records.
//!
//! **Integrity** (DESIGN.md §7 item 3): recording an object allocates its
//! digest table and nothing to hash with — not even its name, which the
//! index shares with the caller's key — and verifying allocates nothing:
//! the block digests are computed into a table on the stack, whichever
//! kernel computes them.
//!
//! **The driver** (DESIGN.md §8.2): a verified replay remembers what it
//! wrote as fill runs, not as bytes — a 2 MiB file with eight updates in
//! it is held in under a kibibyte, and checking a read allocates nothing.
//!
//! The counts are the same under the dev and the release profile (CI
//! runs this test under both; `hyrd-perf` measures release builds).
//!
//! One `#[test]` on purpose: the counters are process-wide, and a second
//! test running on another thread would bill its bytes to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyrd::config::HyrdConfig;
use hyrd::driver::{replay_with_state, synth_content, ReplayOptions, ReplayState};
use hyrd::observatory::{self, SharedObservatory};
use hyrd::telemetry::{
    Collector, Counter, Gauge, HistogramSeries, ManualClock, SharedBuf, SpanName,
};
use hyrd::{Hyrd, IntegrityIndex, Scheme, SchemeResult, Verdict};
use hyrd_cloudsim::{Fleet, SimClock};
use hyrd_gcsapi::{BatchReport, CloudStorage};
use hyrd_workloads::FsOp;

/// System allocator that counts the calls made to it and adds up the
/// bytes requested (a `realloc` requests its new size), the way
/// `hyrd-perf`'s ledger counts them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `op` runs.
fn requested_by<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = op();
    (REQUESTED.load(Ordering::Relaxed) - before, out)
}

/// Allocator calls and bytes requested while `op` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cost {
    allocs: u64,
    bytes: u64,
}

fn cost_of<T>(op: impl FnOnce() -> T) -> (Cost, T) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let (bytes, out) = requested_by(op);
    (Cost { allocs: ALLOCS.load(Ordering::Relaxed) - allocs, bytes }, out)
}

#[test]
fn request_path_allocation_budgets() {
    large_object_ops_allocate_what_they_produce();
    small_object_ops_cost_what_they_change();
    telemetry_costs_what_it_writes();
    hashing_allocates_the_digest_table_and_nothing_else();
    the_read_oracle_holds_runs_not_bytes();
}

/// A scheme that stores nothing and allocates nothing: whatever a replay
/// through it requests, the driver requested.
struct Inert {
    content: bytes::Bytes,
}

impl Scheme for Inert {
    fn name(&self) -> &str {
        ""
    }
    fn create_file(&mut self, _: &str, _: &[u8]) -> SchemeResult<BatchReport> {
        Ok(BatchReport::empty())
    }
    fn read_file(&mut self, _: &str) -> SchemeResult<(bytes::Bytes, BatchReport)> {
        Ok((self.content.clone(), BatchReport::empty()))
    }
    fn update_file(&mut self, _: &str, _: u64, _: &[u8]) -> SchemeResult<BatchReport> {
        Ok(BatchReport::empty())
    }
    fn delete_file(&mut self, _: &str) -> SchemeResult<BatchReport> {
        Ok(BatchReport::empty())
    }
    fn list_dir(&mut self, _: &str) -> SchemeResult<(Vec<String>, BatchReport)> {
        Ok((Vec::new(), BatchReport::empty()))
    }
    fn file_size(&self, _: &str) -> Option<u64> {
        None
    }
    fn recover_provider(
        &mut self,
        _: hyrd_gcsapi::ProviderId,
    ) -> SchemeResult<(hyrd::RecoveryReport, BatchReport)> {
        unreachable!("no replayed op recovers a provider")
    }
}

fn the_read_oracle_holds_runs_not_bytes() {
    const MB: u64 = 1024 * 1024;
    let clock = SimClock::new();
    let verified = ReplayOptions { verify_reads: true, ..ReplayOptions::default() };
    let path = || "/big.bin".to_string();
    let mut writes = vec![FsOp::Create { path: path(), size: 2 * MB }];
    writes.extend((0..8).map(|k| FsOp::Update {
        path: path(),
        offset: k * 200_000 + 7,
        len: 65_536,
    }));
    let read = [FsOp::Read { path: path() }];

    let mut scheme = Inert { content: bytes::Bytes::new() };
    let mut state = ReplayState::default();
    let live = LIVE.load(Ordering::Relaxed);
    let stats = replay_with_state(&mut scheme, &writes, &clock, &verified, &mut state);
    assert_eq!((stats.errors, stats.overall.count()), (0, 9));
    drop(stats);
    // The file table, one copy of the path and seventeen runs.
    let held = LIVE.load(Ordering::Relaxed) - live;
    assert!(held < 1024, "a 2 MiB file with 8 updates is remembered in {held} B");

    // The same read checked and unchecked: the check allocates nothing.
    scheme.content = state.expected_content("/big.bin").expect("written above").into();
    let unchecked = ReplayOptions::default();
    let (plain, stats) =
        cost_of(|| replay_with_state(&mut scheme, &read, &clock, &unchecked, &mut state));
    assert_eq!((stats.errors, stats.verify_failures), (0, 0));
    let (checked, stats) =
        cost_of(|| replay_with_state(&mut scheme, &read, &clock, &verified, &mut state));
    assert_eq!((stats.errors, stats.verify_failures), (0, 0));
    assert_eq!(checked, plain, "verifying a read allocated");
    println!(
        "read oracle: {held} B held for a 2 MiB file with 8 updates; a read costs {checked:?}"
    );
}

fn hashing_allocates_the_digest_table_and_nothing_else() {
    let object = synth_content("/o", 0, 512 * 1024);
    let mut index = IntegrityIndex::new();
    // The map's first table.
    index.record("warm", &object[..1]);

    // The name is the caller's key's, shared: what is left are the 127
    // digests after block 0, which is inline.
    let name: Arc<str> = Arc::from("o");
    let (record, _) = cost_of(|| index.record(Arc::clone(&name), &object));
    assert_eq!(record, Cost { allocs: 1, bytes: 127 * 32 }, "record of a 512 KiB object");
    let (verify, verdict) = cost_of(|| index.verify("o", &object));
    assert_eq!(verdict, Verdict::Verified);
    assert_eq!(verify, Cost { allocs: 0, bytes: 0 }, "verify of a 512 KiB object");
    let (again, _) = cost_of(|| index.record(Arc::clone(&name), &object));
    assert_eq!(again, Cost { allocs: 0, bytes: 0 }, "re-record over a table of the same size");
    let (by_str, _) = cost_of(|| index.record("o", &object));
    assert_eq!(by_str, Cost { allocs: 0, bytes: 0 }, "a known name given as a string");
    // A new name given as a plain string is copied once, into the map.
    let (fresh, _) = cost_of(|| index.record("p", &object[..1]));
    assert_eq!(fresh.allocs, 1, "a new name given as a string: {fresh:?}");
    println!("512 KiB object: record {record:?}, verify {verify:?}");
}

const PROVIDERS: [&str; 4] = ["Amazon S3", "Windows Azure", "Aliyun", "Rackspace"];

/// What the request path resolves per provider once, as `SimProvider`
/// and the dispatcher do: the labelled span around a provider call and
/// the labelled series every op updates.
struct ProviderSeries {
    put_replica: SpanName,
    ops: Counter,
    latency_ns: HistogramSeries,
    queue_depth: Gauge,
}

fn provider_series(c: &Collector) -> Vec<ProviderSeries> {
    PROVIDERS
        .iter()
        .map(|&p| ProviderSeries {
            put_replica: c.span_name("put_replica", p),
            ops: c.counter_series("provider.ops", p),
            latency_ns: c.histogram_series("provider.latency_ns", p),
            queue_depth: c.gauge_series("engine.queue_depth", p),
        })
        .collect()
}

/// One request's worth of records, as `postmark_observed` emits them: a
/// request span with a field, the provider ops under it in a labelled
/// span, the metadata flush, the driver's verdict — over `PROVIDERS` and
/// sixteen files, so the ground is known after the first few rounds. The
/// integers are equally wide every round, so no later line outgrows a
/// buffer an earlier one sized.
///
/// `fused`: each provider op at its span's instant and the request span
/// closed before the verdict, as the request path emits them — the
/// shapes the trace writer puts on one line (an op line, a span end
/// carrying its replay record). Otherwise each op lands 1 µs into its
/// span and the verdict inside the request span, and every record takes
/// a line of its own.
fn emit_request(
    c: &Collector,
    series: &[ProviderSeries],
    clock: &ManualClock,
    round: u64,
    fused: bool,
) {
    const PATHS: [&str; 16] = [
        "/d/f00", "/d/f01", "/d/f02", "/d/f03", "/d/f04", "/d/f05", "/d/f06", "/d/f07", "/d/f08",
        "/d/f09", "/d/f10", "/d/f11", "/d/f12", "/d/f13", "/d/f14", "/d/f15",
    ];
    let wide = 1_000_000_000_000_000 + round;
    let path = PATHS[round as usize % PATHS.len()];
    let request = c.span_with("update_file").field("path", path).field("bytes", wide).start();
    for at in [round as usize % 4, (round as usize + 1) % 4] {
        let provider = &series[at];
        let put = provider.put_replica.start();
        if !fused {
            clock.advance(1_000);
        }
        c.event("provider.op")
            .field("provider", PROVIDERS[at])
            .field("op", ["Put", "Get"][round as usize % 2])
            .field("bytes_in", wide)
            .field("bytes_out", 0u64)
            .field("latency_ns", wide)
            .field("cost", 0.047 / 10_000.0)
            .emit();
        drop(put);
        if fused {
            clock.advance(1_000);
        }
        provider.ops.inc(1);
        provider.latency_ns.observe(round);
        provider.queue_depth.set(round as i64);
    }
    // Re-reported while still open: the exposure interval it names exists.
    c.event("update.dirty")
        .field("path", PATHS[0])
        .field("fragment", 1u64)
        .field("provider", PROVIDERS[0])
        .emit();
    c.event("meta.flush.diff")
        .field("dir", "/d")
        .field("version", wide)
        .field("records", 1u64)
        .field("bytes", wide)
        .emit();
    let request = (!fused).then_some(request);
    c.event("replay.op").field("class", "small-write").field("latency_ns", wide).emit();
    drop(request);
    c.inc_labeled("replay.ops", "small-write", 1);
}

fn telemetry_costs_what_it_writes() {
    /// A sink that never grows: growth is the sink's business, and a
    /// `Vec` doubling under the measurement would be billed to the record
    /// that happened to cross the line.
    struct Presized(Vec<u8>);
    impl std::io::Write for Presized {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            assert!(self.0.len() + buf.len() <= self.0.capacity(), "pre-size the sink further");
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    // Disabled: nothing, known ground or not.
    let clock = std::sync::Arc::new(ManualClock::new());
    let off = Collector::disabled();
    let (cost, series) = cost_of(|| provider_series(&off));
    assert_eq!(cost.allocs, 1, "a disabled collector's handles are inert: {cost:?}");
    let (cost, ()) =
        cost_of(|| (0..64).for_each(|round| emit_request(&off, &series, &clock, round, false)));
    assert_eq!(cost.allocs, 0, "the disabled collector allocated: {cost:?}");

    // Enabled, JSONL sink and the observatory's tap attached.
    let watcher = SharedObservatory::new();
    let on = Collector::builder(clock.clone())
        .jsonl(Presized(Vec::with_capacity(1 << 20)))
        .tap(watcher.tap())
        .build();
    // Every provider, path, op kind, span path and metric series once,
    // through the writer thread too. Each window below ends in a flush,
    // which waits for the writer thread to write and fold every record
    // of the window: its work is billed to the window.
    let series = provider_series(&on);
    (0..32).for_each(|round| emit_request(&on, &series, &clock, round, round % 2 == 0));
    on.flush();
    let (cost, ()) = cost_of(|| {
        (32..96).for_each(|round| emit_request(&on, &series, &clock, round, false));
        on.flush();
    });
    println!("64 traced requests (11 records, 7 metric updates each) on known ground: {cost:?}");
    assert_eq!(cost.allocs, 0, "emitting on known ground allocated: {cost:?}");
    // The same requests with their provider ops on op lines and their
    // verdicts on their span ends: the writer holds those records back in
    // buffers it keeps.
    let (cost, ()) = cost_of(|| {
        (96..160).for_each(|round| emit_request(&on, &series, &clock, round, true));
        on.flush();
    });
    println!("64 traced requests, fused ops and verdicts, on known ground: {cost:?}");
    assert_eq!(cost.allocs, 0, "emitting fused ops on known ground allocated: {cost:?}");
    let report = watcher.report();
    assert_eq!(report.providers.iter().map(|p| p.ops).sum::<u64>(), 2 * 160, "the tap folded");
    assert_eq!(report.files.len(), 1, "the dirty fragment is tracked");

    // Offline: the fold allocates for what the trace is about — a tracker
    // per provider and file, the parser's field storage — not per record.
    let trace_of = |requests: u64| {
        let sink = SharedBuf::new();
        let clock = std::sync::Arc::new(ManualClock::new());
        let c = Collector::builder(clock.clone()).jsonl(sink.clone()).build();
        let series = provider_series(&c);
        (0..requests).for_each(|round| emit_request(&c, &series, &clock, round, round % 2 == 0));
        c.flush();
        sink.text()
    };
    let (short, long) = (trace_of(200), trace_of(400));
    // A fused request's 11 records take 6 lines: two op lines, the verdict
    // on the request's span end.
    assert_eq!(short.lines().count(), 1 + 11 * 100 + 6 * 100);
    let (short_cost, folded) = cost_of(|| observatory::from_trace(&short, 1));
    assert_eq!(folded.expect("own trace parses").records, 1 + 11 * 200);
    let (long_cost, folded) = cost_of(|| observatory::from_trace(&long, 1));
    assert_eq!(folded.expect("own trace parses").records, 1 + 11 * 400);
    println!("from_trace: 2,201 records {short_cost:?}, 4,401 records {long_cost:?}");
    assert!(
        long_cost.allocs <= short_cost.allocs,
        "twice the records of the same providers and files cost {long_cost:?}, not {short_cost:?}"
    );
}

/// The small-file ops [`small_op_floor`] prices, in its order.
const SMALL_OPS: [&str; 5] = ["create", "update", "read", "list", "delete"];

/// The floor cost of each of create / 4 KiB update / read / list /
/// delete of a 4 KB file in `dir`, over `REPS` files: what the op costs
/// when no B-tree node splits, no hash table or flushed frame grows and
/// no diff chain compacts under it (each of those happens on a fixed
/// fraction of ops whatever the directory holds — a compaction's copy of
/// the frame is the one per-directory cost left, every
/// `COMPACT_EVERY`th flush). The files'
/// names fall between the directory's own `f0000`, `f0001`, …, spread
/// out so that some land in a B-tree leaf with room. A listing hands out
/// one owned name per entry; those are taken off its count.
fn small_op_floor(h: &Hyrd, dir: &str) -> [Cost; 5] {
    const REPS: usize = 24;
    let data = synth_content("/small", 0, 4096);
    let patch = synth_content("/small", 1, 4096);
    let mut floor = [Cost { allocs: u64::MAX, bytes: u64::MAX }; 5];
    for i in 0..REPS {
        let path = format!("{dir}/f{:04}m", 8 * i);
        let (create, r) = cost_of(|| h.create_file(&path, &data));
        r.expect("fleet up");
        let (update, r) = cost_of(|| h.update_file(&path, 0, &patch));
        r.expect("fleet up");
        let (read, r) = cost_of(|| h.read_file(&path));
        assert_eq!(r.expect("fleet up").0.len(), data.len());
        let (list, r) = cost_of(|| h.list_dir(dir));
        let entries = r.expect("fleet up").0.len() as u64;
        let list = Cost { allocs: list.allocs - entries, bytes: list.bytes };
        let (delete, r) = cost_of(|| h.delete_file(&path));
        r.expect("fleet up");
        for (floor, cost) in floor.iter_mut().zip([create, update, read, list, delete]) {
            *floor = (*floor).min(cost);
        }
    }
    floor
}

fn small_object_ops_cost_what_they_change() {
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");
    let data = synth_content("/small", 0, 4096);
    // Both directories get 200 creates and then 198 more flushes — the
    // small one deletes, the large one updates — so their flush
    // versions, which object names carry in decimal, are as long.
    for dir in ["/d002", "/d200"] {
        for i in 0..200 {
            h.create_file(&format!("{dir}/f{i:04}"), &data).expect("fleet up");
        }
    }
    for i in 2..200 {
        h.delete_file(&format!("/d002/f{i:04}")).expect("fleet up");
        h.update_file(&format!("/d200/f{i:04}"), 0, &data).expect("fleet up");
    }

    let two = small_op_floor(&h, "/d002");
    let many = small_op_floor(&h, "/d200");
    println!("4 KB file, {SMALL_OPS:?}: beside 2 {two:?}, beside 200 {many:?}");
    // The listing's names differ in number; every other byte is the same.
    for (i, op) in SMALL_OPS.iter().enumerate() {
        let (two, many) = (two[i], many[i]);
        if *op == "list" {
            assert_eq!(two.allocs, many.allocs, "list allocations beside 2 and beside 200 files");
        } else {
            assert_eq!(two, many, "{op}: per-op cost depends on the directory's size");
        }
    }
    // Exact allocation counts: each op allocates what it hands on and
    // nothing else. Every op parses its path into one shared string and
    // returns one list of provider ops; a flush (create, update, delete)
    // ships its diff bytes in a `Bytes` handle under the diff's new
    // object name. Besides:
    //
    // * create (10): the entry's name, the object's name, the payload
    //   and its `Bytes` handle (the providers and the write-through
    //   cache share it) and the inode's replica list;
    // * update (12): the cache's copy, unshared from the replicas that
    //   still hold it (the first update after a create), the window it
    //   overwrites (kept in case no replica takes the write), the new
    //   content's `Bytes` handle, the inode's replica list, and —
    //   simulator-side — each replica's patch and the first replica
    //   patched unsharing its buffer from the second's;
    // * read (2): nothing else — the inode is lent, the key shares the
    //   placement's name and the fan-out's lists are inline;
    // * list (4): the block's object name and the list of names, plus
    //   one per name (taken off the count above);
    // * delete (5): nothing else.
    //
    // The metadata a create adds is spliced into its directory's flushed
    // frame, which allocates nothing per entry.
    let budget = [
        Cost { allocs: 10, bytes: 4697 },
        Cost { allocs: 12, bytes: 12909 },
        Cost { allocs: 2, bytes: 192 },
        Cost { allocs: 4, bytes: 304 },
        Cost { allocs: 5, bytes: 493 },
    ];
    for ((op, cost), budget) in SMALL_OPS.iter().zip(two).zip(budget) {
        assert!(
            cost.allocs == budget.allocs && cost.bytes <= budget.bytes,
            "{op} of a 4 KB file: {cost:?}, budget {budget:?}"
        );
    }

    // A small update of a large replica allocates for the patch, not the
    // replica: no copy of the object, no whole-object hash input, no
    // per-sibling metadata. From the second update on — until the first
    // one, the simulated replicas and the cache share the buffer the
    // create shipped, and the cache and one replica each copy it before
    // patching (the replicas' copies are simulator memory, not client
    // work). In the small directory, so that a diff-chain compaction —
    // the one flush whose body is the directory — cannot land on the
    // measurement.
    const BUDGET: u64 = 64 * 1024;
    let len = 512 * 1024;
    let patch = synth_content("/d002/replica", 1, 4096);
    h.create_file("/d002/replica", &synth_content("/d002/replica", 0, len)).expect("fleet up");
    h.update_file("/d002/replica", 300_000, &patch).expect("fleet up");
    for offset in [100_000, 0, len as u64 - 4096] {
        let (update, r) = requested_by(|| h.update_file("/d002/replica", offset, &patch));
        r.expect("fleet up");
        assert!(update < BUDGET, "4 KiB update of {len} B at {offset} requested {update} B");
        println!("4 KiB update of a {len} B replica at {offset}: {update} B");
    }

    // On a ghost fleet — the simulator keeps lengths, not payloads, as a
    // client whose replicas are across a network keeps neither — nothing
    // ever shares the cache's buffer, so the first update is as cheap.
    let fleet = Fleet::standard_four(SimClock::new());
    fleet.providers().iter().for_each(|p| p.set_ghost_mode(true));
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");
    h.create_file("/replica", &synth_content("/replica", 0, len)).expect("fleet up");
    let (update, r) = requested_by(|| h.update_file("/replica", 100_000, &patch));
    r.expect("fleet up");
    assert!(update < BUDGET, "first 4 KiB update of {len} B, ghost fleet, requested {update} B");
    println!("first 4 KiB update of a {len} B replica on a ghost fleet: {update} B");
}

fn large_object_ops_allocate_what_they_produce() {
    const SLACK: u64 = 64 * 1024;
    let fleet = Fleet::standard_four(SimClock::new());
    let h = Hyrd::new(&fleet, HyrdConfig::default()).expect("default config is valid");
    // Not a multiple of m, of the alignment or of the parallel block.
    let len = 3 * 1024 * 1024 + 12_345;
    let data = synth_content("/big.bin", 0, len);
    let (m, n) = (h.config().code.m() as u64, h.config().code.n() as u64);

    // Warm the path (directory creation, lazily built tables).
    h.create_file("/warm.bin", &data).expect("fleet up");
    h.read_file("/warm.bin").expect("fleet up");

    let (create_cost, r) = cost_of(|| h.create_file("/big.bin", &data));
    r.expect("fleet up");
    let (create_allocs, create) = (create_cost.allocs, create_cost.bytes);
    let budget = len as u64 * n / m + SLACK;
    assert!(create < budget, "create of {len} B requested {create} B (budget {budget})");
    // Measured: 4.05 MiB — the fragments plus 37 KiB of digest tables,
    // metadata diff and names. Hashing the fragments adds nothing to it.
    assert!(create < 4_257_218, "create of {len} B requested {create} B, over 4.06 MiB");

    let (healthy, r) = cost_of(|| h.read_file("/big.bin"));
    assert_eq!(&r.expect("fleet up").0[..], &data[..]);
    let budget = len as u64 + SLACK;
    let (healthy_allocs, healthy) = (healthy.allocs, healthy.bytes);
    assert!(healthy < budget, "healthy read of {len} B requested {healthy} B (budget {budget})");

    let patch = synth_content("/big.bin", 1, 64 * 1024);
    let (update_cost, r) = cost_of(|| h.update_file("/big.bin", 1_000, &patch));
    r.expect("fleet up");
    let (update_allocs, update) = (update_cost.allocs, update_cost.bytes);
    let update_budget = 2 * patch.len() as u64 + SLACK;
    assert!(update < update_budget, "64 KiB update requested {update} B (budget {update_budget})");
    let data = [&data[..1_000], &patch[..], &data[1_000 + patch.len()..]].concat();

    // Take down the provider of data fragment 0: every read now rebuilds
    // a third of the object from the survivors.
    let fragment0 = format!("{}.f0", hyrd::scheme::object_name("/big.bin"));
    let holder = fleet
        .providers()
        .iter()
        .find(|p| p.object_inventory(Fleet::CONTAINER).iter().any(|(name, _)| *name == fragment0))
        .expect("fragment 0 was stored");
    holder.force_down();
    let (degraded, r) = cost_of(|| h.read_file("/big.bin"));
    let (degraded_allocs, degraded) = (degraded.allocs, degraded.bytes);
    let (bytes, report) = r.expect("one outage is tolerated");
    assert_eq!(&bytes[..], &data[..]);
    assert_eq!(report.op_count(), m as usize, "m fragments fetched");
    assert!(degraded < budget, "degraded read of {len} B requested {degraded} B (budget {budget})");
    assert_eq!(Vec::from(bytes).capacity(), len, "the object is allocated once, at its length");

    // A degraded update over fragment 0's window misses fragment 0, and
    // the consistency update replays that window when its provider
    // returns: the bytes it requests are for the window, not a fragment.
    let (degraded_update, r) = cost_of(|| h.update_file("/big.bin", 2_000, &patch));
    r.expect("one outage is tolerated");
    assert_eq!(h.pending_dirty_fragments(), 1, "fragment 0 missed the update");
    let data = [&data[..2_000], &patch[..], &data[2_000 + patch.len()..]].concat();
    holder.restore();
    let (replay, r) = cost_of(|| h.recover_provider(CloudStorage::id(holder.as_ref())));
    r.expect("the provider is back");
    assert_eq!(h.pending_dirty_fragments(), 0, "fragment 0's window was replayed");
    let budget = patch.len() as u64 + SLACK;
    assert!(
        replay.bytes < budget,
        "one-window replay requested {} B (budget {budget})",
        replay.bytes
    );
    assert_eq!(&h.read_file("/big.bin").expect("fleet up").0[..], &data[..]);
    // Across the boundary of fragments 0 and 1: two data ranges, one copy.
    let across = (len / 3 - 1_000) as u64;
    let (crossing, r) = cost_of(|| h.update_file("/big.bin", across, &patch));
    r.expect("fleet up");

    // Exact allocation counts. Every op parses its path into one shared
    // string and returns one list of provider ops, sized up front for
    // the op's own ops and its metadata flush; a flush (create, update)
    // ships its diff bytes in a `Bytes` handle under the diff's new
    // object name, and encodes the changed inode's name in its own buffer.
    // The inode is lent, each fragment key shares its name, and every
    // plan and scratch list of the erasure-coded path — the decoder's
    // fragment table, basis and inverse, an update's touched ranges,
    // fetched windows, planned and missed writes — is inline. Besides:
    //
    // * read (4), healthy or degraded: the object and its `Bytes` handle;
    // * 64 KiB update (13): the placement's fragment list, one copy of
    //   the new bytes and one buffer of the new parity window, each with
    //   its `Bytes` handle, and — simulator-side — each patched
    //   fragment's new handle: one more (14) across a shard boundary,
    //   where two data ranges, cut from the one copy, patch two fragments;
    // * degraded 64 KiB update (14): as above, but the data windows are
    //   decoded (one buffer) before the parity window is encoded and only
    //   the parity fragment is patched. The missed window becomes a log
    //   record that shares the path, the fragment's name and the copy of
    //   the new bytes, so it costs only the log's list, which the flush's
    //   put to the down provider, logged for replay, then shares;
    // * create (32): the inode, the object's and four fragments' names,
    //   the placement's fragment list, the list of fragments, the four
    //   fragments each with a `Bytes` handle and a digest table, the
    //   digest index growing, three buffers of the flushed frame's edit,
    //   and the simulator's two new map nodes;
    // * one-window replay through `recover_provider` (2 all told, no
    //   path of its own to parse): the replay's op list and —
    //   simulator-side — the patched fragment's new handle. The window's
    //   bytes are the log's; no survivor is read and no fragment is
    //   rebuilt.
    let pins = [
        ("healthy read", healthy_allocs, 4),
        ("degraded read", degraded_allocs, 4),
        ("64 KiB update", update_allocs, 13),
        ("64 KiB update across a shard boundary", crossing.allocs, 14),
        ("degraded 64 KiB update", degraded_update.allocs, 14),
        ("create", create_allocs, 32),
        ("one-window replay", replay.allocs, 2),
    ];
    println!(
        "{len} B object: create {create} B, healthy read {healthy} B, 64 KiB update {update} B, \
         degraded read {degraded} B, degraded update {} B, replay {} B; allocations {:?}",
        degraded_update.bytes,
        replay.bytes,
        pins.map(|(op, allocs, _)| (op, allocs))
    );
    for (op, allocs, pin) in pins {
        assert_eq!(allocs, pin, "allocations of a {op} of a {len} B object");
    }
}
