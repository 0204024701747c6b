//! The counting allocator counts a known sequence exactly, and a lap's
//! allocation counts repeat across two same-seed runs. One test, so no
//! other test thread allocates inside the measured windows.

use std::hint::black_box;

use hyrd_perf::alloc::{self, CountingAlloc, Snapshot};
use hyrd_perf::workloads::{run_lap, Mode, Scale, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn known_sequence_is_counted_exactly_and_laps_repeat() {
    assert!(alloc::installed());
    let before = Snapshot::now();
    let thread_before = alloc::thread_allocs();
    assert_eq!(alloc::reset_peak(), before.live);
    let a = black_box(vec![0u8; 1000]);
    let mut b: Vec<u8> = black_box(Vec::with_capacity(500));
    b.reserve_exact(2000);
    let after = Snapshot::now();
    assert_eq!(after.since(&before), (3, 1000 + 500 + 2000));
    assert_eq!(alloc::thread_allocs() - thread_before, 3);
    assert_eq!(after.live - before.live, 3000);
    assert!(alloc::peak_live() >= before.live + 3000);
    drop((a, b));
    assert_eq!(Snapshot::now().live, before.live);

    let lap = || {
        let lap = run_lap(Workload::PostmarkSmall, 7, Scale::Smoke, Mode::Untraced);
        assert_eq!(lap.failed, 0);
        (lap.timed.allocs, lap.timed.alloc_bytes, lap.setup.allocs, lap.setup.alloc_bytes)
    };
    let first = lap();
    assert!(first.0 > 0);
    assert_eq!(first, lap(), "same seed, same allocation counts");
}
