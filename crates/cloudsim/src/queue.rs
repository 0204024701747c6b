//! Per-provider concurrency limits and queueing delay.
//!
//! A [`ProviderQueue`] models a provider endpoint as `c` identical
//! server slots on the virtual clock. An operation admitted at virtual
//! time `now` with service time `s` starts on the earliest-free slot —
//! immediately when one is idle, otherwise when the first slot drains —
//! and completes at `start + s`. The difference `start − now` is the
//! queueing delay the event engine adds on top of the latency model's
//! service time.
//!
//! The queue is deliberately *passive*: it never advances the
//! [`crate::clock::SimClock`] and keeps no global event list. The event
//! engine in `hyrd::engine` hands it absolute nanosecond timestamps and
//! gets admission decisions back, so closed-loop replay (which drains
//! every request before issuing the next) sees zero queueing and stays
//! bit-identical, while open-loop arrival streams congest the slots and
//! queueing delay emerges deterministically.
//!
//! Admission picks the earliest-free slot with the lowest index, so the
//! schedule is a pure function of the admission sequence — same seed,
//! same trace, for any worker count.

use std::sync::Mutex;

use hyrd_gcsapi::sync::lock;

/// Default number of concurrent server slots per provider. Wide enough
/// that every existing closed-loop workload (at most `n` fragment
/// fetches in flight per request) never queues, so pre-engine behavior
/// is preserved exactly unless a scenario tightens it.
pub const DEFAULT_CONCURRENCY: usize = 8;

/// An admission decision: when the op starts service and when it is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Virtual time (ns) the op begins service (`>= now` at admit).
    pub start_ns: u64,
    /// Virtual time (ns) the op completes (`start_ns + service_ns`).
    pub done_ns: u64,
}

impl Admission {
    /// Queueing delay this op suffered before starting service.
    pub fn queue_ns(&self, now_ns: u64) -> u64 {
        self.start_ns.saturating_sub(now_ns)
    }
}

/// `c` server slots, each tracked by the virtual time it next frees up.
#[derive(Debug)]
pub struct ProviderQueue {
    /// `free[i]` = virtual ns at which slot `i` is next idle.
    slots: Mutex<Vec<u64>>,
}

impl ProviderQueue {
    /// A queue with `concurrency` slots (clamped to at least one).
    pub fn new(concurrency: usize) -> Self {
        ProviderQueue { slots: Mutex::new(vec![0; concurrency.max(1)]) }
    }

    /// Number of server slots.
    pub fn concurrency(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Resizes to `concurrency` slots (clamped to at least one) and
    /// clears all busy times — a scenario-setup knob, not a mid-run one.
    pub fn set_concurrency(&self, concurrency: usize) {
        *lock(&self.slots) = vec![0; concurrency.max(1)];
    }

    /// Admits an op arriving at `now_ns` needing `service_ns` of service:
    /// claims the earliest-free slot (lowest index on ties) and returns
    /// the resulting start/completion times.
    pub fn admit(&self, now_ns: u64, service_ns: u64) -> Admission {
        let mut slots = lock(&self.slots);
        let (idx, free) = slots
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, free)| (free, i))
            .expect("queue has at least one slot");
        let start_ns = free.max(now_ns);
        let done_ns = start_ns.saturating_add(service_ns);
        slots[idx] = done_ns;
        Admission { start_ns, done_ns }
    }

    /// Releases a slot early when the op holding it is cancelled: the
    /// slot previously committed until `done_ns` frees at `free_at_ns`
    /// instead (never later than its old commitment). No-op if no slot
    /// matches — e.g. the op already completed.
    pub fn release_early(&self, done_ns: u64, free_at_ns: u64) {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.iter_mut().find(|s| **s == done_ns) {
            *slot = free_at_ns.min(done_ns);
        }
    }

    /// How many slots are still busy after `now_ns` — the backlog an
    /// arrival at `now_ns` would contend with.
    pub fn busy_at(&self, now_ns: u64) -> usize {
        lock(&self.slots).iter().filter(|&&free| free > now_ns).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_slots_start_immediately() {
        let q = ProviderQueue::new(2);
        let a = q.admit(100, 50);
        assert_eq!(a, Admission { start_ns: 100, done_ns: 150 });
        assert_eq!(a.queue_ns(100), 0);
        let b = q.admit(100, 50);
        assert_eq!(b.start_ns, 100); // second slot still idle
    }

    #[test]
    fn saturated_queue_delays_start_to_earliest_drain() {
        let q = ProviderQueue::new(1);
        q.admit(0, 100);
        let a = q.admit(10, 50);
        assert_eq!(a, Admission { start_ns: 100, done_ns: 150 });
        assert_eq!(a.queue_ns(10), 90);
    }

    #[test]
    fn ties_pick_lowest_slot_deterministically() {
        let q = ProviderQueue::new(3);
        // All slots free at 0: three admissions land on slots 0,1,2 and
        // a fourth queues behind the shortest.
        q.admit(0, 10);
        q.admit(0, 20);
        q.admit(0, 30);
        let a = q.admit(0, 5);
        assert_eq!(a.start_ns, 10);
        assert_eq!(q.busy_at(14), 3);
        assert_eq!(q.busy_at(100), 0);
    }

    #[test]
    fn release_early_frees_the_matching_slot() {
        let q = ProviderQueue::new(1);
        let a = q.admit(0, 1_000);
        q.release_early(a.done_ns, 200);
        let b = q.admit(0, 10);
        assert_eq!(b.start_ns, 200);
        // Releasing a stale completion time is a no-op.
        q.release_early(999_999, 0);
    }

    #[test]
    fn release_never_extends_a_commitment() {
        let q = ProviderQueue::new(1);
        let a = q.admit(0, 100);
        q.release_early(a.done_ns, 500);
        let b = q.admit(0, 1);
        assert_eq!(b.start_ns, 100);
    }

    #[test]
    fn zero_concurrency_clamps_to_one() {
        let q = ProviderQueue::new(0);
        assert_eq!(q.concurrency(), 1);
        q.set_concurrency(0);
        assert_eq!(q.concurrency(), 1);
    }
}
