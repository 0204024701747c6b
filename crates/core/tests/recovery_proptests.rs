//! Replay-coverage tests for the update log: the consistency update of
//! §III-C must leave a returned provider holding exactly the *final*
//! state of each object it missed — no resurrected deletes, no stale
//! intermediate versions — regardless of how the missed writes
//! interleaved.

use bytes::Bytes;
use hyrd_testkit::{check, Gen};

use hyrd::recovery::UpdateLog;
use hyrd_gcsapi::{CloudStorage, MemoryCloud, ObjectKey, ProviderId};

fn key(name: &str) -> ObjectKey {
    ObjectKey::new("hyrd", name)
}

/// Put-then-Remove while the provider was down must coalesce to a single
/// Remove: replay must not resurrect the object, even when the provider
/// holds a stale pre-outage copy of it.
#[test]
fn put_then_remove_coalesces_and_does_not_resurrect() {
    let cloud = MemoryCloud::new(ProviderId(2), "returned");
    cloud.create("hyrd").unwrap();
    // Pre-outage copy the provider still holds.
    cloud.put(&key("doomed"), Bytes::from_static(b"stale")).unwrap();

    let mut log = UpdateLog::new();
    log.log_put(ProviderId(2), key("doomed"), Bytes::from_static(b"newer"));
    log.log_remove(ProviderId(2), key("doomed"));
    assert_eq!(log.len(), 1, "the remove supersedes the put");

    let (report, _) = log.replay(&cloud).unwrap();
    assert_eq!(report.puts_replayed, 0, "the superseded put must not run");
    assert_eq!(report.removes_replayed, 1);
    assert!(cloud.get(&key("doomed")).is_err(), "no resurrection");
    assert!(log.is_empty());
}

/// Remove-then-Put (delete followed by re-create under the same name)
/// must land the new bytes.
#[test]
fn remove_then_put_lands_the_recreated_object() {
    let cloud = MemoryCloud::new(ProviderId(0), "returned");
    cloud.create("hyrd").unwrap();
    cloud.put(&key("phoenix"), Bytes::from_static(b"old")).unwrap();

    let mut log = UpdateLog::new();
    log.log_remove(ProviderId(0), key("phoenix"));
    log.log_put(ProviderId(0), key("phoenix"), Bytes::from_static(b"reborn"));
    assert_eq!(log.len(), 1);

    let (report, _) = log.replay(&cloud).unwrap();
    assert_eq!(report.puts_replayed, 1);
    assert_eq!(&cloud.get(&key("phoenix")).unwrap().value[..], b"reborn");
}

/// One random missed-write interleaving step: `Some(fill)` is a Put of
/// 16 bytes of `fill`, `None` is a Remove.
fn step_strategy(g: &mut Gen) -> (u8, Option<u8>) {
    (g.range(0..4u8), g.option(|g| g.range(..)))
}

/// Replaying an arbitrary interleaving of missed Puts/Removes over a
/// small key space leaves the provider holding exactly the last
/// write per key; keys never written keep their pre-outage bytes;
/// the log drains completely.
#[test]
fn replay_applies_exactly_the_final_state() {
    check(
        128,
        |g| g.vec(0..40, step_strategy),
        |steps| {
            let id = ProviderId(1);
            let cloud = MemoryCloud::new(id, "returned");
            cloud.create("hyrd").unwrap();
            // Every key starts with a stale pre-outage copy.
            for k in 0..4u8 {
                cloud.put(&key(&format!("k{k}")), Bytes::from(vec![0xEE; 4])).unwrap();
            }

            let mut log = UpdateLog::new();
            let mut last: [Option<Option<u8>>; 4] = [None, None, None, None];
            for (k, write) in &steps {
                let name = format!("k{k}");
                match write {
                    Some(fill) => log.log_put(id, key(&name), Bytes::from(vec![*fill; 16])),
                    None => log.log_remove(id, key(&name)),
                }
                last[*k as usize] = Some(*write);
            }

            // Compaction invariant: at most one record per touched key.
            let touched = last.iter().filter(|l| l.is_some()).count();
            assert_eq!(log.len(), touched);

            let (report, _) = log.replay(&cloud).unwrap();
            assert!(log.is_empty(), "replay must drain the provider's log");
            assert_eq!(
                (report.puts_replayed + report.removes_replayed) as usize,
                touched,
                "exactly one replayed op per touched key"
            );

            for k in 0..4u8 {
                let stored = cloud.get(&key(&format!("k{k}"))).ok().map(|out| out.value);
                match last[k as usize] {
                    None => assert_eq!(
                        stored.as_deref(),
                        Some(&[0xEE; 4][..]),
                        "untouched key k{} must keep its pre-outage bytes",
                        k
                    ),
                    Some(Some(fill)) => assert_eq!(
                        stored.as_deref(),
                        Some(&vec![fill; 16][..]),
                        "k{} must hold the final put",
                        k
                    ),
                    Some(None) => {
                        assert!(stored.is_none(), "k{} was last removed and must stay gone", k)
                    }
                }
            }
        },
    );
}
