//! Loom model checking of the query engine's concurrency skeleton.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bear-core --test loom_engine --release
//! ```
//!
//! Each `loom::model` block is executed once per relevant thread
//! interleaving; assertions inside hold for *every* schedule, and a
//! deadlock in any schedule fails the test. The models cover the three
//! protocols the serving layer relies on:
//!
//! * racing workers: jobs pushed while two workers block in `pop` are
//!   delivered exactly once, to exactly one popper;
//! * shutdown: `close` racing `push` either rejects the job or delivers
//!   it — never loses it — and blocked poppers always wake;
//! * metrics: concurrent `record` calls never lose counts and keep
//!   `queries == hits + misses`.
//!
//! `lost_notify_is_caught` demonstrates the suite has teeth: dropping
//! the `notify_one` from `push` (via the test-only
//! `push_without_notify`) produces a lost wakeup that loom reports as a
//! deadlock.
#![cfg(loom)]

use bear_core::engine::queue::JobQueue;
use bear_core::engine::Metrics;
use bear_sparse::Error;
use loom::sync::Arc;
use loom::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Two workers blocked in `pop` race for the same jobs: each pushed job
/// is delivered exactly once, to exactly one of them.
#[test]
fn racing_workers_deliver_exactly_once() {
    loom::model(|| {
        let q = Arc::new(JobQueue::new());

        let spawn_worker = || {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(job) = q.pop() {
                    got.push(job);
                }
                got
            })
        };
        let (a, b) = (spawn_worker(), spawn_worker());

        q.push(1usize).unwrap();
        q.push(2usize).unwrap();
        q.close();

        let mut seen = a.join().unwrap();
        seen.extend(b.join().unwrap());
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2], "each job delivered exactly once");
    });
}

/// `close` racing `push`: the job is either rejected (push errors) or
/// delivered (drainable after close) — never silently dropped.
#[test]
fn concurrent_shutdown_never_loses_accepted_jobs() {
    loom::model(|| {
        let q = Arc::new(JobQueue::new());

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(7usize).is_ok())
        };

        q.close();
        let drained = q.pop(); // never blocks: queue is closed
        let accepted = producer.join().unwrap();

        if accepted {
            assert_eq!(drained, Some(7), "accepted job must be drainable");
        } else {
            assert_eq!(drained, None, "rejected job must not appear");
        }
        // Either way the queue is now closed and empty.
        assert_eq!(q.pop(), None); // closed and empty: never blocks
        assert!(q.push(8usize).is_err(), "push after close fails");
    });
}

/// A worker blocked in `pop` always wakes when the queue closes.
#[test]
fn close_wakes_blocked_worker() {
    loom::model(|| {
        let q = Arc::new(JobQueue::<usize>::new());

        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };

        q.close();
        assert_eq!(worker.join().unwrap(), None);
    });
}

/// Concurrent `record` calls never lose counts: `queries` equals
/// `cache_hits + cache_misses` in every interleaving.
#[test]
fn metrics_are_consistent() {
    loom::model(|| {
        let m = Arc::new(Metrics::new());

        let recorder = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.record(true, Duration::from_nanos(20));
                m.record(false, Duration::from_nanos(1500));
            })
        };
        m.record(false, Duration::from_nanos(40));
        recorder.join().unwrap();

        let s = m.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.queries, s.cache_hits + s.cache_misses);
        assert!((s.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    });
}

/// Admission control under every schedule: a full bounded queue never
/// exceeds its capacity, a racing `push` is rejected with a typed
/// error, and a blocked `push_blocking` completes once a `pop` frees a
/// slot (the `space` wakeup protocol).
#[test]
fn bounded_queue_capacity_never_exceeded() {
    loom::model(|| {
        let q = Arc::new(JobQueue::bounded(1));
        q.push(1usize).unwrap();
        assert!(matches!(q.push(99), Err(Error::QueueFull { capacity: 1 })));

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(2usize, None))
        };

        assert!(q.len() <= 1, "capacity bound holds while a pusher waits");
        assert_eq!(q.pop(), Some(1)); // frees the slot, must wake the pusher
        producer.join().unwrap().unwrap();
        assert!(q.len() <= 1);
        assert_eq!(q.pop(), Some(2), "blocked push lands exactly once");
        q.close();
        assert_eq!(q.pop(), None);
    });
}

/// A producer blocked in `push_blocking` on a full queue always wakes
/// when the queue closes, failing with the typed shutdown error instead
/// of parking forever.
#[test]
fn close_wakes_blocked_pusher() {
    loom::model(|| {
        let q = Arc::new(JobQueue::bounded(1));
        q.push(1usize).unwrap();

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(2usize, None))
        };

        q.close();
        assert!(matches!(producer.join().unwrap(), Err(Error::PoolShutDown)));
        // The accepted backlog is still drainable after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    });
}

/// Seeded-bug demonstration for the bounded-queue wakeup protocol:
/// popping WITHOUT the `space` notification (the test-only
/// `pop_without_notify`) admits a schedule where a producer blocked on a
/// full queue is never woken when its slot frees — loom must report the
/// deadlock. This is the regression the real `pop` is one dropped line
/// away from.
#[test]
fn lost_space_notify_is_caught() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let q = Arc::new(JobQueue::bounded(1));
            q.push(1usize).unwrap();

            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push_blocking(2usize, None))
            };

            assert_eq!(q.pop_without_notify(), Some(1));
            producer.join().unwrap().unwrap();
            assert_eq!(q.pop(), Some(2));
        });
    }));

    let payload = outcome.expect_err("loom must catch the lost space wakeup");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("deadlock"), "expected a deadlock report, got: {msg}");
}

/// Seeded-bug demonstration: enqueueing WITHOUT the `notify_one` (the
/// test-only `push_without_notify`) admits a schedule where the worker
/// checks the queue first, then waits forever — loom must report it as
/// a deadlock. This is the regression the real `push` is one dropped
/// line away from.
#[test]
fn lost_notify_is_caught() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let q = Arc::new(JobQueue::new());

            let worker = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            };

            q.push_without_notify(9usize).unwrap();
            assert_eq!(worker.join().unwrap(), Some(9));
        });
    }));

    let payload = outcome.expect_err("loom must catch the lost wakeup");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("deadlock"), "expected a deadlock report, got: {msg}");
}
