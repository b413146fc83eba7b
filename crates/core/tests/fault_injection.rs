//! Deterministic fault-injection suite (requires `--features failpoints`).
//!
//! Drives the named failpoint sites in the serving path and checks the
//! fault-tolerance contract end to end: **every injected fault class
//! yields a typed error or a `Degraded` answer — never a hang, an
//! abort, or unbounded queue growth.** Run via:
//!
//! ```text
//! cargo test -p bear-core --test fault_injection --features failpoints
//! cargo xtask analyze faults
//! ```
#![cfg(feature = "failpoints")]

use bear_core::failpoints::{self, FailAction};
use bear_core::{
    Bear, BearConfig, DegradedReason, EngineConfig, FallbackSolver, OverloadPolicy, QueryEngine,
    QueryOptions, RwrConfig,
};
use bear_graph::Graph;
use bear_sparse::Error;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global, so cases must not overlap.
/// Each test holds this lock for its whole body; the guard disarms every
/// site on drop (including panics), so one failing case cannot poison
/// the next.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

fn serial() -> Serial {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoints::clear_all();
    Serial { _lock: guard }
}

impl Drop for Serial {
    fn drop(&mut self) {
        failpoints::clear_all();
    }
}

fn test_graph(n: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v));
        edges.push((v, 0));
    }
    for v in 1..n.saturating_sub(1) {
        edges.push((v, v + 1));
        edges.push((v + 1, v));
    }
    Graph::from_edges(n, &edges).unwrap()
}

fn build(n: usize) -> (Graph, Arc<Bear>) {
    let g = test_graph(n);
    let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.15)).unwrap());
    (g, bear)
}

fn fallback_for(g: &Graph) -> Arc<FallbackSolver> {
    let rwr = RwrConfig { c: 0.15, ..RwrConfig::default() };
    Arc::new(FallbackSolver::new(g, &rwr, 200).unwrap())
}

fn small_config(threads: usize, queue_capacity: usize) -> EngineConfig {
    EngineConfig {
        threads,
        cache_capacity: 0,
        queue_capacity,
        overload: OverloadPolicy::Reject,
        default_deadline: None,
        ..EngineConfig::default()
    }
}

/// Fault class: the index fails validation at load. The error is typed
/// (not a panic, not garbage answers), and the service can still answer
/// from the fallback solver with high ranking agreement.
#[test]
fn corrupt_index_load_fails_typed_and_fallback_serves() {
    let _serial = serial();
    let (g, bear) = build(20);
    let path = std::env::temp_dir().join("bear_fault_injection_load.idx");
    bear.save(&path).unwrap();

    // Injected load failure: typed error, no panic.
    failpoints::configure("persist::load", FailAction::Fail);
    let err = Bear::load(&path).unwrap_err();
    assert!(
        matches!(&err, Error::InvalidStructure(msg) if msg.contains("failpoint")),
        "unexpected error: {err}"
    );
    failpoints::clear("persist::load");

    // Real byte surgery on the payload also fails typed.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(Bear::load(&path).is_err(), "corrupt payload must be rejected");
    std::fs::remove_file(&path).ok();

    // Degraded-only service: the fallback still produces close answers.
    let fb = fallback_for(&g);
    for seed in 0..5 {
        let exact = bear.query(seed).unwrap();
        let ans = fb.solve(seed).unwrap();
        let l1: f64 = exact.iter().zip(&ans.scores).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 <= ans.error_bound() + 1e-9);
        assert!(l1 < 1e-6, "seed {seed}: fallback far from exact ({l1})");
    }
}

/// Fault class: sustained overload. With slow workers and 10× more
/// concurrent queries than the queue admits, every rejection is the
/// typed `QueueFull` error, accepted queries still answer correctly, and
/// the queue never grows beyond its bound (memory stays bounded).
#[test]
fn overload_rejects_typed_and_queue_stays_bounded() {
    let _serial = serial();
    let (_g, bear) = build(16);
    let capacity = 3;
    let engine = Arc::new(QueryEngine::new(Arc::clone(&bear), small_config(1, capacity)).unwrap());
    failpoints::configure("engine::run_job", FailAction::Delay(Duration::from_millis(10)));

    let submitters = 10 * capacity;
    let outcomes: Vec<Result<(), Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|i| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let outcome = engine.serve(i % 16, &QueryOptions::default()).map(|_| ());
                    assert!(
                        engine.queue_depth() <= capacity,
                        "queue overflowed its bound under overload"
                    );
                    outcome
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let rejected = outcomes.iter().filter(|o| o.is_err()).count();
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(
                matches!(e, Error::QueueFull { capacity: c } if *c == capacity),
                "overload must surface as the typed QueueFull error, got {e}"
            );
        }
    }
    let m = engine.metrics();
    assert_eq!(m.queue_rejections, rejected as u64);
    assert!(outcomes.iter().any(|o| o.is_ok()), "admitted queries must still answer");
}

/// Fault class: worker panic. The panic is contained (`catch_unwind`),
/// surfaces as the typed `WorkerPanicked` error naming the seed, is
/// counted in metrics, and the pool keeps answering afterwards.
#[test]
fn worker_panic_is_contained_and_pool_stays_healthy() {
    let _serial = serial();
    let (_g, bear) = build(12);
    let engine = QueryEngine::new(Arc::clone(&bear), small_config(2, 8)).unwrap();

    failpoints::configure("engine::run_job", FailAction::Panic);
    let err = engine.serve(3, &QueryOptions::default()).unwrap_err();
    assert_eq!(err, Error::WorkerPanicked { seed: 3 });
    assert!(engine.metrics().worker_panics >= 1);

    // Disarm: the same pool (no respawn) answers correctly.
    failpoints::clear("engine::run_job");
    let served = engine.serve(3, &QueryOptions::default()).unwrap();
    assert_eq!(*served.scores, bear.query(3).unwrap());
}

/// Fault class: worker panic, with degradation enabled. `serve` converts
/// the contained panic into a fallback answer tagged `WorkerPanicked`,
/// with its residual bound reported.
#[test]
fn worker_panic_degrades_to_fallback_answer() {
    let _serial = serial();
    let (g, bear) = build(14);
    let engine =
        QueryEngine::with_fallback(Arc::clone(&bear), small_config(2, 8), fallback_for(&g))
            .unwrap();

    failpoints::configure("engine::run_job", FailAction::Panic);
    let served = engine.serve(2, &QueryOptions::default()).unwrap();
    let info = served.degraded.expect("answer must be tagged degraded");
    assert_eq!(info.reason, DegradedReason::WorkerPanicked);
    assert!(info.residual >= 0.0 && info.error_bound >= info.residual);
    let exact = bear.query(2).unwrap();
    let l1: f64 = exact.iter().zip(served.scores.iter()).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 1e-6, "degraded answer far from exact: {l1}");
    let m = engine.metrics();
    assert!(m.worker_panics >= 1);
    assert!(m.degraded >= 1);
}

/// Fault class: slow worker past the deadline budget. Without a
/// fallback the caller gets the typed `Timeout` within (roughly) its
/// budget; with a fallback it gets a degraded answer tagged
/// `DeadlineExceeded`. Either way, no hang.
#[test]
fn deadline_exceeded_times_out_or_degrades() {
    let _serial = serial();
    let (g, bear) = build(14);
    failpoints::configure("engine::run_job", FailAction::Delay(Duration::from_millis(200)));
    let opts = QueryOptions { deadline: Some(Duration::from_millis(20)), cancel: None };

    // Without fallback: typed timeout, promptly.
    let engine = QueryEngine::new(Arc::clone(&bear), small_config(1, 4)).unwrap();
    let start = Instant::now();
    let err = engine.serve(5, &opts).unwrap_err();
    assert!(matches!(err, Error::Timeout { budget } if budget == Duration::from_millis(20)));
    assert!(start.elapsed() < Duration::from_secs(5), "timeout must not hang");
    assert!(engine.metrics().timeouts >= 1);
    drop(engine); // workers finish their injected sleep during shutdown

    // With fallback: degraded answer tagged with the deadline fault.
    let engine =
        QueryEngine::with_fallback(Arc::clone(&bear), small_config(1, 4), fallback_for(&g))
            .unwrap();
    let served = engine.serve(5, &opts).unwrap();
    let info = served.degraded.expect("must degrade on deadline");
    assert_eq!(info.reason, DegradedReason::DeadlineExceeded);
    assert!(engine.metrics().degraded >= 1);
}

/// Fault class: a job ages out while queued (slow dequeue path). The
/// worker sheds it at dequeue — replying the typed `Timeout` instead of
/// computing an answer nobody can use — and the shed is counted.
#[test]
fn expired_job_is_shed_at_dequeue() {
    let _serial = serial();
    let (_g, bear) = build(12);
    let engine = QueryEngine::new(Arc::clone(&bear), small_config(1, 4)).unwrap();
    failpoints::configure("queue::pop", FailAction::Delay(Duration::from_millis(60)));

    let opts = QueryOptions { deadline: Some(Duration::from_millis(10)), cancel: None };
    let err = engine.serve(1, &opts).unwrap_err();
    assert!(matches!(err, Error::Timeout { .. }), "expected typed timeout, got {err}");

    // The shed happens on whichever thread dequeues the expired job;
    // give the pool a moment to get there before checking the counter.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().shed_jobs == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(engine.metrics().shed_jobs >= 1, "expired job must be shed at dequeue");
}

/// Satellite regression: a query whose deadline is already expired (or
/// zero) at admission must fail fast with the typed `Timeout` *before*
/// being enqueued — even when the queue is full. Before the fix it was
/// enqueued (occupying bounded capacity until the dequeue-side shed) or,
/// at queue-full, misreported as `QueueFull`.
#[test]
fn expired_deadline_fails_fast_before_enqueue_even_at_queue_full() {
    let _serial = serial();
    let (_g, bear) = build(12);
    let engine = Arc::new(QueryEngine::new(Arc::clone(&bear), small_config(1, 1)).unwrap());
    // Make the single worker dawdle before computing, so a second job
    // sits in the capacity-1 queue and fills it. The fillers carry a
    // generous (not expired) deadline, which also keeps them off the
    // caller-assist path — with a deadline set, submitters never compute
    // inline, so the queue fills deterministically.
    failpoints::configure("engine::run_job", FailAction::Delay(Duration::from_millis(400)));
    let generous = QueryOptions { deadline: Some(Duration::from_secs(30)), cancel: None };

    let f1 = {
        let (engine, opts) = (Arc::clone(&engine), generous.clone());
        std::thread::spawn(move || engine.serve(1, &opts).map(|_| ()))
    };
    // The worker pops f1's job effectively instantly, then naps in the
    // injected delay; give it a moment, then fill the queue's only slot.
    std::thread::sleep(Duration::from_millis(100));
    let f2 = {
        let (engine, opts) = (Arc::clone(&engine), generous.clone());
        std::thread::spawn(move || engine.serve(2, &opts).map(|_| ()))
    };
    let wait_deadline = Instant::now() + Duration::from_secs(5);
    while engine.queue_depth() < 1 && Instant::now() < wait_deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(engine.queue_depth(), 1, "queue must be full for the regression");

    // Expired-deadline admission while the queue is full: the typed
    // Timeout (not QueueFull), counted, and nothing shed at dequeue —
    // the dead job never reached the queue, whose single slot still
    // belongs to the viable filler.
    let shed_before = engine.metrics().shed_jobs;
    let opts = QueryOptions { deadline: Some(Duration::ZERO), cancel: None };
    let err = engine.serve(3, &opts).unwrap_err();
    assert!(matches!(err, Error::Timeout { .. }), "want fail-fast Timeout, got {err}");
    assert!(engine.metrics().timeouts >= 1);
    assert_eq!(engine.metrics().shed_jobs, shed_before, "job must not be enqueued then shed");
    assert_eq!(engine.metrics().queue_rejections, 0, "fail-fast must not misreport QueueFull");

    f1.join().unwrap().unwrap();
    f2.join().unwrap().unwrap();
}

/// Fault class: admission-path failure (e.g. an I/O-backed queue
/// erroring). The injected error propagates typed from `serve`, and with
/// `DelayThenFail` the slow-then-failing path still never hangs.
#[test]
fn admission_failure_propagates_typed() {
    let _serial = serial();
    let (_g, bear) = build(10);
    let engine = QueryEngine::new(Arc::clone(&bear), small_config(1, 4)).unwrap();

    failpoints::configure("queue::push", FailAction::Fail);
    let err = engine.serve(2, &QueryOptions::default()).unwrap_err();
    assert!(
        matches!(&err, Error::InvalidStructure(msg) if msg.contains("failpoint 'queue::push'")),
        "unexpected error: {err}"
    );

    failpoints::configure("queue::push", FailAction::DelayThenFail(Duration::from_millis(5)));
    let start = Instant::now();
    assert!(engine.serve(2, &QueryOptions::default()).is_err());
    assert!(start.elapsed() >= Duration::from_millis(5));
    failpoints::clear("queue::push");
    assert!(engine.serve(2, &QueryOptions::default()).is_ok(), "pool healthy after disarming");
}

/// Cancellation: a caller that abandons a batch stops its queued jobs —
/// they are shed at dequeue instead of consuming the pool.
#[test]
fn cancelled_batch_stops_consuming_workers() {
    let _serial = serial();
    let (_g, bear) = build(12);
    let engine = QueryEngine::new(Arc::clone(&bear), small_config(1, 8)).unwrap();
    failpoints::configure("engine::run_job", FailAction::Delay(Duration::from_millis(50)));

    let token = bear_core::CancelToken::new();
    token.cancel();
    let opts = QueryOptions { deadline: None, cancel: Some(token) };
    let err = engine.serve_batch(&[1, 2, 3], &opts).unwrap_err();
    assert_eq!(err, Error::Cancelled);
    assert!(engine.metrics().shed_jobs >= 1);
}
