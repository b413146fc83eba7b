//! Deterministic overload mapping over HTTP, driven by bear-core's
//! fail-point sites (enable with `--features failpoints`).
//!
//! The core queue-full scenario is raced-free by construction: a
//! `Delay` fail point pins the single worker inside a job, requests
//! carrying generous deadlines skip the caller-assist path (inline
//! work cannot be abandoned mid-compute once a deadline is set), so
//! the one-slot queue fills deterministically and the next admission
//! must observe `Error::QueueFull` → `429 Too Many Requests`.

#![cfg(feature = "failpoints")]

use bear_core::failpoints::{self, FailAction};
use bear_core::rwr::RwrConfig;
use bear_core::{Bear, BearConfig, EngineConfig, FallbackSolver, QueryEngine};
use bear_graph::Graph;
use bear_serve::{client, Registry, Server, ServerConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The failpoint registry is process-global and the test harness runs
/// tests on parallel threads, so each test holds this lock for its whole
/// body: otherwise one test's arming (or `clear_all`) overwrites the
/// other's mid-flight. Sites a failed test left armed are cleared.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoints::clear_all();
    guard
}

fn star_graph() -> Graph {
    let mut edges = Vec::new();
    for v in 1..12 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    Graph::from_edges(12, &edges).unwrap()
}

#[test]
fn queue_full_maps_to_429_with_retry_after() {
    let _serial = serial();
    let bear = Arc::new(Bear::new(&star_graph(), &BearConfig::exact(0.15)).unwrap());
    // One worker, one queue slot, no caching: the tightest engine the
    // config validator admits.
    let engine_config = EngineConfig::builder()
        .threads(1)
        .queue_capacity(1)
        .cache_capacity(0)
        .block_width(1)
        .build()
        .unwrap();
    let engine = QueryEngine::new(bear, engine_config.clone()).unwrap();
    let registry = Arc::new(Registry::new());
    registry.publish("g", Arc::new(engine));
    let tenant = registry.get("g").unwrap();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig { http_threads: 4, engine_config, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.addr();

    failpoints::configure("engine::run_job", FailAction::Delay(Duration::from_millis(600)));

    // A occupies the worker (delayed inside run_job), B fills the one
    // queue slot. Both carry 30 s deadlines so neither is assisted
    // inline by its submitting HTTP worker.
    let slow = |seed: usize| {
        std::thread::spawn(move || {
            client::get(
                addr,
                &format!("/v1/query?graph=g&seed={seed}"),
                &[("X-Deadline-Ms", "30000")],
            )
            .unwrap()
        })
    };
    let a = slow(1);
    // Give A time to be admitted *and* popped: the worker is then
    // parked inside the 600 ms delay with the queue slot free again.
    std::thread::sleep(Duration::from_millis(150));
    let b = slow(2);
    // B's job parks in the queue slot while the worker is still pinned.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while tenant.engine.queue_depth() < 1 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // C must be rejected at admission: 429, typed, with backoff advice.
    let c = client::get(addr, "/v1/query?graph=g&seed=3", &[("X-Deadline-Ms", "30000")]).unwrap();
    assert_eq!(c.status, 429, "{}", c.body_str());
    assert!(c.body_str().contains("overloaded"));
    assert_eq!(c.header("retry-after"), Some("1"));

    failpoints::clear_all();
    assert_eq!(a.join().unwrap().status, 200, "pinned request must still complete");
    assert_eq!(b.join().unwrap().status, 200, "queued request must still complete");

    let m = tenant.engine.metrics();
    assert!(m.queue_rejections >= 1, "rejection must be counted: {m:?}");
    let text = client::get(addr, "/metrics", &[]).unwrap().body_str();
    assert!(text.contains("bear_http_responses_429_total 1"), "{text}");

    server.shutdown();
}

/// Satellite regression: a degraded *top-k* answer carries the same
/// `X-Degraded` ladder headers as the full-vector endpoints — the old
/// path lost the tag because `/v1/topk` never consulted the engine's
/// fallback. A worker panic (injected) with a fallback attached must
/// produce `200` + `X-Degraded: worker panicked`, and the degraded
/// ranking must never enter the top-k cache.
#[test]
fn degraded_topk_carries_x_degraded_header() {
    let _serial = serial();
    let g = star_graph();
    let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.15)).unwrap());
    let rwr = RwrConfig { c: 0.15, ..RwrConfig::default() };
    let fallback = Arc::new(FallbackSolver::new(&g, &rwr, 64).unwrap());
    let engine_config =
        EngineConfig::builder().threads(1).cache_capacity(8).block_width(1).build().unwrap();
    let engine = QueryEngine::with_fallback(bear, engine_config.clone(), fallback).unwrap();
    let registry = Arc::new(Registry::new());
    registry.publish("g", Arc::new(engine));
    let tenant = registry.get("g").unwrap();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig { http_threads: 2, engine_config, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.addr();

    failpoints::configure("engine::run_job", FailAction::Panic);
    let resp = client::get(addr, "/v1/topk?graph=g&seed=1&k=3", &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.header("x-degraded"), Some("worker panicked"), "{}", resp.body_str());
    assert!(resp.header("x-error-bound").is_some());
    assert_eq!(resp.body_str().matches("\"node\":").count(), 3);
    failpoints::clear_all();

    let m = tenant.engine.metrics();
    assert!(m.degraded >= 1, "degradation must be counted: {m:?}");
    assert!(m.worker_panics >= 1, "panic must be counted: {m:?}");

    // The degraded ranking must not have been cached: with the
    // failpoint cleared, the same request is answered exact (no
    // X-Degraded) rather than served from a poisoned cache entry.
    let resp = client::get(addr, "/v1/topk?graph=g&seed=1&k=3", &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.header("x-degraded"), None, "degraded answers must never be cached");

    server.shutdown();
}
