//! Criterion benchmark: batch query throughput of the persistent
//! [`QueryEngine`] pool against the legacy per-call path.
//!
//! The legacy path spawns a fresh scoped-thread team and allocates every
//! workspace and result vector per call; the engine keeps its workers and
//! per-worker buffers alive across calls. On a hub-spoke
//! graph of ≥ 10k nodes the engine must be strictly faster — this bench
//! is the acceptance check for that claim.

use bear_core::{Bear, BearConfig, EngineConfig, QueryEngine, QueryOptions};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// The pre-engine batch path, reproduced for comparison: a scoped thread
/// team is spawned per call and every query goes through the allocating
/// [`Bear::query`] (fresh workspace + temporaries each time), which is
/// what the batch path compiled to before the persistent pool existed.
fn legacy_query_batch(bear: &Bear, seeds: &[usize], threads: usize) -> Vec<Vec<f64>> {
    let threads = threads.max(1);
    let chunk = seeds.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| {
                scope
                    .spawn(move || part.iter().map(|&s| bear.query(s).unwrap()).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

/// Deterministic hub-spoke graph with ≥ 10k nodes (paper-style structure:
/// a dense hub core plus thousands of small caves).
fn bench_graph() -> bear_graph::Graph {
    let mut rng = StdRng::seed_from_u64(20150604);
    let g = hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 30,
            num_caves: 3000,
            max_cave_size: 7,
            cave_density: 0.4,
            hub_links: 2,
            hub_density: 0.5,
        },
        &mut rng,
    );
    assert!(g.num_nodes() >= 10_000, "bench graph too small: {}", g.num_nodes());
    g
}

fn bench_engine(c: &mut Criterion) {
    let g = bench_graph();
    let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.05)).unwrap());
    let n = g.num_nodes();
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get()).min(8);

    // A fixed spread of seeds across the whole graph.
    let batch: Vec<usize> = (0..64).map(|i| (i * 2_654_435_761usize) % n).collect();

    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));

    // Legacy path: scoped threads spawned per call, full workspace and
    // temporaries allocated per query.
    group.bench_with_input(BenchmarkId::new("legacy_scoped", threads), &threads, |b, &t| {
        b.iter(|| black_box(legacy_query_batch(&bear, &batch, t)))
    });

    // The engine: every iteration recomputes (full vectors are never
    // cached), so this isolates the pool + preallocated-workspace +
    // blocked-solve win.
    let engine = QueryEngine::new(
        Arc::clone(&bear),
        EngineConfig { threads, cache_capacity: 0, ..EngineConfig::default() },
    )
    .unwrap();
    let opts = QueryOptions::default();
    group.bench_with_input(BenchmarkId::new("engine_uncached", threads), &threads, |b, _| {
        b.iter(|| black_box(engine.serve_batch(&batch, &opts).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
