//! Criterion micro-benchmark: blocked multi-RHS query kernels
//! ([`Bear::query_block_into`]) on a resident index at widths 1/4/16/64
//! and on a paged index at widths 1/8/16. Times a full pass over a
//! fixed seed set so the numbers are per-query amortized and directly
//! comparable across widths. Every width is bit-identical to width 1
//! (`tests/golden_scores.rs`); blocking's end-to-end effect is
//! perfbench's `batch_paged` workload, 16-seed requests each served as
//! one solve.
//!
//! The paged arm writes the index to a file in the system temp
//! directory and pages it under a third of its spoke bytes. For both
//! arms it also prints the pass time per stored spoke nonzero per seed
//! (`L₁⁻¹` plus `U₁⁻¹` nonzeros times seeds answered), the work unit of
//! Theorem 3's dominant `Σn₁ᵢ²` term.
//!
//! The paged group also serves the same seeds as 16-seed requests
//! through a [`QueryEngine`] (`job_16`): each request is one width-16
//! solve, beside `width_8`, which makes two width-8 solves of every 16
//! seeds. It prints the pager misses per 16-seed request of both, which
//! is where one sweep per request saves: the second width-8 back sweep
//! re-faults the shards the first one evicted.

use bear_core::engine::{EngineConfig, QueryEngine, QueryOptions};
use bear_core::{Bear, BearConfig, QueryWorkspace};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use bear_sparse::DenseBlock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One pass over `seeds`, `width` seeds per blocked solve.
fn pass(bear: &Bear, seeds: &[usize], width: usize, ws: &mut QueryWorkspace, out: &mut DenseBlock) {
    let n = bear.num_nodes();
    for chunk in seeds.chunks(width) {
        out.reset(n, chunk.len());
        bear.query_block_into(chunk, ws, out).unwrap();
    }
    std::hint::black_box(&*out);
}

/// The median of nine timed passes, in ns per stored spoke nonzero per
/// seed.
fn ns_per_nonzero_seed(bear: &Bear, seeds: &[usize], width: usize) -> f64 {
    let stats = bear.stats();
    let work = ((stats.nnz_l1_inv + stats.nnz_u1_inv) * seeds.len()) as f64;
    let mut ws = QueryWorkspace::for_bear(bear);
    let mut out = DenseBlock::zeros(bear.num_nodes(), 0);
    pass(bear, seeds, width, &mut ws, &mut out);
    let mut ns: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            pass(bear, seeds, width, &mut ws, &mut out);
            start.elapsed().as_nanos() as f64 / work
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Seeds per request in the engine arm, as `batch_paged` sends them.
const REQUEST: usize = 16;

/// One pass over `seeds` through `engine`, [`REQUEST`] seeds per request.
fn engine_pass(engine: &QueryEngine, seeds: &[usize]) {
    for request in seeds.chunks(REQUEST) {
        std::hint::black_box(engine.serve_batch(request, &QueryOptions::default()).unwrap());
    }
}

/// Pager misses per [`REQUEST`]-seed request over one pass of `run`,
/// after one warm-up pass.
fn misses_per_request(paged: &Bear, seeds: &[usize], mut run: impl FnMut()) -> f64 {
    let pager = paged.pager().expect("paged");
    run();
    let before = pager.stats().misses;
    run();
    let requests = seeds.len().div_ceil(REQUEST) as f64;
    (pager.stats().misses - before) as f64 / requests
}

/// The `job_16` arm beside `width_8` (module docs).
fn bench_engine_arm(c: &mut Criterion, group: &str, paged: &Arc<Bear>, seeds: &[usize]) {
    let config = EngineConfig { threads: 1, cache_capacity: 0, ..Default::default() };
    let engine = QueryEngine::new(Arc::clone(paged), config).expect("engine");
    let mut g = c.benchmark_group(group);
    g.sample_size(20);
    g.bench_function(BenchmarkId::from_parameter("job_16"), |b| {
        b.iter(|| engine_pass(&engine, seeds))
    });
    g.finish();
    let mut ws = QueryWorkspace::for_bear(paged);
    let mut out = DenseBlock::zeros(paged.num_nodes(), 0);
    let two = misses_per_request(paged, seeds, || pass(paged, seeds, 8, &mut ws, &mut out));
    let one = misses_per_request(paged, seeds, || engine_pass(&engine, seeds));
    println!("{group}/width_8         {two:>8.1} pager misses per {REQUEST}-seed request");
    println!("{group}/job_16          {one:>8.1} pager misses per {REQUEST}-seed request");
}

fn bench_arm(c: &mut Criterion, group: &str, bear: &Bear, seeds: &[usize], widths: &[usize]) {
    let n = bear.num_nodes();
    let mut g = c.benchmark_group(group);
    g.sample_size(20);
    for &width in widths {
        let mut ws = QueryWorkspace::for_bear(bear);
        let mut out = DenseBlock::zeros(n, 0);
        g.bench_function(BenchmarkId::from_parameter(format!("width_{width}")), |b| {
            b.iter(|| pass(bear, seeds, width, &mut ws, &mut out))
        });
    }
    g.finish();
    for &width in widths {
        let ns = ns_per_nonzero_seed(bear, seeds, width);
        println!("{group}/width_{width:<3} {ns:>8.3} ns per stored spoke nonzero per seed");
    }
}

fn bench_query_block(c: &mut Criterion) {
    let g = hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 12,
            num_caves: 120,
            max_cave_size: 24,
            cave_density: 0.3,
            hub_links: 2,
            hub_density: 0.4,
        },
        &mut StdRng::seed_from_u64(42),
    );
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).expect("preprocess");
    let n = bear.num_nodes();
    let seeds: Vec<usize> = (0..64).map(|i| (i * 2654435761) % n).collect();
    bench_arm(c, "query_block", &bear, &seeds, &[1, 4, 16, 64]);

    let path = std::env::temp_dir().join(format!("bench_query_block_{}.idx", std::process::id()));
    bear.save(&path).expect("write index");
    let paged = Arc::new(Bear::load(&path).expect("load index"));
    let pager = paged.pager().expect("a default load pages");
    let spoke_bytes: usize = pager.directory().iter().map(|m| m.resident_bytes()).sum();
    pager.set_budget(Some(spoke_bytes / 3)).expect("budget");
    bench_arm(c, "query_block_paged", &paged, &seeds, &[1, 8, 16]);
    bench_engine_arm(c, "query_block_paged", &paged, &seeds);
    drop(paged);
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_query_block);
criterion_main!(benches);
