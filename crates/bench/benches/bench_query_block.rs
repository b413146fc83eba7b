//! Criterion micro-benchmark: blocked multi-RHS query kernels
//! ([`Bear::query_block_into`]) at widths 1/4/16/64. Times a full pass
//! over a fixed seed set so the numbers are per-query amortized and
//! directly comparable across widths. Every width is bit-identical to
//! width 1 (`tests/golden_scores.rs`); blocking's end-to-end effect is
//! perfbench's `batch_paged` workload, served at width 8.

use bear_core::{Bear, BearConfig, QueryWorkspace};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use bear_sparse::DenseBlock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

    let mut group = c.benchmark_group("query_block");
    group.sample_size(20);

    for width in [1usize, 4, 16, 64] {
        let mut ws = QueryWorkspace::for_bear(&bear);
        let mut out = DenseBlock::zeros(n, 0);
        group.bench_function(BenchmarkId::from_parameter(format!("width_{width}")), |b| {
            b.iter(|| {
                for chunk in seeds.chunks(width) {
                    out.reset(n, chunk.len());
                    bear.query_block_into(chunk, &mut ws, &mut out).unwrap();
                }
                std::hint::black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_block);
criterion_main!(benches);
