//! Criterion micro-benchmark: serial vs multi-threaded BEAR
//! preprocessing (`BearConfig::threads`), exact and with drop-tolerance
//! sparsification. The parallel path is bit-identical to serial, so the
//! only question this answers is wall-clock speedup.
//!
//! `cargo bench -p bear-bench --bench bench_precompute`. The speedup is
//! bounded by the host's cores (`std::thread::available_parallelism`).

use bear_core::{Bear, BearConfig};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SlashBurn-friendly benchmark graph: many moderate caves so the
/// block-diagonal LU stage has real parallel work to balance.
fn bench_graph() -> bear_graph::Graph {
    hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 12,
            num_caves: 120,
            max_cave_size: 24,
            cave_density: 0.3,
            hub_links: 2,
            hub_density: 0.4,
        },
        &mut StdRng::seed_from_u64(42),
    )
}

fn bench_precompute(c: &mut Criterion) {
    let g = bench_graph();
    let mut group = c.benchmark_group("precompute");
    group.sample_size(10);
    for xi in [0.0, 1e-4] {
        for threads in [1usize, 2, 4] {
            let config = BearConfig { threads, drop_tolerance: xi, ..BearConfig::default() };
            let label = format!("xi={xi}/threads={threads}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
                b.iter(|| std::hint::black_box(Bear::new(&g, config).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_precompute);
criterion_main!(benches);
