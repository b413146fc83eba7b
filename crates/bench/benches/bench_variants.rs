//! Criterion micro-benchmarks for the RWR variants and production
//! features: personalized PageRank, effective importance, top-k
//! extraction (full selection and the pruned exact path), index
//! save/load, dynamic edge insertion, the iterative-hub extension, and
//! the out-of-core kernel (paged blocked solve and the CRC-32 every
//! pager fault runs).

use bear_core::topk::top_k_excluding_seed;
use bear_core::{Bear, BearConfig, DynamicBear, QueryWorkspace, TopKPruneOptions};
use bear_datasets::dataset_by_name;
use bear_graph::generators::{hub_and_spoke, rmat, HubSpokeConfig, RmatConfig};
use bear_sparse::DenseBlock;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_variants(c: &mut Criterion) {
    let g = dataset_by_name("small_routing").unwrap().load();
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let n = g.num_nodes();

    c.bench_function("variants/ppr_100_seeds", |b| {
        let mut q = vec![0.0; n];
        for i in 0..100 {
            q[(i * 37) % n] += 0.01;
        }
        b.iter(|| std::hint::black_box(bear.query_distribution(&q).unwrap()))
    });

    c.bench_function("variants/effective_importance", |b| {
        b.iter(|| std::hint::black_box(bear.query_effective_importance(5).unwrap()))
    });

    c.bench_function("variants/top_k_10", |b| {
        b.iter(|| std::hint::black_box(bear.query_top_k(5, 10).unwrap()))
    });

    c.bench_function("persist/save_load_round_trip", |b| {
        let path = std::env::temp_dir().join("bench_persist.idx");
        b.iter(|| {
            bear.save(&path).unwrap();
            std::hint::black_box(Bear::load(&path).unwrap())
        });
        std::fs::remove_file(&path).ok();
    });

    c.bench_function("dynamic/hub_edge_insert", |b| {
        // Hub 0 (generator convention) gets repeatedly strengthened.
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.05)).unwrap();
        b.iter(|| std::hint::black_box(dynamic.insert_edge(0, 42, 0.001).unwrap()))
    });

    let hub_iter = Bear::new_hub_iterative(&g, &BearConfig::exact(0.05)).unwrap();
    c.bench_function("hub_iter/query", |b| {
        b.iter(|| std::hint::black_box(hub_iter.query(5).unwrap()))
    });
}

/// Pruned exact top-k ([`Bear::query_top_k_pruned_in`]) against the
/// full solve plus selection, at k = 8 over 64 seeds per iteration.
/// Both return bit-identical rankings (`tests/differential_oracle.rs`).
///
/// * `hub_spoke`: ~120 dense spoke blocks of up to 120 nodes behind 64
///   hubs. Spoke back-substitution dominates and the bounds certify
///   every seed, so pruning pays.
/// * `rmat_scale13` and `rmat_0.7` (the graph perfbench's
///   `topk_rmat_oneshot` serves): SlashBurn shreds R-MAT spokes into
///   thousands of mostly singleton blocks, and most seeds cannot be
///   certified. Those take one back sweep instead of resolving their
///   blocks one by one, so the pruned path costs about what the full
///   solve does there (DESIGN.md §17).
fn bench_topk_pruned(c: &mut Criterion) {
    const K: usize = 8;
    let hub_spoke = hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 64,
            num_caves: 120,
            max_cave_size: 120,
            cave_density: 0.3,
            hub_links: 2,
            hub_density: 0.3,
        },
        &mut StdRng::seed_from_u64(7),
    );
    let rmat_graph = rmat(&RmatConfig::paper(13, 8 << 13, 0.7), &mut StdRng::seed_from_u64(42));
    let rmat_07 = dataset_by_name("rmat_0.7").unwrap().load();

    let mut group = c.benchmark_group("topk_pruned");
    group.sample_size(10);
    for (name, g) in
        [("hub_spoke", &hub_spoke), ("rmat_scale13", &rmat_graph), ("rmat_0.7", &rmat_07)]
    {
        let bear = Bear::new(g, &BearConfig::exact(0.05)).unwrap();
        let n = bear.num_nodes();
        let seeds: Vec<usize> = (0..64).map(|i| (i * 2654435761) % n).collect();
        let mut ws = QueryWorkspace::for_bear(&bear);
        let mut scores = vec![0.0; n];
        group.bench_function(format!("{name}/full"), |b| {
            b.iter(|| {
                for &seed in &seeds {
                    bear.query_into(seed, &mut ws, &mut scores).unwrap();
                    std::hint::black_box(top_k_excluding_seed(&scores, seed, K));
                }
            })
        });
        let opts = TopKPruneOptions::default();
        group.bench_function(format!("{name}/pruned"), |b| {
            b.iter(|| {
                for &seed in &seeds {
                    std::hint::black_box(
                        bear.query_top_k_pruned_in(seed, K, &opts, &mut ws).unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

/// The out-of-core kernel behind `batch_paged` (which solves each
/// 16-seed request as one job, eight lanes per kernel call): a width-8
/// `query_block_into` on `web_bs_like` with the spoke factors paged from
/// an in-memory shard image capped at a third of their bytes (so the
/// pager faults, CRC-checks and decodes shards every solve), next
/// to the same solve on the resident index; plus CRC-32 throughput over
/// 1 MiB, the checksum every fault verifies.
fn bench_paged_kernel(c: &mut Criterion) {
    const WIDTH: usize = 8;
    let g = dataset_by_name("web_bs_like").unwrap().load();
    let resident = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let paged = resident.paged_in_memory(None).unwrap();
    let pager = paged.pager().unwrap();
    let spoke_bytes: usize = pager.directory().iter().map(|m| m.resident_bytes()).sum();
    pager.set_budget(Some(spoke_bytes / 3)).unwrap();
    let n = resident.num_nodes();
    let seeds: Vec<usize> = (0..WIDTH).map(|i| (i * 2654435761) % n).collect();

    let mut group = c.benchmark_group("paged_kernel");
    group.sample_size(10);
    for (name, bear) in [("resident", &resident), ("paged_third", &paged)] {
        let mut ws = QueryWorkspace::for_bear(bear);
        let mut out = DenseBlock::zeros(n, WIDTH);
        group.bench_function(format!("query_block_w{WIDTH}/{name}"), |b| {
            b.iter(|| {
                bear.query_block_into(&seeds, &mut ws, &mut out).unwrap();
                std::hint::black_box(&out);
            })
        });
    }
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32_1mib", |b| {
        b.iter(|| std::hint::black_box(bear_core::crc32::crc32(&data)))
    });
    group.finish();
}

criterion_group!(benches, bench_variants, bench_topk_pruned, bench_paged_kernel);
criterion_main!(benches);
