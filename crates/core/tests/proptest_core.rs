//! Crate-level property tests for bear-core: the iterative-hub variant,
//! persistence, top-k, blocked multi-RHS queries, and drop-tolerance
//! behaviour on arbitrary graphs.

use bear_core::engine::{EngineConfig, QueryEngine, QueryOptions};
use bear_core::{Bear, BearConfig, QueryWorkspace, RwrSolver};
use bear_graph::Graph;
use bear_sparse::DenseBlock;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..35).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 2)).prop_map(move |mut edges| {
            for u in 0..n {
                edges.push((u, (u + 1) % n));
            }
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

/// A ring of 41 to 69 nodes plus random edges: enough nodes for 40
/// distinct seeds.
fn arb_wide_graph() -> impl Strategy<Value = Graph> {
    (41usize..70).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 2)).prop_map(move |mut edges| {
            for u in 0..n {
                edges.push((u, (u + 1) % n));
            }
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn query_block_one_job_matches_width_one(
        g in arb_wide_graph(),
        width in 1usize..=40,
        offset in 0usize..70,
    ) {
        // The serving engine solves a request's distinct seeds as one
        // job, one seed-interleaved kernel call per touched spoke unit
        // carrying every seed that touches it. Whatever the width, on a
        // resident index and on one paged under a one-block budget, for
        // mixed, hub-only and spoke-only seed sets, every answer is
        // bit-identical to width 1.
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let n = bear.num_nodes();
        let is_spoke = |v: &usize| bear.ordering().new_of(*v) < bear.n_spokes();
        let (spokes, hubs): (Vec<usize>, Vec<usize>) = (0..n).partition(is_spoke);
        let sets = [
            (0..width).map(|i| (offset + i) % n).collect::<Vec<_>>(),
            hubs.into_iter().take(width).collect(),
            spokes.into_iter().take(width).collect(),
        ];
        let paged = bear.paged_in_memory(None).unwrap();
        let pager = paged.pager().unwrap();
        let one_block = pager.directory().iter().map(|m| m.resident_bytes()).max();
        pager.set_budget(Some(one_block.unwrap_or(1))).unwrap();
        let want: Vec<Vec<Vec<f64>>> =
            sets.iter().map(|s| s.iter().map(|&v| bear.query(v).unwrap()).collect()).collect();
        let indexes = [Arc::new(bear.clone()), Arc::new(paged)];
        for index in &indexes {
            let config = EngineConfig { threads: 1, cache_capacity: 0, ..EngineConfig::default() };
            let engine = QueryEngine::new(Arc::clone(index), config).unwrap();
            let mut requests = 0;
            for (seeds, want) in sets.iter().zip(&want).filter(|(s, _)| !s.is_empty()) {
                let served = engine.serve_batch(seeds, &QueryOptions::default()).unwrap();
                for (got, want) in served.iter().zip(want) {
                    prop_assert_eq!(&*got.scores, want, "width {}", seeds.len());
                }
                requests += 1;
            }
            prop_assert_eq!(engine.metrics().block_solves, requests, "one solve per request");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn hub_iterative_equals_exact_bear(g in arb_graph(), s in 0.0f64..1.0) {
        let seed = ((s * g.num_nodes() as f64) as usize).min(g.num_nodes() - 1);
        let exact = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let hub_iter = Bear::new_hub_iterative(&g, &BearConfig::exact(0.1)).unwrap();
        let re = exact.query(seed).unwrap();
        let ri = hub_iter.query(seed).unwrap();
        for (a, b) in re.iter().zip(&ri) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        prop_assert!(hub_iter.memory_bytes() <= exact.memory_bytes());
    }

    #[test]
    fn persistence_round_trips_on_random_graphs(g in arb_graph(), tag in 0u64..1_000_000) {
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        let path = std::env::temp_dir().join(format!("bear_prop_persist_{tag}.idx"));
        bear.save(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(bear.stats(), loaded.stats());
        let seed = g.num_nodes() / 2;
        prop_assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
    }

    #[test]
    fn top_k_prefix_property(g in arb_graph(), k in 1usize..10) {
        let bear = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
        let seed = 0;
        let k = k.min(g.num_nodes() - 1);
        let top_k = bear.query_top_k(seed, k).unwrap();
        let top_k1 = bear.query_top_k(seed, k + 1).unwrap();
        // top-k is a prefix of top-(k+1).
        prop_assert_eq!(&top_k[..], &top_k1[..top_k.len().min(top_k1.len())]);
        // Scores descend and exclude the seed.
        for w in top_k.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        prop_assert!(top_k.iter().all(|s| s.node != seed));
    }

    #[test]
    fn drop_tolerance_zero_is_exact(g in arb_graph()) {
        let a = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let b = Bear::new(&g, &BearConfig::approx(0.1, 0.0)).unwrap();
        prop_assert_eq!(a.query(0).unwrap(), b.query(0).unwrap());
        prop_assert_eq!(a.memory_bytes(), b.memory_bytes());
    }

    #[test]
    fn parallel_preprocessing_saves_identical_bytes(g in arb_graph(), tag in 0u64..1_000_000) {
        // The public-API face of the determinism guarantee: serial and
        // multi-threaded preprocessing persist byte-for-byte identical
        // indexes, so every matrix, permutation entry, and count agrees
        // exactly — not just approximately.
        let serial = Bear::new(&g, &BearConfig { threads: 1, ..BearConfig::approx(0.1, 1e-4) }).unwrap();
        let mut blobs = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let config = BearConfig { threads, ..BearConfig::approx(0.1, 1e-4) };
            let bear = Bear::new(&g, &config).unwrap();
            let path = std::env::temp_dir().join(format!("bear_prop_par_{tag}_{threads}.idx"));
            bear.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            blobs.push((threads, bytes));
            prop_assert_eq!(serial.stats(), bear.stats());
        }
        let (_, reference) = &blobs[0];
        for (threads, bytes) in &blobs[1..] {
            prop_assert_eq!(bytes, reference, "threads = {} produced different index bytes", threads);
        }
    }

    #[test]
    fn batch_query_equals_individual(g in arb_graph()) {
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let n = g.num_nodes();
        let seeds: Vec<usize> = (0..n.min(6)).collect();
        let batch = bear.query_block(&seeds).unwrap();
        for (i, &s) in seeds.iter().enumerate() {
            prop_assert_eq!(&batch[i], &bear.query(s).unwrap());
        }
    }

    #[test]
    fn query_block_identical_to_per_seed(
        g in arb_graph(),
        picks in proptest::collection::vec(0.0f64..1.0, 0..12),
        width in 1usize..10,
    ) {
        // The blocked multi-RHS path's determinism guarantee: for ANY
        // graph, ANY seed multiset (duplicates included), and ANY block
        // width — including a width larger than the seed count, which
        // exercises the remainder/fallback shapes — every blocked column
        // is bit-for-bit identical (`==`, not approximately equal) to
        // the per-seed answer.
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let n = g.num_nodes();
        let seeds: Vec<usize> =
            picks.iter().map(|&p| ((p * n as f64) as usize).min(n - 1)).collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        let mut ws = QueryWorkspace::for_bear(&bear);
        let mut out = DenseBlock::zeros(n, 0);
        let mut offset = 0;
        for chunk in seeds.chunks(width) {
            out.reset(n, chunk.len());
            bear.query_block_into(chunk, &mut ws, &mut out).unwrap();
            for (j, want) in want[offset..offset + chunk.len()].iter().enumerate() {
                prop_assert_eq!(out.col(j), &want[..], "column {} diverged", offset + j);
            }
            offset += chunk.len();
        }
        // One whole-slice solve too (width > n_seeds when picks is short).
        if !seeds.is_empty() {
            let cols = bear.query_block(&seeds).unwrap();
            for (got, want) in cols.iter().zip(&want) {
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn batch_query_empty_seed_slice_is_empty(g in arb_graph()) {
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        prop_assert_eq!(bear.query_block(&[]).unwrap(), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn effective_importance_degree_relation(g in arb_graph()) {
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let deg = g.undirected_degrees();
        let r = bear.query(0).unwrap();
        let ei = bear.query_effective_importance(0).unwrap();
        for u in 0..g.num_nodes() {
            let want = if deg[u] > 0 { r[u] / deg[u] as f64 } else { r[u] };
            prop_assert!((ei[u] - want).abs() < 1e-12);
        }
    }
}
