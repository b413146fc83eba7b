//! Property-based end-to-end tests: on arbitrary random graphs, BEAR
//! agrees with the iterative method and with a dense solve, respects
//! probability bounds, and is invariant under node relabelling.

use bear_baselines::{Iterative, IterativeConfig};
use bear_core::rwr::RwrConfig;
use bear_core::{Bear, BearConfig, RwrSolver};
use bear_graph::Graph;
use bear_sparse::Permutation;
use proptest::prelude::*;

/// Strategy: a random directed graph with `n ∈ [2, 40]` nodes and a
/// random edge set (kept connected enough to be interesting by always
/// including a cycle through all nodes).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 3));
        edges.prop_map(move |mut extra| {
            // Cycle backbone guarantees no dangling nodes and strong
            // connectivity of the base structure.
            for u in 0..n {
                extra.push((u, (u + 1) % n));
            }
            Graph::from_edges(n, &extra).unwrap()
        })
    })
}

/// The shrunken case from `proptest_end_to_end.proptest-regressions`,
/// pinned as a concrete test because the offline proptest stand-in does
/// not replay regression files: a 2-node graph whose node 0 carries a
/// weighted self-loop (edges 0→0 w=2, 0→1 w=1, 1→0 w=1), relabelled with
/// `perm_seed = 0`.
///
/// Diagnosis: neither `build_h` row-normalization nor SlashBurn's
/// tiny-graph ordering mishandles this input — the case agrees to ~1e-16
/// (tolerance is 1e-9), and an exhaustive sweep over every weighted
/// digraph on ≤ 3 nodes × every relabelling × every seed
/// (`examples/relabel_sweep.rs`, 27 774 checks) has worst deviation
/// 3.3e-16. The recorded failure came from the unbuildable dependency
/// set the seed shipped with, not from the numerics; this test keeps the
/// case pinned against actual regressions.
#[test]
fn pinned_regression_weighted_self_loop_relabelling() {
    let g = Graph::from_weighted_edges(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();

    // Same pseudo-random permutation construction as the property below.
    let n = g.num_nodes();
    let perm_seed = 0u64;
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = perm_seed.wrapping_add(12345);
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let p = Permutation::from_new_to_old(order).unwrap();

    let relabelled_edges: Vec<(usize, usize, f64)> =
        g.edges().iter().map(|&(u, v, w)| (p.new_of(u), p.new_of(v), w)).collect();
    let g2 = Graph::from_weighted_edges(n, &relabelled_edges).unwrap();

    let bear1 = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
    let bear2 = Bear::new(&g2, &BearConfig::exact(0.15)).unwrap();
    let r1 = bear1.query(0).unwrap();
    let r2 = bear2.query(p.new_of(0)).unwrap();
    for u in 0..n {
        assert!(
            (r1[u] - r2[p.new_of(u)]).abs() < 1e-9,
            "node {u}: {} vs {}",
            r1[u],
            r2[p.new_of(u)]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bear_matches_iterative_on_random_graphs(g in arb_graph(), seed_frac in 0.0f64..1.0) {
        let n = g.num_nodes();
        let seed = ((seed_frac * n as f64) as usize).min(n - 1);
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let it = Iterative::new(
            &g,
            &IterativeConfig {
                rwr: RwrConfig { c: 0.1, ..RwrConfig::default() },
                epsilon: 1e-12,
                max_iterations: 100_000,
            },
        )
        .unwrap();
        let rb = bear.query(seed).unwrap();
        let ri = it.query(seed).unwrap();
        for (a, b) in rb.iter().zip(&ri) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn scores_form_a_subprobability_distribution(g in arb_graph()) {
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        let r = bear.query(0).unwrap();
        for &v in &r {
            prop_assert!(v >= -1e-12, "negative score {v}");
            prop_assert!(v <= 1.0 + 1e-9, "score {v} > 1");
        }
        let sum: f64 = r.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "mass {sum} > 1");
        // The cycle backbone means no dangling nodes => mass exactly 1.
        prop_assert!(sum > 1.0 - 1e-6, "mass {sum} leaked");
    }

    #[test]
    fn relabelling_nodes_permutes_scores(g in arb_graph(), perm_seed in 0u64..1000) {
        // Build a pseudo-random permutation of the nodes.
        let n = g.num_nodes();
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = perm_seed.wrapping_add(12345);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_new_to_old(order).unwrap();

        // Relabelled graph: node u of g becomes p.new_of(u). Weights must
        // be preserved (duplicate input edges were merged by summing).
        let relabelled_edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|&(u, v, w)| (p.new_of(u), p.new_of(v), w))
            .collect();
        let g2 = Graph::from_weighted_edges(n, &relabelled_edges).unwrap();

        let bear1 = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
        let bear2 = Bear::new(&g2, &BearConfig::exact(0.15)).unwrap();
        let seed = 0;
        let r1 = bear1.query(seed).unwrap();
        let r2 = bear2.query(p.new_of(seed)).unwrap();
        for u in 0..n {
            prop_assert!(
                (r1[u] - r2[p.new_of(u)]).abs() < 1e-9,
                "node {u}: {} vs {}",
                r1[u],
                r2[p.new_of(u)]
            );
        }
    }

    #[test]
    fn approx_error_bounded_by_tolerance_regime(g in arb_graph()) {
        let exact = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let approx = Bear::new(&g, &BearConfig::approx(0.1, 1e-6)).unwrap();
        let re = exact.query(1 % g.num_nodes()).unwrap();
        let ra = approx.query(1 % g.num_nodes()).unwrap();
        let l2 = bear_core::metrics::l2_error(&re, &ra);
        prop_assert!(l2 < 1e-2, "tiny tolerance produced error {l2}");
        prop_assert!(approx.memory_bytes() <= exact.memory_bytes());
    }

    #[test]
    fn query_engine_matches_bear_on_random_graphs(g in arb_graph(), threads in 1usize..4) {
        use bear_core::{EngineConfig, QueryEngine, QueryOptions};
        use std::sync::Arc;

        let n = g.num_nodes();
        let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.15)).unwrap());
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { threads, cache_capacity: 8, ..EngineConfig::default() },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..n.min(6)).collect();
        let opts = QueryOptions::default();
        let batch = engine.serve_batch(&seeds, &opts).unwrap();
        for (&seed, served) in seeds.iter().zip(&batch) {
            let reference = bear.query(seed).unwrap();
            // Bit-identical: the engine's blocked solve replicates the
            // per-seed accumulation order column by column.
            prop_assert_eq!(served.scores.as_slice(), reference.as_slice());
            // A single-seed repeat must stay identical.
            let again = engine.serve(seed, &opts).unwrap();
            prop_assert_eq!(again.scores.as_slice(), reference.as_slice());
        }
        let m = engine.metrics();
        prop_assert!(m.queries >= 2 * seeds.len() as u64);
    }

    #[test]
    fn pruned_top_k_bit_identical_on_random_graphs(
        g in arb_graph(),
        seed_frac in 0.0f64..1.0,
        k_frac in 0.0f64..1.2,
        xi_sel in 0usize..3,
    ) {
        let n = g.num_nodes();
        let seed = ((seed_frac * n as f64) as usize).min(n - 1);
        // k sweeps from 1 past n (k_frac up to 1.2 → k up to n + 2).
        let k = (((k_frac * (n + 2) as f64) as usize).max(1)).min(n + 2);
        // ξ = 0 (BEAR-Exact) plus two BEAR-Approx regimes.
        let xi = [0.0, 1e-5, 1e-3][xi_sel.min(2)];
        let bear = Bear::new(&g, &BearConfig::approx(0.15, xi)).unwrap();
        let full = bear.query(seed).unwrap();
        let want = bear_core::topk::top_k_excluding_seed(&full, seed, k);
        let got = bear.query_top_k_pruned(seed, k).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.node, b.node, "node rank order differs");
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits differ");
        }
    }

    #[test]
    fn ppr_superposition_on_random_graphs(g in arb_graph()) {
        let n = g.num_nodes();
        let bear = Bear::new(&g, &BearConfig::exact(0.25)).unwrap();
        let a = 0;
        let b = n - 1;
        let mut q = vec![0.0; n];
        q[a] += 0.4;
        q[b] += 0.6;
        let mix = bear.query_distribution(&q).unwrap();
        let ra = bear.query(a).unwrap();
        let rb = bear.query(b).unwrap();
        for u in 0..n {
            let want = 0.4 * ra[u] + 0.6 * rb[u];
            prop_assert!((mix[u] - want).abs() < 1e-9);
        }
    }
}
