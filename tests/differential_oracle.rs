//! Differential-oracle suite: every query path in the workspace —
//! BEAR-Exact per-seed, the blocked multi-RHS kernels at several widths,
//! the scoped-thread batch path, and the LU / QR / iterative baselines —
//! is checked against one independent ground truth, dense matrix
//! inversion, within an L∞ tolerance of 1e-10.
//!
//! The panel runs on the paper-shape datasets (`small_suite`) plus
//! randomly generated SlashBurn-able hub-and-spoke graphs, so both the
//! structures the paper evaluates and adversarially random ones are
//! covered. A uniform restart probability of 0.2 keeps the iterative
//! method's contraction factor small enough that its converged answer
//! sits well inside the shared tolerance. The iterative hub form of the
//! index (`Bear::new_hub_iterative`) is checked on the same panel.

use bear_baselines::{Inversion, Iterative, IterativeConfig, LuDecomp, QrDecomp};
use bear_core::rwr::RwrConfig;
use bear_core::{Bear, BearConfig, QueryWorkspace, RwrSolver};
use bear_datasets::small_suite;
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use bear_graph::Graph;
use bear_sparse::mem::MemBudget;
use bear_sparse::DenseBlock;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared L∞ agreement tolerance for every solver on the panel.
const TOL: f64 = 1e-10;
/// Restart probability for the whole panel. Larger than the paper's
/// default 0.05 so the iterative method's geometric error (factor
/// `1 - c` per sweep) converges below [`TOL`] instead of stalling at it.
const C: f64 = 0.2;

fn linf(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Paper-shape datasets plus random SlashBurn-able graphs.
fn graph_panel() -> Vec<(String, Graph)> {
    let mut graphs: Vec<(String, Graph)> =
        small_suite().iter().map(|spec| (spec.name.to_string(), spec.load())).collect();
    for rng_seed in [7u64, 99, 1234] {
        let g = hub_and_spoke(
            &HubSpokeConfig {
                num_hubs: 4,
                num_caves: 14,
                max_cave_size: 9,
                cave_density: 0.4,
                hub_links: 2,
                hub_density: 0.5,
            },
            &mut StdRng::seed_from_u64(rng_seed),
        );
        graphs.push((format!("hub_spoke_rng{rng_seed}"), g));
    }
    graphs
}

#[test]
fn every_query_path_matches_the_dense_inversion_oracle() {
    for (name, g) in graph_panel() {
        let n = g.num_nodes();
        let rwr = RwrConfig { c: C, ..RwrConfig::default() };
        let budget = MemBudget::unlimited();
        let oracle = Inversion::new(&g, &rwr, &budget).expect("dense inversion oracle");
        let seeds: Vec<usize> = (0..8).map(|i| (i * 977) % n).collect();
        let truth: Vec<Vec<f64>> =
            seeds.iter().map(|&s| oracle.query(s).expect("oracle query")).collect();

        // Per-seed paths: BEAR exact and the three baselines.
        let bear = Bear::new(&g, &BearConfig::exact(C)).expect("bear");
        let solvers: Vec<(&str, Box<dyn RwrSolver>)> = vec![
            ("lu", Box::new(LuDecomp::new(&g, &rwr, &budget).unwrap())),
            ("qr", Box::new(QrDecomp::new(&g, &rwr, &budget).unwrap())),
            (
                "iterative",
                Box::new(
                    Iterative::new(
                        &g,
                        &IterativeConfig { rwr, epsilon: 1e-13, max_iterations: 100_000 },
                    )
                    .unwrap(),
                ),
            ),
        ];
        for (&seed, want) in seeds.iter().zip(&truth) {
            let r = bear.query(seed).unwrap();
            let err = linf(&r, want);
            assert!(err < TOL, "{name}: bear off oracle by {err:.3e} at seed {seed}");
            for (sname, solver) in &solvers {
                let r = solver.query(seed).unwrap();
                let err = linf(&r, want);
                assert!(err < TOL, "{name}: {sname} off oracle by {err:.3e} at seed {seed}");
            }
        }

        // Blocked multi-RHS path, one reused workspace across widths —
        // including widths that leave a remainder chunk.
        let mut ws = QueryWorkspace::for_bear(&bear);
        let mut out = DenseBlock::zeros(n, 0);
        for width in [1usize, 3, 8] {
            let mut offset = 0;
            for chunk in seeds.chunks(width) {
                out.reset(n, chunk.len());
                bear.query_block_into(chunk, &mut ws, &mut out).unwrap();
                for (j, want) in truth[offset..offset + chunk.len()].iter().enumerate() {
                    let err = linf(out.col(j), want);
                    assert!(
                        err < TOL,
                        "{name}: blocked width {width} off oracle by {err:.3e} at column {j}"
                    );
                }
                offset += chunk.len();
            }
        }

        // Whole-batch blocked path.
        let batch = bear.query_block(&seeds).unwrap();
        for (i, (got, want)) in batch.iter().zip(&truth).enumerate() {
            let err = linf(got, want);
            assert!(err < TOL, "{name}: query_block off oracle by {err:.3e} at seed #{i}");
        }
    }
}

/// The iterative hub form (`Bear::new_hub_iterative`) on the same
/// panel: per-seed and distribution answers within [`TOL`] of the dense
/// oracle, and every other path bit-identical to its own width-1
/// answer: blocks of 1, 3 and 8, a paged copy under a one-block budget,
/// the serving engine's batches and single seeds, and pruned top-k
/// against its own full ranking, exact and with ξ > 0.
#[test]
fn iterative_hub_form_matches_the_oracle_on_every_path() {
    use bear_core::{EngineConfig, QueryEngine, QueryOptions};
    use std::sync::Arc;
    for (name, g) in graph_panel() {
        let n = g.num_nodes();
        let rwr = RwrConfig { c: C, ..RwrConfig::default() };
        let oracle = Inversion::new(&g, &rwr, &MemBudget::unlimited()).expect("oracle");
        let seeds: Vec<usize> = (0..8).map(|i| (i * 977) % n).collect();
        for xi in [0.0, 1e-4] {
            let bear = Bear::new_hub_iterative(&g, &BearConfig::approx(C, xi)).expect("bear");
            let singles: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
            let mut q = vec![0.0; n];
            for (&s, w) in seeds.iter().zip([0.4, 0.3, 0.2, 0.1]) {
                q[s] += w;
            }
            let distribution = bear.query_distribution(&q).unwrap();
            if xi == 0.0 {
                for (&seed, got) in seeds.iter().zip(&singles) {
                    let err = linf(got, &oracle.query(seed).unwrap());
                    assert!(err < TOL, "{name}: hub-iter off oracle by {err:.3e} at seed {seed}");
                }
                let err = linf(&distribution, &oracle.query_distribution(&q).unwrap());
                assert!(err < TOL, "{name}: hub-iter distribution off oracle by {err:.3e}");
            }

            let paged = bear.paged_in_memory(None).unwrap();
            let pager = paged.pager().expect("paged copy");
            pager.set_budget(pager.directory().iter().map(|m| m.resident_bytes()).max()).unwrap();
            for (form, index) in [("resident", &bear), ("paged", &paged)] {
                let at = format!("{name} xi={xi} {form}");
                for width in [1usize, 3, 8] {
                    for (chunk, want) in seeds.chunks(width).zip(singles.chunks(width)) {
                        assert_eq!(&index.query_block(chunk).unwrap(), want, "{at}: width {width}");
                    }
                }
                assert_eq!(index.query_distribution(&q).unwrap(), distribution, "{at}");
                for &seed in &seeds[..4] {
                    for k in [1usize, 5, n / 2] {
                        let want = index.query_top_k(seed, k).unwrap();
                        let got = index.query_top_k_pruned(seed, k).unwrap();
                        assert_eq!(got.len(), want.len(), "{at}: seed {seed} k {k}");
                        for (a, b) in got.iter().zip(&want) {
                            assert_eq!(a.node, b.node, "{at}: seed {seed} k {k}");
                            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{at}: seed {seed}");
                        }
                    }
                }
            }

            let engine = QueryEngine::new(Arc::new(paged), EngineConfig::default()).unwrap();
            let opts = QueryOptions::default();
            let batch = engine.serve_batch(&seeds, &opts).unwrap();
            for ((&seed, served), want) in seeds.iter().zip(&batch).zip(&singles) {
                assert_eq!(served.scores.as_slice(), want.as_slice(), "{name}: engine batch");
                let again = engine.serve(seed, &opts).unwrap();
                assert_eq!(again.scores.as_slice(), want.as_slice(), "{name}: engine seed");
                let top = engine.query_top_k(seed, 5, &opts).unwrap();
                assert_eq!(*top.nodes, bear.query_top_k(seed, 5).unwrap(), "{name}: engine top-k");
            }
        }
    }
}

/// The pruned top-k path must be *bit-identical* to ranking the full
/// exact score vector: same nodes, same order, same `f64` bits — not
/// merely within tolerance. Covers every panel graph, both BEAR-Exact
/// (ξ = 0) and BEAR-Approx (ξ > 0; pruning must be exact w.r.t. the
/// sparsified operator it runs on), all seeds, and k from 1 through
/// past n (where the answer is all n − 1 non-seed nodes).
#[test]
fn pruned_top_k_is_bit_identical_to_full_ranking() {
    for (name, g) in graph_panel() {
        let n = g.num_nodes();
        for xi in [0.0, 1e-4] {
            let bear = Bear::new(&g, &BearConfig::approx(C, xi)).expect("bear");
            let seeds: Vec<usize> = (0..6).map(|i| (i * 977) % n).collect();
            for &seed in &seeds {
                let full = bear.query(seed).unwrap();
                for k in [1usize, 2, 5, n / 2, n.saturating_sub(1), n + 2] {
                    let want = bear_core::topk::top_k_excluding_seed(&full, seed, k);
                    let (got, stats) = bear
                        .query_top_k_pruned_with(seed, k, &bear_core::TopKPruneOptions::default())
                        .unwrap();
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{name} xi={xi} seed={seed} k={k}: length mismatch"
                    );
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.node, b.node,
                            "{name} xi={xi} seed={seed} k={k}: rank {i} node differs"
                        );
                        assert_eq!(
                            a.score.to_bits(),
                            b.score.to_bits(),
                            "{name} xi={xi} seed={seed} k={k}: rank {i} score bits differ"
                        );
                    }
                    // Accounting sanity: every non-seed node is either a
                    // candidate or pruned, fallback or not.
                    assert_eq!(
                        stats.candidates + stats.nodes_pruned,
                        n - 1,
                        "{name} xi={xi} seed={seed} k={k}: stats don't cover the graph"
                    );
                }
            }
        }
    }
}

/// When the resolve budget forbids certification, the path must fall
/// back to the full solve — typed, stats-visible, and still exact.
#[test]
fn pruned_top_k_fallback_is_typed_and_exact() {
    use bear_core::{TopKFallbackReason, TopKPruneOptions};
    // Pick a panel graph with enough spokes that `k = n₂ + 2` is
    // non-degenerate: the heap cannot fill from hub scores alone, so a
    // zero resolve budget must trip the typed fallback.
    let (name, g, bear) = graph_panel()
        .into_iter()
        .find_map(|(name, g)| {
            let bear = Bear::new(&g, &BearConfig::exact(C)).ok()?;
            (bear.n_hubs() + 2 < g.num_nodes().saturating_sub(1)).then_some((name, g, bear))
        })
        .expect("panel has a graph with enough spokes");
    let n = g.num_nodes();
    let seed = 1 % n;
    let k = bear.n_hubs() + 2; // needs spoke scores → needs resolution
    let opts = TopKPruneOptions { max_resolve_fraction: 0.0 };
    let full = bear.query(seed).unwrap();
    let want = bear_core::topk::top_k_excluding_seed(&full, seed, k);
    let (got, stats) = bear.query_top_k_pruned_with(seed, k, &opts).unwrap();
    assert!(!stats.certified, "{name}: zero budget cannot certify");
    assert_eq!(stats.fallback, Some(TopKFallbackReason::BoundsTooLoose));
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

/// The pruned path's two ways to finish, on the graph perfbench's
/// `topk_rmat_oneshot` serves: SlashBurn cuts `rmat_0.7` into thousands
/// of mostly singleton blocks, so a seed whose live blocks would cost
/// more to resolve one by one than one back sweep takes the sweep
/// (`SweepCheaper`), and the rest resolve blocks off the queue and
/// certify. Both must rank bit-identically to the full solve, at every
/// k asked for, and both must occur.
#[test]
fn pruned_top_k_on_rmat_is_bit_identical_on_the_sweep_and_the_loop() {
    use bear_core::{TopKFallbackReason, TopKPruneOptions};
    let g = bear_datasets::dataset_by_name("rmat_0.7").expect("rmat_0.7").load();
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let n = bear.num_nodes();
    let seeds: Vec<usize> = (0..48).map(|i| (i * 2654435761) % n).collect();
    let mut ws = QueryWorkspace::for_bear(&bear);
    let mut full = vec![0.0; n];
    let opts = TopKPruneOptions::default();
    for k in [1usize, 10, 100] {
        let (mut swept, mut certified) = (0, 0);
        for &seed in &seeds {
            bear.query_into(seed, &mut ws, &mut full).unwrap();
            let want = bear_core::topk::top_k_excluding_seed(&full, seed, k);
            let (got, stats) = bear.query_top_k_pruned_in(seed, k, &opts, &mut ws).unwrap();
            match stats.fallback {
                None => certified += 1,
                Some(TopKFallbackReason::SweepCheaper) => swept += 1,
                Some(other) => panic!("seed={seed} k={k}: unexpected fallback {other}"),
            }
            assert_eq!(got.len(), want.len(), "seed={seed} k={k}");
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.node, b.node, "seed={seed} k={k}: rank {i} node differs");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "seed={seed} k={k}: rank {i} score bits differ"
                );
            }
        }
        assert!(swept > 0 && certified > 0, "k={k}: {swept} swept, {certified} certified");
    }
}

/// Every sampled `email_like` seed certifies at k = 10, the shape
/// perfbench's `topk_keepalive` serves and requires to certify: its
/// spoke blocks are small enough that the few that can reach the top
/// k always price below one back sweep.
#[test]
fn pruned_top_k_certifies_sampled_email_like_seeds() {
    use bear_core::TopKPruneOptions;
    let g = bear_datasets::dataset_by_name("email_like").expect("email_like").load();
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let n = bear.num_nodes();
    let mut ws = QueryWorkspace::for_bear(&bear);
    let opts = TopKPruneOptions::default();
    for seed in (0..n).step_by(61) {
        let (_, stats) = bear.query_top_k_pruned_in(seed, 10, &opts, &mut ws).unwrap();
        assert!(stats.certified, "seed {seed}: {:?}", stats.fallback);
    }
}

/// Graphs whose SlashBurn partition is degenerate, by name: one without
/// edges, one with duplicate edges and self-loops, a disconnected one,
/// and one whose spokes form a single block (a path hanging off a
/// clique: burning the clique never detaches anything else).
fn degenerate_panel() -> Vec<(&'static str, Graph)> {
    let no_edges = Graph::from_edges(6, &[]).unwrap();

    let mut dup_loops = vec![(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 0), (3, 4), (4, 3)];
    dup_loops.extend([(0, 0), (3, 3), (3, 3), (5, 5), (5, 1), (1, 5)]);
    let dup_loops = Graph::from_edges(7, &dup_loops).unwrap();

    let mut apart = Vec::new();
    for (lo, len) in [(0, 5), (5, 4)] {
        apart.extend((0..len).map(|i| (lo + i, lo + (i + 1) % len)));
        apart.extend((1..len).map(|i| (lo, lo + i)));
    }
    apart.push((10, 11));
    let apart = Graph::from_edges(13, &apart).unwrap();

    let mut one_block: Vec<(usize, usize)> =
        (0..6).flat_map(|u| (0..6).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    for (u, v) in [(0, 6), (6, 7), (7, 8), (8, 9)] {
        one_block.extend([(u, v), (v, u)]);
    }
    let one_block = Graph::from_edges(10, &one_block).unwrap();

    vec![
        ("no_edges", no_edges),
        ("dup_loops", dup_loops),
        ("apart", apart),
        ("one_block", one_block),
    ]
}

/// Degenerate partitions through both preprocessing paths: `Bear::new`
/// and `preprocess_to_disk` followed by `Bear::load` answer every seed
/// within the oracle tolerance, and bit-identically to each other.
#[test]
fn degenerate_partitions_match_the_oracle_on_both_paths() {
    let rwr = RwrConfig { c: C, ..RwrConfig::default() };
    for (name, g) in degenerate_panel() {
        let oracle = Inversion::new(&g, &rwr, &MemBudget::unlimited()).expect("oracle");
        let bear = Bear::new(&g, &BearConfig::exact(C)).expect("bear");
        if name == "one_block" {
            assert_eq!(bear.block_sizes().len(), 1, "{name}: blocks {:?}", bear.block_sizes());
        }
        let path =
            std::env::temp_dir().join(format!("bear_degenerate_{}_{name}.idx", std::process::id()));
        bear_core::preprocess_to_disk(&g, &BearConfig::exact(C), &path).expect("streamed");
        let loaded = Bear::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        for seed in 0..g.num_nodes() {
            let want = oracle.query(seed).unwrap();
            let got = bear.query(seed).unwrap();
            let err = linf(&got, &want);
            assert!(err < TOL, "{name}: bear off oracle by {err:.3e} at seed {seed}");
            let streamed = loaded.query(seed).unwrap();
            let same = got.iter().zip(&streamed).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{name}: streamed index answers differently at seed {seed}");
        }
    }
}
