//! The out-of-core proof battery: on random graphs, every query path
//! driven through the block pager — `query`, `query_block`,
//! `query_top_k_pruned` — is **bit-identical** (f64 bits and node
//! order) to the fully resident in-memory index, for every residency
//! budget from everything-resident down to at most one unit, and even
//! while another thread forces evictions mid-query; and the back sweep
//! split in two unit ranges on two threads is bit-identical too.
//!
//! This is the contract that makes a paged index safe to serve: paging
//! is a pure space/time trade — it may never perturb a single bit of
//! an answer.

use bear_core::paging::SPLIT_SWEEP_FLOOR;
use bear_core::{Bear, BearConfig, LoadOptions};
use bear_graph::Graph;
use bear_sparse::mem::MemBudget;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp path per case so concurrent test threads never collide.
fn scratch_index() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bear_paging_identity_{}_{id}.idx", std::process::id()))
}

/// Random directed graph with a cycle backbone (no dangling nodes).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..36).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 3));
        edges.prop_map(move |mut extra| {
            for u in 0..n {
                extra.push((u, (u + 1) % n));
            }
            Graph::from_edges(n, &extra).unwrap()
        })
    })
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length drift");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: node {i}: {a:?} != {b:?}");
    }
}

/// The residency ladder for one paged index: unlimited, the full spoke
/// footprint, half, a single largest shard, and one byte (at most one
/// shard ever resident, evictions on every switch).
fn budget_ladder(paged: &Bear) -> Vec<Option<usize>> {
    let dir = paged.pager().expect("a default load is paged").directory();
    let total: usize = dir.iter().map(|m| m.resident_bytes()).sum();
    let largest = dir.iter().map(|m| m.resident_bytes()).max().unwrap_or(1);
    let mut ladder = vec![None, Some(total), Some(total / 2), Some(largest), Some(1)];
    ladder.dedup();
    ladder
}

/// Every query path, every budget on the ladder, bit-identical.
fn check_paging_identity(g: &Graph, config: &BearConfig, seeds: &[usize]) {
    let reference = Bear::new(g, config).unwrap();
    let path = scratch_index();
    reference.save(&path).unwrap();
    let paged = Bear::load(&path).unwrap();
    let pager = paged.pager().expect("a default load is paged");

    let k = 5.min(g.num_nodes().saturating_sub(1)).max(1);
    for budget in budget_ladder(&paged) {
        pager.set_budget(budget).unwrap();
        for &seed in seeds {
            let want = reference.query(seed).unwrap();
            let got = paged.query(seed).unwrap();
            assert_bits_eq(&got, &want, &format!("query seed {seed} budget {budget:?}"));

            let want_k = reference.query_top_k_pruned(seed, k).unwrap();
            let got_k = paged.query_top_k_pruned(seed, k).unwrap();
            assert_eq!(got_k.len(), want_k.len(), "top-k length (budget {budget:?})");
            for (a, b) in got_k.iter().zip(&want_k) {
                assert_eq!(a.node, b.node, "top-k node order (budget {budget:?})");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "top-k score bits (budget {budget:?})"
                );
            }
        }
        let want_block = reference.query_block(seeds).unwrap();
        let got_block = paged.query_block(seeds).unwrap();
        for (i, (gb, wb)) in got_block.iter().zip(&want_block).enumerate() {
            assert_bits_eq(gb, wb, &format!("query_block column {i} budget {budget:?}"));
        }
    }
    let stats = pager.stats();
    // A graph that SlashBurn classifies as all-hub has no spoke blocks
    // to page; everywhere else the one-byte rung must have faulted.
    assert!(stats.misses > 0 || pager.num_shards() == 0, "the one-byte rung must fault shards in");

    drop(paged);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact BEAR: random graph x random seed set x the whole budget
    /// ladder, all three query paths bit-identical through the pager.
    #[test]
    fn paged_answers_are_bit_identical_exact(g in arb_graph(), seed_picks in proptest::collection::vec(0usize..1000, 1..4)) {
        let n = g.num_nodes();
        let seeds: Vec<usize> = seed_picks.iter().map(|s| s % n).collect();
        check_paging_identity(&g, &BearConfig::exact(0.1), &seeds);
    }

    /// Approximate BEAR (drop tolerance): the dropped factors shard and
    /// page identically too.
    #[test]
    fn paged_answers_are_bit_identical_approx(g in arb_graph(), seed_picks in proptest::collection::vec(0usize..1000, 1..3)) {
        let n = g.num_nodes();
        let seeds: Vec<usize> = seed_picks.iter().map(|s| s % n).collect();
        check_paging_identity(&g, &BearConfig::approx(0.1, 1e-3), &seeds);
    }
}

/// A deterministic multi-block graph: one hub chain bridging several
/// dense caves, so SlashBurn produces multiple spoke blocks.
fn blocky_graph() -> Graph {
    let caves: &[&[usize]] = &[&[3, 4, 5, 6], &[7, 8, 9], &[10, 11, 12, 13], &[14, 15]];
    let mut edges = Vec::new();
    for hub in 0..3 {
        edges.push((hub, (hub + 1) % 3));
        edges.push(((hub + 1) % 3, hub));
    }
    for cave in caves {
        for &u in *cave {
            for &v in *cave {
                if u != v {
                    edges.push((u, v));
                }
            }
            edges.push((u, u % 3));
            edges.push((u % 3, u));
        }
    }
    Graph::from_edges(16, &edges).unwrap()
}

/// Mid-query evictions, forced two ways at once: the querying thread
/// runs under a one-byte budget (so its own unit sweep evicts as it
/// advances), while a saboteur thread loops over all shards fetching
/// them out of order — every shard the query is about to use may have
/// just been evicted and must be transparently re-faulted, with the
/// answer still exact to the bit.
#[test]
fn forced_mid_query_evictions_stay_bit_identical() {
    let g = hub_and_chains(12, 30);
    let reference = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let path = scratch_index();
    reference.save(&path).unwrap();
    let paged = std::sync::Arc::new(Bear::load(&path).unwrap());
    let pager = paged.pager().expect("a default load is paged").clone();
    assert!(pager.num_shards() >= 2, "test graph must shard into multiple units");
    pager.set_budget(Some(1)).unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let saboteur = {
        let pager = pager.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let shards = pager.num_shards();
            let mut s = 0;
            while !stop.load(Ordering::Relaxed) {
                // Descending order to maximally disagree with the
                // ascending unit sweep of the query path.
                s = (s + shards - 1) % shards;
                pager.fetch(s).expect("saboteur fetch");
            }
        })
    };

    for round in 0..5 {
        for seed in 0..g.num_nodes() {
            let want = reference.query(seed).unwrap();
            let got = paged.query(seed).unwrap();
            assert_bits_eq(&got, &want, &format!("round {round} seed {seed}"));
        }
    }
    stop.store(true, Ordering::Relaxed);
    saboteur.join().expect("saboteur thread");

    let stats = pager.stats();
    assert!(stats.evictions > 0, "contended one-byte budget must evict");
    assert_eq!(
        stats.misses - stats.resident_blocks,
        stats.evictions,
        "pager counters must reconcile under contention"
    );

    drop(paged);
    std::fs::remove_file(&path).ok();
}

/// The `resident: true` load option is the pager's bypass: answers are
/// the same bits, and no pager exists to count anything.
#[test]
fn resident_load_option_matches_paged_and_in_memory() {
    let g = blocky_graph();
    let reference = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
    let path = scratch_index();
    reference.save(&path).unwrap();

    let resident =
        Bear::load_with(&path, &LoadOptions { budget: MemBudget::unlimited(), resident: true })
            .unwrap();
    assert!(resident.pager().is_none(), "resident load must not keep a pager");
    let paged = Bear::load(&path).unwrap();
    paged.pager().unwrap().set_budget(Some(1)).unwrap();

    for seed in 0..g.num_nodes() {
        let want = reference.query(seed).unwrap();
        assert_bits_eq(&resident.query(seed).unwrap(), &want, "resident load");
        assert_bits_eq(&paged.query(seed).unwrap(), &want, "paged load");
    }

    std::fs::remove_file(&path).ok();
}

/// A hub (node 0) joined to `chains` chains of `len` nodes each:
/// SlashBurn removes the hub and every chain becomes its own spoke
/// block, whose inverted factors are dense triangles (`len²` stored
/// nonzeros a block, about); eight such blocks make a unit.
fn hub_and_chains(chains: usize, len: usize) -> Graph {
    let mut edges = Vec::new();
    for ch in 0..chains {
        let first = 1 + ch * len;
        edges.extend([(0, first), (first, 0)]);
        for i in first..first + len - 1 {
            edges.extend([(i, i + 1), (i + 1, i)]);
        }
    }
    Graph::from_edges(1 + chains * len, &edges).unwrap()
}

/// The seed-interleaved spoke sweep through the public query paths, on
/// a graph whose spoke units cross [`SPLIT_SWEEP_FLOOR`] (every back
/// sweep touches every unit, so it splits on the resident and the
/// paged index alike) and on one below it (it never does). At widths 1,
/// 3, 8 and 16, `query_block` on the resident index and on the paged
/// one under unlimited, a third of the factors, and one-byte budgets is
/// bit-identical to the width-1 resident `query` of each seed, which
/// runs each seed's own rows through the single-lane kernel, with no
/// gather and no paging (the unit tests in `paging.rs` check the sweep
/// against whole-factor `matvec_into` products, and `golden_scores`
/// pins width-1 answers). The seeds mix spokes of different blocks, a
/// hub and a duplicate, so some seeds are zero in blocks where others
/// are not.
/// A fresh unlimited load fetches each touched unit once per sweep
/// (`hits + misses ≤ 2 × misses` over the hub half's forward sweep and
/// the back sweep), and the counters reconcile after every batch.
#[test]
fn split_back_sweep_stays_bit_identical_and_fetches_once() {
    for (g, splits) in [(hub_and_chains(48, 30), true), (blocky_graph(), false)] {
        let reference = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let path = scratch_index();
        reference.save(&path).unwrap();
        let n = g.num_nodes();
        for k in [1usize, 3, 8, 16] {
            let mut seeds: Vec<usize> = (0..k).map(|i| (i * 97 + 1) % n).collect();
            if k > 2 {
                seeds[1] = 0;
                seeds[2] = seeds[0];
            }
            let want: Vec<Vec<f64>> = seeds.iter().map(|&s| reference.query(s).unwrap()).collect();
            let resident = reference.query_block(&seeds).unwrap();
            for (j, (rc, wc)) in resident.iter().zip(&want).enumerate() {
                assert_bits_eq(rc, wc, &format!("resident width {k} column {j}"));
            }
            let paged = Bear::load(&path).unwrap();
            let pager = paged.pager().expect("a default load is paged");
            let dir = pager.directory();
            let nnz: u64 = dir.iter().map(|m| m.l1_nnz + m.u1_nnz).sum();
            assert_eq!(nnz > SPLIT_SWEEP_FLOOR, splits, "spoke nonzeros {nnz}");
            let total: usize = dir.iter().map(|m| m.resident_bytes()).sum();
            for budget in [None, Some(total / 3), Some(1)] {
                pager.set_budget(budget).unwrap();
                let got = paged.query_block(&seeds).unwrap();
                for (j, (gc, wc)) in got.iter().zip(&want).enumerate() {
                    assert_bits_eq(gc, wc, &format!("width {k} column {j} budget {budget:?}"));
                }
                let st = pager.stats();
                if budget.is_none() {
                    assert!(st.hits + st.misses <= 2 * st.misses, "width {k}: {st:?}");
                }
                assert_eq!(st.misses - st.resident_blocks, st.evictions, "width {k}: {st:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Every resident batch width from 2 to 17 against width 1: each column
/// of a width-`k` `query_block` on the resident index (the sweep over
/// units, split in two above
/// [`SPLIT_SWEEP_FLOOR`]) has the bits of the width-1 `query` of its
/// seed, whose sweep never gathers. Widths 2, 4, 8 and 16 run the
/// specialised kernels, the rest the generic one.
#[test]
fn resident_width_k_matches_width_1_for_every_k() {
    for g in [hub_and_chains(48, 30), blocky_graph()] {
        let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let n = g.num_nodes();
        let singles: Vec<Vec<f64>> = (0..n).map(|s| bear.query(s).unwrap()).collect();
        for k in 2..=17usize {
            let seeds: Vec<usize> = (0..k).map(|i| (i * 53 + k) % n).collect();
            let got = bear.query_block(&seeds).unwrap();
            for (j, (col, &seed)) in got.iter().zip(&seeds).enumerate() {
                assert_bits_eq(col, &singles[seed], &format!("width {k} column {j} seed {seed}"));
            }
        }
    }
}
