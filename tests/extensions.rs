//! Integration tests for the production extensions: persistence, dynamic
//! updates, the iterative-hub variant, top-k queries, and multi-threaded
//! preprocessing — exercised together on registry datasets.

use bear_core::{Bear, BearConfig, DynamicBear, RwrSolver, UpdateKind};
use bear_datasets::small_suite;

#[test]
fn persisted_index_serves_identical_queries_across_datasets() {
    for spec in small_suite() {
        let g = spec.load();
        let bear = Bear::new(&g, &BearConfig::default()).unwrap();
        let path = std::env::temp_dir().join(format!("ext_persist_{}.idx", spec.name));
        bear.save(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for seed in [0, g.num_nodes() / 2] {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap(), "{}", spec.name);
        }
        assert_eq!(bear.stats(), loaded.stats());
    }
}

#[test]
fn hub_iterative_parity_across_datasets() {
    for spec in small_suite() {
        let g = spec.load();
        let exact = Bear::new(&g, &BearConfig::default()).unwrap();
        let hub_iter = Bear::new_hub_iterative(&g, &BearConfig::default()).unwrap();
        for seed in [1, g.num_nodes() - 1] {
            let re = exact.query(seed).unwrap();
            let ri = hub_iter.query(seed).unwrap();
            for (a, b) in re.iter().zip(&ri) {
                assert!((a - b).abs() < 1e-7, "{}: {a} vs {b}", spec.name);
            }
        }
    }
}

#[test]
fn hub_iterative_never_needs_more_memory_than_exact() {
    for spec in small_suite() {
        let g = spec.load();
        let exact = Bear::new(&g, &BearConfig::default()).unwrap();
        let hub_iter = Bear::new_hub_iterative(&g, &BearConfig::default()).unwrap();
        // nnz(S) <= nnz(L2^-1) + nnz(U2^-1) always (the inverted factors
        // contain at least S's fill), so memory can only go down.
        assert!(
            hub_iter.memory_bytes() <= exact.memory_bytes(),
            "{}: {} > {}",
            spec.name,
            hub_iter.memory_bytes(),
            exact.memory_bytes()
        );
    }
}

#[test]
fn dynamic_updates_track_oracle_over_a_burst_of_insertions() {
    let g = small_suite()[0].load();
    let mut dynamic = DynamicBear::new(&g, &BearConfig::default()).unwrap();
    let n = g.num_nodes();
    let mut incremental = 0;
    let mut rebuilds = 0;
    for i in 0..6 {
        let u = (i * 131) % n;
        let v = (i * 977 + 11) % n;
        if u == v {
            continue;
        }
        match dynamic.insert_edge(u, v, 1.0).unwrap() {
            UpdateKind::IncrementalHub => incremental += 1,
            UpdateKind::FullRebuild => rebuilds += 1,
        }
    }
    assert_eq!(incremental + rebuilds, 6);
    let oracle = Bear::new(&dynamic.current_graph().unwrap(), &BearConfig::default()).unwrap();
    for seed in [0, n / 2] {
        let got = dynamic.query(seed).unwrap();
        let want = oracle.query(seed).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn top_k_is_consistent_with_full_query() {
    let g = small_suite()[1].load();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let seed = 3;
    let scores = bear.query(seed).unwrap();
    let top = bear.query_top_k(seed, 15).unwrap();
    assert_eq!(top.len(), 15);
    // Descending and score-consistent.
    for w in top.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    for s in &top {
        assert_eq!(s.score, scores[s.node]);
        assert_ne!(s.node, seed);
    }
    // Nothing outside the top-k scores higher than its last member.
    let cutoff = top.last().unwrap().score;
    let better = (0..g.num_nodes()).filter(|&u| u != seed && scores[u] > cutoff).count();
    assert!(better <= 15);
}

#[test]
fn threaded_preprocessing_equals_serial_on_every_dataset() {
    for spec in small_suite() {
        let g = spec.load();
        let serial = Bear::new(&g, &BearConfig::default()).unwrap();
        let threaded = Bear::new(&g, &BearConfig { threads: 3, ..BearConfig::default() }).unwrap();
        assert_eq!(serial.stats(), threaded.stats(), "{}", spec.name);
        assert_eq!(serial.query(2).unwrap(), threaded.query(2).unwrap(), "{}", spec.name);
    }
}
