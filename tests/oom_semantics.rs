//! Integration tests for the memory-budget ("out of memory") semantics
//! the harness uses to reproduce the paper's omitted bars: dense methods
//! refuse before allocating, fill-bounded methods abort mid-flight, and
//! no-preprocessing methods are unaffected.

use bear_baselines::{Inversion, Iterative, IterativeConfig, LuDecomp, QrDecomp};
use bear_core::rwr::RwrConfig;
use bear_core::{Bear, BearConfig, RwrSolver};
use bear_datasets::small_suite;
use bear_sparse::mem::MemBudget;
use bear_sparse::Error;

#[test]
fn dense_methods_refuse_under_tiny_budget() {
    let g = small_suite()[0].load();
    let rwr = RwrConfig::default();
    let tiny = MemBudget::bytes(4096);
    assert!(matches!(Inversion::new(&g, &rwr, &tiny), Err(Error::OutOfBudget { .. })));
    assert!(matches!(QrDecomp::new(&g, &rwr, &tiny), Err(Error::OutOfBudget { .. })));
}

#[test]
fn lu_decomp_aborts_rather_than_filling_in() {
    let g = small_suite()[2].load(); // hub-heavy: whole-matrix inverse fills
    let rwr = RwrConfig::default();
    let tiny = MemBudget::bytes(16 * 1024);
    assert!(matches!(LuDecomp::new(&g, &rwr, &tiny), Err(Error::OutOfBudget { .. })));
}

#[test]
fn bear_honours_its_budget() {
    let g = small_suite()[0].load();
    let config = BearConfig { budget: MemBudget::bytes(256), ..BearConfig::default() };
    assert!(matches!(Bear::new(&g, &config), Err(Error::OutOfBudget { .. })));
}

#[test]
fn bear_fits_where_dense_methods_do_not() {
    // A budget sized so BEAR succeeds while inversion/QR refuse — the
    // crossover the paper's Figure 5 shows.
    let g = small_suite()[0].load();
    let rwr = RwrConfig::default();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let budget_bytes = bear.memory_bytes() * 2;
    let budget = MemBudget::bytes(budget_bytes);
    let config = BearConfig { budget, ..BearConfig::default() };
    assert!(Bear::new(&g, &config).is_ok());
    assert!(matches!(Inversion::new(&g, &rwr, &budget), Err(Error::OutOfBudget { .. })));
    assert!(matches!(QrDecomp::new(&g, &rwr, &budget), Err(Error::OutOfBudget { .. })));
}

#[test]
fn iterative_method_needs_no_budget() {
    let g = small_suite()[0].load();
    let it = Iterative::new(&g, &IterativeConfig::default()).unwrap();
    assert_eq!(it.memory_bytes(), 0);
    assert!(it.query(0).is_ok());
}

#[test]
fn unlimited_budget_never_fails_for_budget_reasons() {
    let g = small_suite()[0].load();
    let rwr = RwrConfig::default();
    let unlimited = MemBudget::unlimited();
    assert!(Inversion::new(&g, &rwr, &unlimited).is_ok());
    assert!(QrDecomp::new(&g, &rwr, &unlimited).is_ok());
    assert!(LuDecomp::new(&g, &rwr, &unlimited).is_ok());
}

/// Exceeding the budget at load time means different things per format:
/// a fully resident v2 image that does not fit is a typed
/// [`Error::OutOfBudget`], while a v3 image *pages* — the same budget
/// that rejects the resident format serves the sharded one, with
/// answers bit-identical to an unlimited load.
#[test]
fn v3_pages_under_a_budget_that_rejects_resident_formats() {
    use bear_core::LoadOptions;

    let g = small_suite()[0].load();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let dir = std::env::temp_dir();
    let v2 = dir.join("bear_oom_v2.idx");
    let v3 = dir.join("bear_oom_v3.idx");
    bear.save(&v2).unwrap();
    bear.save_v3(&v3).unwrap();

    // A budget one byte short of the full index: the resident v2 image
    // needs all of it and must refuse, while v3 only charges its hub
    // part (the spoke factors page) and loads fine.
    let full = bear.memory_bytes();
    let budget_bytes = full - 1;
    let opts = LoadOptions { budget: MemBudget::bytes(budget_bytes), resident: false };
    assert!(
        matches!(Bear::load_with(&v2, &opts), Err(Error::OutOfBudget { .. })),
        "a v2 image over budget must fail typed, not load"
    );
    let paged = Bear::load_with(&v3, &opts)
        .expect("a v3 image over budget must page its spoke factors, not error");
    assert!(paged.pager().is_some(), "under-budget v3 load must be paged");
    for seed in [0, 1, g.num_nodes() - 1] {
        let got = paged.query(seed).unwrap();
        let want = bear.query(seed).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "paged answer drifted under budget");
        }
    }

    for p in [&v2, &v3] {
        std::fs::remove_file(p).ok();
    }
}

/// Hammers one engine over a paged index from many threads under a
/// one-byte resident cap — every fetch evicts someone else's block.
/// The run must not deadlock, every answer stays bit-identical, and
/// the pager counters reconcile: every access is a hit or a miss, and
/// the resident set respects the cap's block floor.
#[test]
fn concurrent_engine_on_tiny_budget_stays_exact_and_consistent() {
    use bear_core::engine::{EngineConfig, QueryEngine};
    use bear_core::QueryOptions;
    use std::sync::Arc;

    let g = small_suite()[0].load();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let path = std::env::temp_dir().join("bear_oom_hammer.idx");
    bear.save_v3(&path).unwrap();

    let paged = Arc::new(Bear::load(&path).unwrap());
    let pager = paged.pager().expect("v3 load is paged").clone();
    let n = paged.num_nodes();
    let reference: Vec<Vec<f64>> = (0..n).map(|s| bear.query(s).unwrap()).collect();

    let config = EngineConfig::builder()
        .threads(4)
        .cache_capacity(0) // every query recomputes => maximal pager churn
        .spoke_residency_bytes(Some(1))
        .build()
        .unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&paged), config).unwrap());

    let callers: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let reference = Arc::new(reference.clone());
            std::thread::spawn(move || {
                for i in 0..50 {
                    let seed = (i * 13 + t * 7) % reference.len();
                    let served = engine.serve(seed, &QueryOptions::default()).unwrap();
                    assert!(served.is_exact());
                    for (a, b) in served.scores.iter().zip(&reference[seed]) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "concurrent paged answer drifted (seed {seed})"
                        );
                    }
                }
            })
        })
        .collect();
    for c in callers {
        c.join().expect("hammer thread must not panic or deadlock");
    }

    let stats = pager.stats();
    assert!(stats.misses > 0, "a one-byte cap must fault blocks in");
    assert!(stats.evictions > 0, "a one-byte cap must evict");
    // Eviction conservation: what was faulted in and is no longer
    // resident must have been evicted.
    assert_eq!(
        stats.misses - stats.resident_blocks,
        stats.evictions,
        "pager counters must reconcile: misses - resident = evictions"
    );
    // A 1-byte cap still keeps at most one block pinned (over-budget
    // fetches are allowed through, then evicted down to the cap).
    assert!(stats.resident_blocks <= 1, "cap of 1 byte holds at most one block");

    drop(engine);
    std::fs::remove_file(&path).ok();
}
