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

/// Exceeding the budget at load time means different things per
/// residency: a resident load that does not fit is a typed
/// [`Error::OutOfBudget`], while a paged load of the same file *pages* —
/// the same budget that rejects holding every unit serves the index with
/// answers bit-identical to an unlimited load.
#[test]
fn paged_load_pages_under_a_budget_that_rejects_a_resident_load() {
    use bear_core::LoadOptions;

    let g = small_suite()[0].load();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let path = std::env::temp_dir().join("bear_oom_residency.idx");
    bear.save(&path).unwrap();

    // A budget one byte short of the full index: a resident load needs
    // all of it and must refuse, while a paged load only charges the hub
    // part (the spoke factors page) and loads fine.
    let budget = MemBudget::bytes(bear.memory_bytes() - 1);
    let resident = LoadOptions { budget, resident: true };
    assert!(
        matches!(Bear::load_with(&path, &resident), Err(Error::OutOfBudget { .. })),
        "a resident load over budget must fail typed, not load"
    );
    let paged = Bear::load_with(&path, &LoadOptions { budget, resident: false })
        .expect("a paged load over budget must page its spoke factors, not error");
    assert!(paged.pager().is_some(), "an over-budget paged load must be paged");
    for seed in [0, 1, g.num_nodes() - 1] {
        let got = paged.query(seed).unwrap();
        let want = bear.query(seed).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "paged answer drifted under budget");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Hammers one engine over a paged index from many threads under a
/// one-byte resident cap — every fetch evicts someone else's shard.
/// The run must not deadlock, every answer stays bit-identical, and
/// the pager counters reconcile: every access is a hit or a miss, and
/// the resident set respects the cap's one-shard floor.
#[test]
fn concurrent_engine_on_tiny_budget_stays_exact_and_consistent() {
    use bear_core::engine::{EngineConfig, QueryEngine};
    use bear_core::QueryOptions;
    use std::sync::Arc;

    // Two spoke units at least, so a one-byte cap has something to evict.
    let g = small_suite()[2].load();
    let bear = Bear::new(&g, &BearConfig::default()).unwrap();
    let path = std::env::temp_dir().join("bear_oom_hammer.idx");
    bear.save(&path).unwrap();

    let paged = Arc::new(Bear::load(&path).unwrap());
    let pager = paged.pager().expect("a default load is paged").clone();
    assert!(pager.num_shards() >= 2, "{:?}", pager.directory());
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
    assert!(stats.misses > 0, "a one-byte cap must fault shards in");
    assert!(stats.evictions > 0, "a one-byte cap must evict");
    // Eviction conservation: what was faulted in and is no longer
    // resident must have been evicted.
    assert_eq!(
        stats.misses - stats.resident_blocks,
        stats.evictions,
        "pager counters must reconcile: misses - resident = evictions"
    );
    // A 1-byte cap still keeps at most one shard pinned (over-budget
    // fetches are allowed through, then evicted down to the cap).
    assert!(stats.resident_blocks <= 1, "cap of 1 byte holds at most one shard");

    drop(engine);
    std::fs::remove_file(&path).ok();
}
