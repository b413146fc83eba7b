//! BEAR: Block Elimination Approach for Random Walk with Restart.
//!
//! Reproduction of Shin, Sael, Jung & Kang (SIGMOD 2015). Given a graph
//! `G` and restart probability `c`, random walk with restart scores solve
//!
//! ```text
//! H r = c q,    H = I − (1 − c) Ãᵀ
//! ```
//!
//! where `Ã` is the row-normalized adjacency matrix and `q` is the
//! one-hot starting vector of the seed node. BEAR preprocesses `H` once —
//! reorder with SlashBurn so the spoke–spoke block `H₁₁` is block
//! diagonal, LU-factor `H₁₁` block by block, form the Schur complement
//! `S` of `H₁₁`, LU-factor `S`, and store the *inverses* of all four
//! triangular factors plus the off-diagonal blocks `H₁₂`, `H₂₁` — and
//! then answers each query with two sparse block-elimination sweeps
//! (Algorithm 2).
//!
//! # Quick start
//!
//! ```
//! use bear_graph::Graph;
//! use bear_core::{Bear, BearConfig, RwrSolver};
//!
//! // A toy graph: star with hub 0.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0), (0, 4), (4, 0)]).unwrap();
//! let bear = Bear::new(&g, &BearConfig::default()).unwrap();
//! let scores = bear.query(1).unwrap();
//! assert_eq!(scores.len(), 5);
//! // Scores are a probability distribution on this strongly connected graph,
//! // and the seed leaf outranks the other leaves.
//! assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-10);
//! assert!(scores[1] > scores[2]);
//! ```

pub mod crc32;
pub mod dynamic;
pub mod engine;
#[cfg(feature = "failpoints")]
pub mod failpoints;
#[cfg(not(loom))]
pub mod fallback;
pub mod metrics;
pub mod paging;
pub mod persist;
pub mod precompute;
pub mod query;
pub mod rwr;
pub mod solver;
pub mod stats;
pub(crate) mod sync;
pub mod topk;
pub mod topk_pruned;
pub mod variants;

/// Evaluates a named failpoint site (see the `failpoints` module, gated
/// behind the cargo feature of the same name); expands to nothing when
/// the `failpoints` feature is off, so production builds
/// carry no fault-injection code. Use `?`-compatible positions only —
/// the site returns the injected error to its caller.
#[macro_export]
macro_rules! fail_point {
    ($site:literal) => {
        #[cfg(feature = "failpoints")]
        $crate::failpoints::eval($site)?;
    };
}

pub use dynamic::{DynamicBear, UpdateKind};
#[cfg(not(loom))]
pub use engine::{
    CancelToken, DegradedInfo, EngineConfig, EngineConfigBuilder, OverloadPolicy, QueryEngine,
    QueryOptions, Served, TopKServed,
};
pub use engine::{MetricsSnapshot, QueryWorkspace};
#[cfg(not(loom))]
pub use fallback::{DegradedReason, FallbackAnswer, FallbackSolver, DEFAULT_FALLBACK_ITERATIONS};
pub use paging::{BlockPager, PagerStats};
pub use persist::LoadOptions;
pub use precompute::{preprocess_to_disk, Bear, BearConfig};
pub use rwr::{build_h, Normalization, RwrConfig};
pub use solver::RwrSolver;
pub use stats::{PrecomputedStats, StageTimings};
pub use topk::ScoredNode;
pub use topk_pruned::{TopKFallbackReason, TopKPruneOptions, TopKPruneStats};
