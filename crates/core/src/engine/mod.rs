//! Concurrent query serving engine.
//!
//! BEAR's preprocessing is paid once so that each query is a handful of
//! sparse matrix–vector products (Algorithm 2). This module turns that
//! per-query cost into a serving path fit for sustained traffic:
//!
//! * [`QueryWorkspace`] preallocates every intermediate block the
//!   block-elimination sweeps need, shaped from the [`Bear`] partition
//!   and the width: one `n₁ × k` spoke block, which both spoke sweeps
//!   solve in place, and four small hub blocks. One workspace serves
//!   every query form — the blocked solve, its width-1 calls, and pruned
//!   top-k — so a query of any width on a resident index performs no
//!   heap allocation in steady state: the only allocation per answered
//!   query is the result vector handed to the caller, and a cache hit
//!   avoids even that by sharing an `Arc`.
//! * [`QueryEngine`] owns a persistent worker pool: threads are spawned
//!   once at construction and fed jobs over a shared bounded queue, and
//!   each keeps its own workspace for its whole lifetime. Every call
//!   runs one request path: the distinct seeds a request misses in the
//!   cache form one job, answered by one solve as wide as the job on one
//!   thread — the submitting thread itself when the request has no
//!   deadline and the engine's spare workspace is free, a pool worker
//!   otherwise. Each spoke sweep of that solve fetches a paged shard
//!   once for all of the request's seeds (`EngineConfig::block_width`
//!   is accepted and unused).
//! * An optional bounded LRU cache memoizes top-k answers keyed by seed,
//!   motivated by the skew of real query traffic (a few hub seeds
//!   dominate). Full score vectors are never cached.
//! * [`Metrics`] tracks query count, cache hit rate, and latency
//!   percentiles via a fixed-bucket log₂ histogram — no dependencies.
//!
//! Results are bit-identical to sequential [`Bear::query`]: that is the
//! blocked solve ([`Bear::query_block_into`]) at width 1, and every
//! width replicates the width-1 floating-point operations seed by seed,
//! in the same order.
//!
//! # Concurrency audit
//!
//! The synchronization skeleton — [`queue::JobQueue`] and [`Metrics`] —
//! imports its primitives through the `crate::sync` shim, so building
//! with `RUSTFLAGS="--cfg loom"` model-checks it against every relevant
//! thread interleaving (`cargo xtask analyze loom`, or directly:
//! `RUSTFLAGS="--cfg loom" cargo test -p bear-core --test loom_engine
//! --release`). The serving layer itself ([`QueryEngine`]) is compiled
//! out under `cfg(loom)` because it drives real OS worker threads.

use crate::paging::SweepScratch;
use crate::precompute::Bear;

pub mod metrics;
pub mod queue;
#[cfg(not(loom))]
mod serving;

pub use metrics::{Metrics, MetricsSnapshot};
#[cfg(not(loom))]
pub use serving::{
    CancelToken, DegradedInfo, EngineConfig, EngineConfigBuilder, OverloadPolicy, QueryEngine,
    QueryOptions, Served, TopKServed,
};

/// Preallocated buffers for Algorithm 2's block-elimination sweeps.
///
/// Every query form runs the same blocked solve over these buffers:
/// [`Bear::query_block_into`] at the batch width, the serving engine at
/// the width of a request's distinct seeds, and [`Bear::query_into`],
/// [`Bear::query_distribution_into`] and [`Bear::query_top_k_pruned_in`]
/// at width 1. Each block is a row-major `rows × k` buffer with the
/// seeds interleaved: row `i`'s `k` values, one per right-hand side,
/// are contiguous, so every sparse product of the solve reads each
/// stored nonzero once for all `k` seeds, and at `k = 1` a block is
/// the plain vector.
///
/// The spoke side is one `n₁ × k` block that both spoke sweeps solve in
/// place: it holds the one-hot seeds (or the caller's distribution),
/// then `U₁⁻¹L₁⁻¹q₁`, then `c·q₁ − H₁₂r₂`, and finally `r₁`. `c·q₁` is
/// taken again from the seed positions or the distribution, so no copy
/// of `q₁` is kept. At width 16 on a graph with `n₁ = 9,627` and
/// `n₂ = 211` the workspace is about 1.34 MB.
///
/// Every call resizes the blocks in place to its index's partition and
/// its own width, keeping their backing allocations, and the spoke
/// sweeps keep their one intermediate buffer here too, so one workspace
/// serves any width and any index, and a resident-index solve of any
/// width reuses it without allocating. Pruned top-k resolves its spoke
/// blocks in place in the same block. A back sweep split in two
/// (DESIGN.md §18) lists its two parts and spawns one scoped helper
/// thread, a paged solve reads and decodes every fault into fresh
/// buffers, and [`Bear::query_block_into`] lists its `k` output
/// columns. A full-vector answer is a fresh `n`-vector per seed either
/// way.
pub struct QueryWorkspace {
    /// The width `k`: the number of right-hand sides each block holds
    /// per row.
    pub(crate) k: usize,
    /// The spoke block (`n1 × k`), solved in place by both spoke
    /// sweeps; holds `r₁` once the solve is done.
    pub(crate) x1: Vec<f64>,
    /// Permuted right-hand sides, hub part (`n2 × k`).
    pub(crate) q2: Vec<f64>,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t3: Vec<f64>,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t4: Vec<f64>,
    /// Hub-part results `r₂` (`n2 × k`).
    pub(crate) r2: Vec<f64>,
    /// The spoke sweeps' intermediate buffers, kept from call to call;
    /// pruned top-k resolves its blocks through them too.
    pub(crate) sweep: SweepScratch,
}

impl QueryWorkspace {
    /// Buffers sized for `bear`'s partition at width 1; a wider call
    /// widens them to its batch.
    pub fn for_bear(bear: &Bear) -> Self {
        let mut ws = QueryWorkspace {
            k: 1,
            x1: Vec::new(),
            q2: Vec::new(),
            t3: Vec::new(),
            t4: Vec::new(),
            r2: Vec::new(),
            sweep: SweepScratch::default(),
        };
        ws.ensure_width(bear, 1);
        ws
    }

    /// Resizes every block to `bear`'s partition at width `k`, reusing
    /// backing allocations. Contents are left as they were: the solve
    /// loads `x1` and `q2` and overwrites the others whole.
    pub(crate) fn ensure_width(&mut self, bear: &Bear, k: usize) {
        self.k = k;
        self.x1.resize(bear.n1 * k, 0.0);
        for block in [&mut self.q2, &mut self.t3, &mut self.t4, &mut self.r2] {
            block.resize(bear.n2 * k, 0.0);
        }
    }
}
