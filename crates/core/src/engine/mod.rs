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
//! width replicates the width-1 floating-point operations column by
//! column, in the same order.
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
use bear_sparse::DenseBlock;

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
/// at width 1. Each block is a column-major [`DenseBlock`] holding one
/// column per right-hand side.
///
/// The spoke side is one `n₁ × k` block that both spoke sweeps solve in
/// place: it holds the one-hot seeds (or the caller's distribution),
/// then `U₁⁻¹L₁⁻¹q₁`, then `c·q₁ − H₁₂r₂`, and finally `r₁`. `c·q₁` is
/// taken again from the seed positions or the distribution, so no copy
/// of `q₁` is kept. At width 16 on a graph with `n₁ = 9,627` and
/// `n₂ = 211` the workspace is about 1.34 MB.
///
/// Every call reshapes the blocks in place to its index's partition and
/// its own width ([`DenseBlock::reset`]), keeping their backing
/// allocations, and the spoke sweeps keep their gather buffers here
/// too, so one workspace serves any width and any index, and a
/// resident-index solve of any width reuses it without allocating.
/// Pruned top-k resolves its spoke blocks in place in the same block.
/// A back sweep split in two (DESIGN.md §18) lists its parts'
/// column slices and spawns one scoped helper thread, and a paged solve
/// reads and decodes every fault into fresh buffers. A full-vector
/// answer is a fresh `n`-vector per seed either way.
pub struct QueryWorkspace {
    /// The spoke block (`n1 × k`), solved in place by both spoke
    /// sweeps; holds `r₁` once the solve is done.
    pub(crate) x1: DenseBlock,
    /// Permuted right-hand sides, hub part (`n2 × k`).
    pub(crate) q2: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t3: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t4: DenseBlock,
    /// Hub-part results `r₂` (`n2 × k`).
    pub(crate) r2: DenseBlock,
    /// The spoke sweeps' gather buffers, kept from call to call; pruned
    /// top-k resolves its blocks through them too.
    pub(crate) sweep: SweepScratch,
}

impl QueryWorkspace {
    /// Buffers sized for `bear`'s partition at width 1; a wider call
    /// widens them to its batch.
    pub fn for_bear(bear: &Bear) -> Self {
        let (n1, n2) = (bear.n1, bear.n2);
        QueryWorkspace {
            x1: DenseBlock::zeros(n1, 1),
            q2: DenseBlock::zeros(n2, 1),
            t3: DenseBlock::zeros(n2, 1),
            t4: DenseBlock::zeros(n2, 1),
            r2: DenseBlock::zeros(n2, 1),
            sweep: SweepScratch::default(),
        }
    }

    /// Reshapes every block to `bear`'s partition at width `k`, reusing
    /// backing allocations.
    pub(crate) fn ensure_width(&mut self, bear: &Bear, k: usize) {
        if self.x1.ncols() == k && self.x1.nrows() == bear.n1 && self.q2.nrows() == bear.n2 {
            return;
        }
        self.x1.reset(bear.n1, k);
        self.q2.reset(bear.n2, k);
        self.t3.reset(bear.n2, k);
        self.t4.reset(bear.n2, k);
        self.r2.reset(bear.n2, k);
    }
}
