//! Concurrent query serving engine.
//!
//! BEAR's preprocessing is paid once so that each query is a handful of
//! sparse matrix–vector products (Algorithm 2). This module turns that
//! per-query cost into a serving path fit for sustained traffic:
//!
//! * [`QueryWorkspace`] preallocates every intermediate buffer the block
//!   elimination sweeps need (`q`, `q_perm`, `t1..t4`, `r`), sized from
//!   the [`Bear`] partition, so the steady-state compute path performs no
//!   heap allocation — the only allocation per answered query is the
//!   result vector handed to the caller, and a cache hit avoids even that
//!   by sharing an `Arc`.
//! * [`QueryEngine`] owns a persistent worker pool: threads are spawned
//!   once at construction and fed jobs over a shared bounded queue, and
//!   each keeps its own workspaces for its whole lifetime. Every call
//!   runs one request path: the distinct seeds a request misses in the
//!   cache form one job, answered in blocks of up to `block_width` seeds
//!   by one thread — the submitting thread itself when the request has
//!   no deadline and the engine's spare workspaces are free, a pool
//!   worker otherwise.
//! * An optional bounded LRU cache memoizes top-k answers keyed by seed,
//!   motivated by the skew of real query traffic (a few hub seeds
//!   dominate). Full score vectors are never cached.
//! * [`Metrics`] tracks query count, cache hit rate, and latency
//!   percentiles via a fixed-bucket log₂ histogram — no dependencies.
//!
//! Results are bit-identical to sequential [`Bear::query`]: the blocked
//! solve ([`Bear::query_block_into`]) replicates the per-seed
//! floating-point operations column by column, in the same order.
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
    QueryOptions, Served, TopKServed, TopKStrategy,
};

/// Preallocated buffers for one query's block-elimination sweeps.
///
/// Sized once from a [`Bear`] partition (`n1` spokes, `n2` hubs); after
/// construction, answering a query through [`Bear::query_into`] touches
/// only these buffers and the caller's output slice.
pub struct QueryWorkspace {
    /// One-hot query vector in original node ids (kept zeroed between
    /// queries; `query_into` sets and clears the seed entry).
    pub(crate) q: Vec<f64>,
    /// `q` moved to the SlashBurn ordering (length `n`).
    pub(crate) q_perm: Vec<f64>,
    /// Spoke-block scratch (length `n1`).
    pub(crate) t1: Vec<f64>,
    /// Spoke-block scratch (length `n1`).
    pub(crate) t2: Vec<f64>,
    /// Hub-block scratch (length `n2`).
    pub(crate) t3: Vec<f64>,
    /// Hub-block scratch (length `n2`).
    pub(crate) t4: Vec<f64>,
    /// Assembled result in the reordered index space (length `n`).
    pub(crate) r: Vec<f64>,
}

impl QueryWorkspace {
    /// Buffers sized for `bear`'s partition.
    pub fn for_bear(bear: &Bear) -> Self {
        let n = bear.num_nodes();
        QueryWorkspace {
            q: vec![0.0; n],
            q_perm: vec![0.0; n],
            t1: vec![0.0; bear.n1],
            t2: vec![0.0; bear.n1],
            t3: vec![0.0; bear.n2],
            t4: vec![0.0; bear.n2],
            r: vec![0.0; n],
        }
    }
}

/// Preallocated buffers for a blocked multi-seed query
/// ([`Bear::query_block_into`]): the multi-RHS counterpart of
/// [`QueryWorkspace`], with each scratch vector widened to a column-major
/// [`DenseBlock`] holding one column per seed.
///
/// The workspace is reusable across batches of different widths — blocks
/// are reshaped in place ([`DenseBlock::reset`]), keeping their backing
/// allocations, so a serving worker that coalesces variable-size batches
/// allocates nothing in steady state.
pub struct BlockWorkspace {
    /// One-hot scratch in original node ids (kept zeroed between seeds).
    pub(crate) q: Vec<f64>,
    /// Per-seed permutation scratch (length `n`).
    pub(crate) q_perm: Vec<f64>,
    /// Per-seed result-assembly scratch (length `n`).
    pub(crate) r: Vec<f64>,
    /// Permuted seed columns, spoke part (`n1 × k`).
    pub(crate) q1: DenseBlock,
    /// Permuted seed columns, hub part (`n2 × k`).
    pub(crate) q2: DenseBlock,
    /// Spoke-block scratch (`n1 × k`).
    pub(crate) t1: DenseBlock,
    /// Spoke-block scratch (`n1 × k`).
    pub(crate) t2: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t3: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t4: DenseBlock,
    /// Hub-part results `r₂` (`n2 × k`).
    pub(crate) r2: DenseBlock,
}

impl BlockWorkspace {
    /// Buffers sized for `bear`'s partition, starting at width zero; the
    /// first [`Bear::query_block_into`] call widens them to its batch.
    pub fn for_bear(bear: &Bear) -> Self {
        let n = bear.num_nodes();
        BlockWorkspace {
            q: vec![0.0; n],
            q_perm: vec![0.0; n],
            r: vec![0.0; n],
            q1: DenseBlock::zeros(bear.n1, 0),
            q2: DenseBlock::zeros(bear.n2, 0),
            t1: DenseBlock::zeros(bear.n1, 0),
            t2: DenseBlock::zeros(bear.n1, 0),
            t3: DenseBlock::zeros(bear.n2, 0),
            t4: DenseBlock::zeros(bear.n2, 0),
            r2: DenseBlock::zeros(bear.n2, 0),
        }
    }

    /// Reshapes every block to width `k` for `bear`'s partition, reusing
    /// backing allocations.
    pub(crate) fn ensure_width(&mut self, bear: &Bear, k: usize) {
        if self.q1.ncols() == k && self.q1.nrows() == bear.n1 && self.q2.nrows() == bear.n2 {
            return;
        }
        self.q1.reset(bear.n1, k);
        self.q2.reset(bear.n2, k);
        self.t1.reset(bear.n1, k);
        self.t2.reset(bear.n1, k);
        self.t3.reset(bear.n2, k);
        self.t4.reset(bear.n2, k);
        self.r2.reset(bear.n2, k);
    }
}
