//! Exact pruned top-k queries (DESIGN.md §17).
//!
//! [`Bear::query_top_k`] materializes the full n-vector and selects.
//! For the production top-k shape that wastes almost all of the second
//! block-elimination sweep: with a one-hot seed the *hub* side of
//! Algorithm 2 is cheap (the first spoke sweep touches only the seed's
//! diagonal block, everything else is `n₂`-sized), while the expensive
//! part — `r₁ = U₁⁻¹ L₁⁻¹ (c·q₁ − H₁₂ r₂)` over all `n₁` spokes — is
//! block-separable because `L₁⁻¹`/`U₁⁻¹` are block diagonal.
//!
//! The pruned path exploits that separability in the style of K-dash's
//! exact top-k search (Fujiwara et al., PAPERS.md): compute the hub
//! scores `r₂` exactly (by running the full solve's own hub half),
//! bound every unresolved spoke block from above with
//! precomputed factor norms, then resolve blocks *exactly* in
//! descending bound order until the k-th best exact score strictly
//! exceeds the best remaining upper bound. Resolved scores come out of
//! the very same kernels in the very same accumulation order as the
//! full solve, so the returned ranking is **bit-identical in rank and
//! exact in score** to [`Bear::query_top_k`] — pruning only ever skips
//! work, it never approximates it.
//!
//! # Bound derivation
//!
//! For a spoke block `B` (rows/cols `[bs, be)` of the permuted spoke
//! space), the second sweep computes `r₁[B] = U₁⁻¹ L₁⁻¹ t₁[B]` with
//! `t₁ = c·q₁ − H₁₂ r₂`. The pruned path computes `t₁` exactly for
//! *every* spoke up front — `H₁₂` holds only original graph edges, so
//! this is the cheap part of the spoke sweep, and CSR rows are
//! independent dot products, so each `t₁[i]` is bit-identical to the
//! full kernel's. What pruning skips is the expensive part: the
//! `U₁⁻¹ L₁⁻¹` scatter, whose inverted triangular blocks carry the
//! fill-in. Two precomputed coefficient tables bound it:
//!
//! * the block operator norm `W_B = max_{i∈B} Σ_l |U₁⁻¹_{il}|·lrow_l`
//!   with `lrow_l = Σ_j |L₁⁻¹_{lj}|`, giving
//!   `|r₁[i]| ≤ W_B·‖t₁[B]‖_∞`, and
//! * the per-column weights `g_l = Σ_j |L₁⁻¹_{jl}|·u_j` with
//!   `u_j = max_i |U₁⁻¹_{ij}|`: since
//!   `|(U₁⁻¹L₁⁻¹)_{il}| ≤ Σ_j |U₁⁻¹_{ij}|·|L₁⁻¹_{jl}| ≤ g_l` for every
//!   row `i`, triangle inequality gives
//!   `|r₁[i]| ≤ Σ_{l∈B} g_l·|t₁[l]|`.
//!
//! ```text
//! max_{i∈B} |r₁[i]| ≤ min( W_B·‖t₁[B]‖_∞ ,  Σ_{l∈B} g_l·|t₁[l]| )
//! ```
//!
//! The norm bound wins when `U₁⁻¹`'s mass is spread across rows; the
//! weighted bound wins when `t₁` is concentrated — which is the
//! common case, since `t₁[i]` is the hub mass flowing into spoke `i`.
//! Both tables cost one pass over the nonzeros of `L₁⁻¹`/`U₁⁻¹` and
//! are cached on the [`Bear`]; `t₁` is fresh per query, so the bound
//! tracks the actual score mass entering each block. The final bound
//! is inflated by a relative `1 + 1e-9` before comparison so that
//! floating-point rounding in the coefficient sums and the scatter
//! can never under-estimate a block and silently break
//! rank-exactness.
//!
//! # Certification and fallback
//!
//! The candidate heap starts with all hub scores (already exact).
//! Blocks are resolved in descending upper-bound order; once the heap
//! holds `k` candidates and the k-th best *exact* score strictly
//! exceeds the next block's upper bound, every unresolved spoke is
//! provably outside the top k and the answer is certified. (Strict
//! comparison matters: a tie is resolved exactly rather than pruned,
//! preserving the node-id tie-break of the full path.)
//!
//! When certification cannot be reached cheaply, the query falls back
//! — still exact, just without (full) savings — with a typed
//! [`TopKFallbackReason`]:
//!
//! * [`DegenerateK`](TopKFallbackReason::DegenerateK) — every non-seed
//!   node was requested (`k ≥ n − 1`); selection cannot prune
//!   anything, so the full solve runs.
//! * [`NonFiniteBounds`](TopKFallbackReason::NonFiniteBounds) — a
//!   factor norm, hub score, or derived bound is NaN/∞, so no sound
//!   certificate exists; the full solve runs.
//! * [`SweepCheaper`](TopKFallbackReason::SweepCheaper) — the blocks
//!   that can still reach the top k would cost more to resolve one by
//!   one than one back sweep over every unit (see *Deciding* below),
//!   so the sweep runs on the exact `t₁` already in the workspace and
//!   the k best of `r₁` and `r₂` are selected. Worst case one back
//!   sweep more than the hub half, never a second solve.
//! * [`BoundsTooLoose`](TopKFallbackReason::BoundsTooLoose) — resolving
//!   the next block would push resolved spokes past
//!   [`TopKPruneOptions::max_resolve_fraction`] of `n₁`. The hub sweep
//!   and `t₁` are already exact at that point, so instead of
//!   re-solving from scratch the query *finishes in place*, resolving
//!   every remaining block that can still reach the top k — in
//!   arbitrary order, skipping the per-block ordering cost, which is
//!   sound because the bounded candidate heap keeps exactly the k best
//!   under a strict total order.
//!
//! # Deciding between the loop and one sweep
//!
//! Once the candidate heap holds k hub scores, its k-th best `τ₀` is a
//! floor under every later k-th best, so a block bounded strictly
//! below `τ₀` is never resolved. The blocks that are not ("live") are
//! priced at their stored factor nonzeros plus `RESOLVE_BLOCK_NNZ`
//! each, the per-block cost of taking them one at a time; one back
//! sweep is priced at the stored nonzeros of every unit. The bound
//! pass stops as soon as the live price passes the sweep's and the
//! sweep runs instead. SlashBurn cuts R-MAT into thousands of
//! mostly singleton blocks, so there an uncertifiable query pays one
//! sweep rather than thousands of one-row resolves; graphs with few
//! large blocks price far below a sweep and keep certifying.

use std::collections::BinaryHeap;

use crate::engine::QueryWorkspace;
use crate::paging::SweepScratch;
use crate::precompute::Bear;
use crate::query::Rhs;
use crate::topk::{score_desc, top_k_excluding_seed, ScoredNode};
use bear_sparse::{Error, Result};

/// Tuning knobs for the pruned top-k path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKPruneOptions {
    /// Stop trusting the bounds once the blocks resolved exactly would
    /// exceed this fraction of the `n₁` spokes: the query is marked
    /// uncertified with [`TopKFallbackReason::BoundsTooLoose`] and the
    /// remaining blocks are resolved in place (still exact — that IS
    /// the full solve's spoke sweep). Must be finite and in `[0, 1]`;
    /// `0.0` trips the fallback before any block resolves (useful to
    /// force the fallback path under test).
    pub max_resolve_fraction: f64,
}

impl Default for TopKPruneOptions {
    fn default() -> Self {
        // Past ~90% resolved the certificate is clearly not going to
        // pay for the bookkeeping; stop checking and just finish.
        TopKPruneOptions { max_resolve_fraction: 0.9 }
    }
}

/// Why a pruned top-k query fell back to the full solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKFallbackReason {
    /// `k ≥ n − 1`: every non-seed node is requested, nothing can be
    /// pruned, and the full solve is strictly cheaper.
    DegenerateK,
    /// A precomputed factor norm, hub score, or derived block bound is
    /// NaN or infinite — no sound certificate exists.
    NonFiniteBounds,
    /// Certification would have required resolving more than
    /// [`TopKPruneOptions::max_resolve_fraction`] of the spokes; the
    /// remaining blocks that could reach the top k were resolved in
    /// place (exact, uncertified) rather than re-solved from scratch.
    BoundsTooLoose,
    /// The blocks whose bound reaches the k-th best hub score would
    /// cost more to resolve one by one than one back sweep over every
    /// unit, so the sweep ran instead (exact, uncertified).
    SweepCheaper,
}

impl TopKFallbackReason {
    /// Every reason, in the order of their `/metrics` series.
    pub const ALL: [TopKFallbackReason; 4] = [
        TopKFallbackReason::DegenerateK,
        TopKFallbackReason::NonFiniteBounds,
        TopKFallbackReason::BoundsTooLoose,
        TopKFallbackReason::SweepCheaper,
    ];
}

impl TopKFallbackReason {
    /// Stable snake_case label (used in metrics and logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            TopKFallbackReason::DegenerateK => "degenerate_k",
            TopKFallbackReason::NonFiniteBounds => "non_finite_bounds",
            TopKFallbackReason::BoundsTooLoose => "bounds_too_loose",
            TopKFallbackReason::SweepCheaper => "sweep_cheaper",
        }
    }
}

impl std::fmt::Display for TopKFallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a pruned top-k query actually did: how much of the index it
/// touched and whether the answer was certified by pruning or produced
/// by the full-solve fallback. Either way the answer itself is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKPruneStats {
    /// Number of diagonal blocks of `H₁₁` (resolution granularity).
    pub spoke_blocks: usize,
    /// Spoke blocks resolved exactly before certification.
    pub blocks_resolved: usize,
    /// Non-seed nodes whose exact score was computed and considered
    /// (all hubs plus every spoke in a resolved block).
    pub candidates: usize,
    /// Non-seed nodes provably outside the top k whose exact score was
    /// never computed. `candidates + nodes_pruned = n − 1`.
    pub nodes_pruned: usize,
    /// `true` when the pruning certificate closed the query; `false`
    /// when the answer came from the full-solve fallback.
    pub certified: bool,
    /// Why the fallback ran, when it did.
    pub fallback: Option<TopKFallbackReason>,
}

impl TopKPruneStats {
    /// Fraction of non-seed nodes that were never scored,
    /// `nodes_pruned / (candidates + nodes_pruned)`; `0.0` when every
    /// node was scored (the full solve, the one-sweep fallback) and for
    /// the empty query.
    pub fn prune_ratio(&self) -> f64 {
        let total = self.candidates + self.nodes_pruned;
        if total == 0 {
            return 0.0;
        }
        self.nodes_pruned as f64 / total as f64
    }

    fn fallback(bear: &Bear, n: usize, reason: TopKFallbackReason) -> Self {
        TopKPruneStats {
            spoke_blocks: bear.block_sizes.len(),
            blocks_resolved: bear.block_sizes.len(),
            candidates: n.saturating_sub(1),
            nodes_pruned: 0,
            certified: false,
            fallback: Some(reason),
        }
    }
}

/// Per-index coefficient tables for the block upper bounds. Computed
/// lazily on first pruned query and cached on the [`Bear`] (never
/// persisted — a loaded index rebuilds them in one pass).
#[derive(Debug, Clone)]
pub(crate) struct TopKBounds {
    /// `W_B = max_{i∈B} Σ_l |U₁⁻¹_{il}|·Σ_j |L₁⁻¹_{lj}|` — the operator
    /// ∞-norm bound of block `B`'s `U₁⁻¹L₁⁻¹` factor.
    w_max: Vec<f64>,
    /// `g_l = Σ_j |L₁⁻¹_{jl}|·max_i |U₁⁻¹_{ij}|` — per-column weight
    /// such that `|(U₁⁻¹L₁⁻¹)_{il}| ≤ g_l` for every row `i`; dotted
    /// against `|t₁|` it yields the entry-weighted block bound.
    g: Vec<f64>,
    /// Stored nonzeros of block `b`'s parts of `L₁⁻¹` and `U₁⁻¹`: the
    /// kernel work of resolving it alone.
    block_nnz: Vec<u64>,
    /// Stored nonzeros of every unit's two factors: the kernel work of
    /// one back sweep.
    sweep_nnz: u64,
    /// All coefficients finite; when false every pruned query falls
    /// back with [`TopKFallbackReason::NonFiniteBounds`].
    finite: bool,
}

impl TopKBounds {
    /// One walk over the units, each taken as a sweep takes it
    /// ([`crate::paging::SpokeFactors::unit`]): borrowed when resident,
    /// fetched once when paged. Within a unit, one walk over its blocks,
    /// block `b` starting `base` rows and columns into the unit's
    /// run-local factors. `L₁⁻¹`/`U₁⁻¹` are block diagonal, so every
    /// table entry depends only on entries of its own block, and three
    /// ascending column walks per block visit the same nonzeros in the
    /// same order as walks over the whole matrices.
    fn for_bear(bear: &Bear) -> Result<TopKBounds> {
        let spokes = &bear.spokes;
        let nb = spokes.starts().len().saturating_sub(1);
        let n1 = spokes.starts().last().copied().unwrap_or(0);
        let mut lrow = vec![0.0f64; n1];
        let mut w = vec![0.0f64; n1];
        let mut u_colmax = vec![0.0f64; n1];
        let mut g = vec![0.0f64; n1];
        let mut w_max = Vec::with_capacity(nb);
        let mut block_nnz = Vec::with_capacity(nb);
        let mut sweep_nnz = 0u64;
        let mut finite = true;
        for u in 0..spokes.num_units() {
            sweep_nnz = sweep_nnz.saturating_add(spokes.unit_nnz(u));
            let ((us, _), blocks) = spokes.unit_span(u)?;
            let unit = spokes.unit(u)?;
            let (l1, u1) = (&unit.l1, &unit.u1);
            for b in blocks {
                let (bs, be) = spokes.block_range(b)?;
                // Column `c` of the unit's factors is spoke `us + c`, and
                // so is row `c`; block `b` starts at column `base`.
                let base = bs - us;
                let columns = base..base + (be - bs);
                let mut nnz = 0u64;
                // lrow_l = Σ_j |L₁⁻¹_{lj}|: row absolute sums, accumulated
                // by walking the columns.
                for c in columns.clone() {
                    let (rows, vals) = l1.col(c);
                    nnz += rows.len() as u64;
                    for (&r, &v) in rows.iter().zip(vals) {
                        if let Some(slot) = lrow.get_mut(us + r) {
                            *slot += v.abs();
                        }
                    }
                }
                // w_i = Σ_l |U₁⁻¹_{il}|·lrow_l and u_j = max_i |U₁⁻¹_{ij}|,
                // both from one column walk over U₁⁻¹.
                for c in columns.clone() {
                    let scale = lrow.get(us + c).copied().unwrap_or(0.0);
                    let (rows, vals) = u1.col(c);
                    nnz += rows.len() as u64;
                    let mut cm = 0.0f64;
                    for (&r, &v) in rows.iter().zip(vals) {
                        let a = v.abs();
                        if a > cm {
                            cm = a;
                        }
                        if let Some(slot) = w.get_mut(us + r) {
                            *slot += a * scale;
                        }
                    }
                    if let Some(slot) = u_colmax.get_mut(us + c) {
                        *slot = cm;
                    }
                }
                // g_l = Σ_j |L₁⁻¹_{jl}|·u_j: column walk over L₁⁻¹.
                for c in columns {
                    let (rows, vals) = l1.col(c);
                    let mut acc = 0.0f64;
                    for (&r, &v) in rows.iter().zip(vals) {
                        acc += v.abs() * u_colmax.get(us + r).copied().unwrap_or(0.0);
                    }
                    if let Some(slot) = g.get_mut(us + c) {
                        *slot = acc;
                    }
                }
                let mut wb = 0.0f64;
                for &wi in w.get(bs..be).unwrap_or_default() {
                    if wi > wb {
                        wb = wi;
                    }
                }
                finite &= wb.is_finite();
                w_max.push(wb);
                block_nnz.push(nnz);
            }
        }
        finite &= g.iter().all(|v| v.is_finite());
        Ok(TopKBounds { w_max, g, block_nnz, sweep_nnz, finite })
    }
}

/// What resolving one block off the resolution queue costs beyond its
/// factor nonzeros, in nonzeros of back-sweep work: the heap pop, the
/// block and unit lookups, the two kernel calls' set-up and the
/// candidate pushes of its rows. A query sweeps once when its live
/// blocks' nonzeros plus this much per block exceed the sweep's
/// nonzeros. Fitted in process on `rmat_0.7` (the `topk_pruned`
/// criterion group's R-MAT arm) and `email_like` (DESIGN.md §17):
/// resolving every block one by one costs 27–50 swept nonzeros per
/// block over its own.
const RESOLVE_BLOCK_NNZ: u64 = 40;

/// Block owning permuted spoke position `pos` among blocks with prefix
/// sums `starts`, `None` for hubs.
fn block_of(starts: &[usize], pos: usize) -> Option<usize> {
    let spokes = starts.last().copied()?;
    if pos >= spokes {
        return None;
    }
    starts.partition_point(|&s| s <= pos).checked_sub(1)
}

/// The candidate heap's k best, best first.
fn into_ranking(heap: BinaryHeap<HeapItem>) -> Vec<ScoredNode> {
    heap.into_sorted_vec().into_iter().map(|item| item.0).collect()
}

/// Max-heap item whose `Ord` is [`score_desc`]: `Greater` means *ranks
/// worse*, so [`BinaryHeap::peek`] is the current k-th best candidate
/// and [`BinaryHeap::into_sorted_vec`] yields best-first order —
/// exactly the order `select_top_k` produces on the full vector.
struct HeapItem(ScoredNode);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        score_desc(&self.0, &other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        score_desc(&self.0, &other.0)
    }
}

/// Keeps the best `k` candidates: push unconditionally below capacity,
/// otherwise replace the current k-th best iff `cand` ranks strictly
/// better (score_desc is a strict total order — distinct nodes never
/// compare Equal — so the kept set is exactly the k best).
fn push_bounded(heap: &mut BinaryHeap<HeapItem>, k: usize, cand: ScoredNode) {
    if heap.len() < k {
        heap.push(HeapItem(cand));
        return;
    }
    if let Some(worst) = heap.peek() {
        if score_desc(&cand, &worst.0) == std::cmp::Ordering::Less {
            heap.push(HeapItem(cand));
            heap.pop();
        }
    }
}

/// One block's upper bound in the resolution queue. `Ord` is by bound
/// descending (then block id ascending, for determinism), so a
/// max-heap pops the loosest block first. Heapifying is `O(blocks)`
/// and certified queries pop only a handful of blocks — much cheaper
/// than sorting the whole table per query.
struct BlockBound {
    ub: f64,
    b: usize,
}

impl PartialEq for BlockBound {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for BlockBound {}

impl PartialOrd for BlockBound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BlockBound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ub.total_cmp(&other.ub).then(other.b.cmp(&self.b))
    }
}

/// Outcome of the pruning attempt, before any fallback work.
enum CoreOutcome {
    Pruned { nodes: Vec<ScoredNode>, stats: TopKPruneStats },
    Fallback(TopKFallbackReason),
}

impl Bear {
    /// The cached bound tables, computing them on first use. Fallible
    /// because a paged index fetches every spoke block once to build
    /// them (a losing race computes the tables twice; the first init
    /// wins and both results are bit-identical).
    pub(crate) fn topk_bounds(&self) -> Result<&TopKBounds> {
        if let Some(b) = self.topk_bounds.get() {
            return Ok(b);
        }
        let computed = TopKBounds::for_bear(self)?;
        Ok(self.topk_bounds.get_or_init(|| computed))
    }

    /// The `k` most relevant nodes w.r.t. `seed` via bound-and-prune —
    /// bit-identical in rank and exact in score to
    /// [`Bear::query_top_k`], usually without computing most spoke
    /// scores. See the module docs for the certificate.
    pub fn query_top_k_pruned(&self, seed: usize, k: usize) -> Result<Vec<ScoredNode>> {
        let (nodes, _) = self.query_top_k_pruned_with(seed, k, &TopKPruneOptions::default())?;
        Ok(nodes)
    }

    /// [`Bear::query_top_k_pruned`] with explicit options, also
    /// returning what the pruning pass did.
    pub fn query_top_k_pruned_with(
        &self,
        seed: usize,
        k: usize,
        opts: &TopKPruneOptions,
    ) -> Result<(Vec<ScoredNode>, TopKPruneStats)> {
        let mut ws = QueryWorkspace::for_bear(self);
        self.query_top_k_pruned_in(seed, k, opts, &mut ws)
    }

    /// [`Bear::query_top_k_pruned_with`] against a caller-owned
    /// workspace: the serving-engine form. The steady state allocates
    /// only the candidate structures (`O(blocks + k)`), never an
    /// n-vector — except on the degenerate-k / non-finite fallbacks,
    /// which run the full solve.
    pub fn query_top_k_pruned_in(
        &self,
        seed: usize,
        k: usize,
        opts: &TopKPruneOptions,
        ws: &mut QueryWorkspace,
    ) -> Result<(Vec<ScoredNode>, TopKPruneStats)> {
        let n = self.num_nodes();
        if seed >= n {
            return Err(Error::IndexOutOfBounds { index: seed, bound: n });
        }
        if !opts.max_resolve_fraction.is_finite()
            || !(0.0..=1.0).contains(&opts.max_resolve_fraction)
        {
            return Err(Error::InvalidConfig {
                param: "max_resolve_fraction",
                reason: format!("must be finite in [0, 1], got {}", opts.max_resolve_fraction),
            });
        }
        let effective_k = k.min(n.saturating_sub(1));
        if effective_k == 0 {
            return Ok((
                Vec::new(),
                TopKPruneStats {
                    spoke_blocks: self.block_sizes.len(),
                    blocks_resolved: 0,
                    candidates: 0,
                    nodes_pruned: n.saturating_sub(1),
                    certified: true,
                    fallback: None,
                },
            ));
        }
        let reason = if effective_k == n - 1 {
            TopKFallbackReason::DegenerateK
        } else {
            match self.prune_core(seed, effective_k, opts, ws)? {
                CoreOutcome::Pruned { nodes, stats } => return Ok((nodes, stats)),
                CoreOutcome::Fallback(reason) => reason,
            }
        };
        // Fallback: full Algorithm 2 plus selection — exact, uncertified.
        let mut out = vec![0.0; n];
        self.query_into(seed, ws, &mut out)?;
        let nodes = top_k_excluding_seed(&out, seed, effective_k);
        Ok((nodes, TopKPruneStats::fallback(self, n, reason)))
    }

    /// The pruning pass proper.
    fn prune_core(
        &self,
        seed: usize,
        effective_k: usize,
        opts: &TopKPruneOptions,
        ws: &mut QueryWorkspace,
    ) -> Result<CoreOutcome> {
        let bounds = self.topk_bounds()?;
        if !bounds.finite {
            return Ok(CoreOutcome::Fallback(TopKFallbackReason::NonFiniteBounds));
        }

        // The full solve's hub half at width 1, so `r₂` is bit-identical
        // to the full solve's hub scores.
        let rhs = Rhs::Seeds(std::slice::from_ref(&seed));
        self.hub_half(rhs, ws)?;

        // Spoke right-hand side `t₁ = c·q₁ − H₁₂ r₂`, computed exactly
        // for every spoke up front into the spoke block, as the full
        // solve's spoke half does, so each entry matches the full kernel
        // bit for bit. `H₁₂` holds only original graph edges, so this is
        // the cheap part of the spoke sweep. The fill-heavy `U₁⁻¹L₁⁻¹`
        // scatter is what pruning skips per unresolved block.
        self.spoke_rhs_into(rhs, ws)?;

        let seed_pos = self.perm.new_of(seed);
        let seed_block = block_of(self.spokes.starts(), seed_pos);

        // Seed the candidate heap with the (exact) hub scores. Once it
        // holds k of them, its k-th best `τ₀` is a floor under every
        // later k-th best: a block bounded strictly below `τ₀` is never
        // resolved.
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(effective_k + 1);
        for (off, &score) in ws.r2.iter().enumerate() {
            let node = self.perm.old_of(self.n1 + off);
            if node == seed {
                continue;
            }
            push_bounded(&mut heap, effective_k, ScoredNode { node, score });
        }
        let mut candidates = self.n2 - usize::from(seed_pos >= self.n1);
        // A NaN or infinite k-th best hub score bounds nothing.
        let tau0 = heap
            .peek()
            .map(|kth| kth.0.score)
            .filter(|tau| heap.len() == effective_k && tau.is_finite());

        // Upper-bound every block by
        // `min(W_B·‖t₁[B]‖_∞, Σ_{l∈B} g_l·|t₁[l]|)` in one straight walk
        // over `t₁` and `g`, block by block along `starts`. The blocks
        // that can still reach the top k (all of them while `τ₀` is
        // unknown) go into the resolution queue, and their factor
        // nonzeros plus a per-block overhead price resolving them. Once
        // that price passes one back sweep's, the walk stops: the sweep
        // needs no bounds.
        let mut live: Vec<BlockBound> = Vec::with_capacity(self.block_sizes.len());
        let mut live_cost = 0u64;
        let mut sweep_cheaper = false;
        let mut finite = true;
        let mut entries = ws.x1.iter().zip(&bounds.g);
        let mut bs = 0usize;
        let ends = self.spokes.starts().iter().skip(1);
        for (b, ((&be, &wm), &nnz)) in ends.zip(&bounds.w_max).zip(&bounds.block_nnz).enumerate() {
            let mut t_max = 0.0f64;
            let mut dot = 0.0f64;
            for (&v, &gl) in entries.by_ref().take(be.saturating_sub(bs)) {
                let a = v.abs();
                if a > t_max {
                    t_max = a;
                }
                dot += gl * a;
            }
            bs = be;
            // Inflate: the coefficients are rounded f64 sums, and an
            // under-estimated bound would break rank-exactness. A
            // non-finite `t₁` entry leaves `dot` non-finite.
            let ub = (wm * t_max).min(dot) * (1.0 + 1e-9);
            finite &= dot.is_finite() && ub.is_finite();
            if tau0.is_none_or(|tau| ub >= tau) {
                live_cost += nnz + RESOLVE_BLOCK_NNZ;
                live.push(BlockBound { ub, b });
                if tau0.is_some() && live_cost > bounds.sweep_nnz {
                    sweep_cheaper = true;
                    break;
                }
            }
        }
        if !finite {
            return Ok(CoreOutcome::Fallback(TopKFallbackReason::NonFiniteBounds));
        }

        let n = self.num_nodes();
        if sweep_cheaper {
            // One back sweep is cheaper than resolving the live blocks
            // one by one. It is the full solve's own back sweep on the
            // same `t₁`, so `r₁` is the full solve's bit for bit, and the
            // bounded heap keeps exactly the k best of `r₁` and `r₂`.
            self.spokes.solve_into(&mut ws.x1, 1, &mut ws.sweep, false)?;
            for (pos, &score) in ws.x1.iter().enumerate() {
                // The heap is full (`τ₀` exists), so a score strictly
                // below its k-th best is out without looking up its node.
                if heap.peek().is_some_and(|kth| score < kth.0.score) {
                    continue;
                }
                let node = self.perm.old_of(pos);
                if node != seed {
                    push_bounded(&mut heap, effective_k, ScoredNode { node, score });
                }
            }
            let stats = TopKPruneStats::fallback(self, n, TopKFallbackReason::SweepCheaper);
            return Ok(CoreOutcome::Pruned { nodes: into_ranking(heap), stats });
        }
        // O(live blocks) heapify; certified queries pop only a few.
        let mut order = BinaryHeap::from(live);

        // Every bound above was taken from `t₁`, so each resolved block
        // now replaces its rows of `t₁` in place with the same `r₁` the
        // full solve leaves there, `L`'s output going through the sweep
        // scratch.
        let x1 = ws.x1.as_mut_slice();
        let sweep = &mut ws.sweep;

        // Resolve blocks until the k-th exact score certifies the rest.
        let allowed = (opts.max_resolve_fraction * self.n1 as f64).floor() as usize;
        let mut fallback = None;
        let mut resolved_nodes = 0usize;
        let mut blocks_resolved = 0usize;
        while let Some(BlockBound { ub, b }) = order.pop() {
            if heap.len() == effective_k {
                if let Some(kth) = heap.peek() {
                    // Strict: a tie gets resolved, never pruned.
                    if kth.0.score > ub {
                        break;
                    }
                }
            }
            let (bs, be) = self.spokes.block_range(b)?;
            let width = be - bs;
            self.resolve_into_heap(b, bs, be, x1, sweep, seed, effective_k, &mut heap)?;
            resolved_nodes += width;
            blocks_resolved += 1;
            candidates += width - usize::from(seed_block == Some(b));
            if resolved_nodes > allowed {
                // Budget exhausted: the bounds are not going to pay.
                // The hub sweep and t₁ are already exact, so completing
                // the remaining live block scatters in place finishes
                // the query for at most one back sweep more — re-solving
                // from scratch would double the cost. Drain below,
                // skipping the per-pop ordering cost (the bounded
                // candidate heap keeps exactly the k best under a strict
                // total order, so block resolution order cannot change
                // the answer).
                fallback = Some(TopKFallbackReason::BoundsTooLoose);
                break;
            }
        }
        if fallback.is_some() {
            for BlockBound { b, .. } in order.into_vec() {
                let (bs, be) = self.spokes.block_range(b)?;
                self.resolve_into_heap(b, bs, be, x1, sweep, seed, effective_k, &mut heap)?;
                blocks_resolved += 1;
                candidates += (be - bs) - usize::from(seed_block == Some(b));
            }
        }

        let stats = TopKPruneStats {
            spoke_blocks: self.block_sizes.len(),
            blocks_resolved,
            candidates,
            nodes_pruned: n.saturating_sub(1).saturating_sub(candidates),
            certified: fallback.is_none(),
            fallback,
        };
        Ok(CoreOutcome::Pruned { nodes: into_ranking(heap), stats })
    }

    /// Exactly resolves spoke block `[bs, be)` of `x1` in place —
    /// `r₁[B] = U₁⁻¹L₁⁻¹ t₁[B]`, replicating the full kernels' per-row
    /// accumulation order — and feeds the scores into the bounded
    /// candidate heap.
    #[allow(clippy::too_many_arguments)]
    fn resolve_into_heap(
        &self,
        b: usize,
        bs: usize,
        be: usize,
        x1: &mut [f64],
        sweep: &mut SweepScratch,
        seed: usize,
        effective_k: usize,
        heap: &mut BinaryHeap<HeapItem>,
    ) -> Result<()> {
        self.spokes.solve_block(b, x1, sweep)?;
        let r1b = x1
            .get(bs..be)
            .ok_or_else(|| Error::InvalidStructure("top-k block range out of bounds".into()))?;
        for (off, &score) in r1b.iter().enumerate() {
            let node = self.perm.old_of(bs + off);
            if node == seed {
                continue;
            }
            push_bounded(heap, effective_k, ScoredNode { node, score });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::{Bear, BearConfig};
    use bear_graph::Graph;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            all.push((u, v));
            all.push((v, u));
        }
        Graph::from_edges(n, &all).unwrap()
    }

    /// Two hubs bridging three spoke chains — several nontrivial blocks.
    fn caves(n_extra: usize) -> Graph {
        let mut edges = vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (3, 4),
            (4, 5),
            (0, 6),
            (6, 7),
            (7, 8),
            (8, 6),
            (1, 9),
            (9, 10),
        ];
        let base = 11;
        for i in 0..n_extra {
            edges.push((0, base + i));
        }
        undirected(base + n_extra, &edges)
    }

    fn assert_same(a: &[ScoredNode], b: &[ScoredNode]) {
        assert_eq!(a.len(), b.len(), "lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.node, y.node, "rank order differs: {a:?} vs {b:?}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "score not exact at node {}", x.node);
        }
    }

    #[test]
    fn pruned_matches_full_exactly() {
        for xi in [0.0, 1e-4] {
            let g = caves(8);
            let cfg =
                if xi == 0.0 { BearConfig::exact(0.15) } else { BearConfig::approx(0.15, xi) };
            let bear = Bear::new(&g, &cfg).unwrap();
            let n = bear.num_nodes();
            for seed in 0..n {
                for k in [1, 2, 3, 7, n - 2, n - 1, n + 2] {
                    let full = bear.query_top_k(seed, k).unwrap();
                    let pruned = bear.query_top_k_pruned(seed, k).unwrap();
                    assert_same(&pruned, &full);
                }
            }
        }
    }

    #[test]
    fn degenerate_k_falls_back_typed() {
        let g = caves(2);
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        let n = bear.num_nodes();
        let (nodes, stats) =
            bear.query_top_k_pruned_with(0, n - 1, &TopKPruneOptions::default()).unwrap();
        assert_eq!(nodes.len(), n - 1);
        assert!(!stats.certified);
        assert_eq!(stats.fallback, Some(TopKFallbackReason::DegenerateK));
        assert_eq!(stats.prune_ratio(), 0.0);
    }

    #[test]
    fn zero_resolve_budget_forces_loose_bounds_fallback() {
        let g = caves(6);
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        // k larger than the hub count: the heap cannot fill (let alone
        // certify) without resolving at least one spoke block, which a
        // zero budget forbids.
        let k = bear.n_hubs() + 2;
        assert!(k < bear.num_nodes() - 1, "test graph too small");
        let opts = TopKPruneOptions { max_resolve_fraction: 0.0 };
        let (nodes, stats) = bear.query_top_k_pruned_with(1, k, &opts).unwrap();
        assert_eq!(stats.fallback, Some(TopKFallbackReason::BoundsTooLoose));
        assert!(!stats.certified);
        // Fallback answers are still exact.
        assert_same(&nodes, &bear.query_top_k(1, k).unwrap());
    }

    #[test]
    fn stats_account_for_every_node() {
        let g = caves(10);
        let bear = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
        let n = bear.num_nodes();
        let (nodes, stats) =
            bear.query_top_k_pruned_with(3, 2, &TopKPruneOptions::default()).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(stats.candidates + stats.nodes_pruned, n - 1);
        assert!(stats.blocks_resolved <= stats.spoke_blocks);
        assert!((0.0..=1.0).contains(&stats.prune_ratio()));
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = caves(2);
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        assert!(bear.query_top_k_pruned(999, 3).is_err());
        for bad in [-0.1, 1.5, f64::NAN] {
            let opts = TopKPruneOptions { max_resolve_fraction: bad };
            assert!(bear.query_top_k_pruned_with(0, 3, &opts).is_err(), "accepted {bad}");
        }
        // k = 0 is a valid no-op.
        let (nodes, stats) =
            bear.query_top_k_pruned_with(0, 0, &TopKPruneOptions::default()).unwrap();
        assert!(nodes.is_empty());
        assert!(stats.certified);
    }
}
