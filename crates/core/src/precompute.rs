//! BEAR preprocessing (Algorithm 1 of the paper).
//!
//! Steps, matching the paper's line numbers:
//! 1. build `H = I − (1−c) Ãᵀ`;
//! 2. run SlashBurn to split nodes into spokes and hubs;
//! 3. reorder `H` so spoke components form the block-diagonal `H₁₁`
//!    (nodes inside each block ascending by degree);
//! 4. partition `H` into `H₁₁, H₁₂, H₂₁, H₂₂`;
//! 5. LU-decompose `H₁₁` block by block and invert the factors
//!    (`L₁⁻¹`, `U₁⁻¹`);
//! 6. compute the Schur complement `S = H₂₂ − H₂₁ (U₁⁻¹ (L₁⁻¹ H₁₂))`;
//! 7. reorder the hubs ascending by degree within `S`;
//! 8. LU-decompose `S` and invert the factors (`L₂⁻¹`, `U₂⁻¹`);
//! 9. (BEAR-Approx) drop entries below the drop tolerance `ξ` from all
//!    six precomputed matrices.

use crate::paging::{FactorPair, SpokeFactors};
use crate::persist::{ResidentParts, V3StreamWriter};
use crate::rwr::{build_h, RwrConfig};
use crate::stats::{PrecomputedStats, StageTimings};
use bear_graph::{slashburn, Graph, SlashBurnConfig};
use bear_sparse::mem::{MemBudget, MemoryUsage};
use bear_sparse::parallel::{par_invert_triangular, par_spgemm};
use bear_sparse::sparsify::{drop_tolerance_csc, par_drop_tolerance_csc, par_drop_tolerance_csr};
use bear_sparse::triangular::Triangle;
use bear_sparse::{ops, BlockDiagLu, CscMatrix, CsrMatrix, Error, Permutation, Result, SparseLu};
use std::path::Path;
use std::time::Instant;

/// Configuration for BEAR preprocessing.
#[derive(Debug, Clone, Copy)]
pub struct BearConfig {
    /// Restart probability and adjacency normalization.
    pub rwr: RwrConfig,
    /// Drop tolerance `ξ`. `0.0` gives BEAR-Exact; `> 0` gives
    /// BEAR-Approx (Algorithm 1 line 9).
    pub drop_tolerance: f64,
    /// SlashBurn hubs-per-iteration. `None` uses the paper's default
    /// `k = max(1, ⌈0.001 n⌉)`.
    pub slashburn_k: Option<usize>,
    /// Memory budget charged by the precomputed matrices; exceeding it
    /// aborts preprocessing with `Error::OutOfBudget`.
    pub budget: MemBudget,
    /// Reorder hubs ascending by degree within `S` before factoring it
    /// (Algorithm 1 line 7). Disable only for ablation experiments.
    pub reorder_hubs: bool,
    /// Sort spoke-block nodes ascending by within-component degree
    /// (Observation 1). Disable only for ablation experiments.
    pub sort_blocks_by_degree: bool,
    /// Worker threads for the parallelizable preprocessing kernels
    /// (block-diagonal LU, factor inversion, Schur-complement SpGEMM,
    /// and drop-tolerance sparsification). `1` runs the serial kernels;
    /// `0` means "all cores". Results are **bit-identical** for every
    /// thread count: every parallel kernel stitches per-chunk output
    /// back in input order.
    pub threads: usize,
}

impl Default for BearConfig {
    fn default() -> Self {
        BearConfig {
            rwr: RwrConfig::default(),
            drop_tolerance: 0.0,
            slashburn_k: None,
            budget: MemBudget::unlimited(),
            reorder_hubs: true,
            sort_blocks_by_degree: true,
            threads: 1,
        }
    }
}

impl BearConfig {
    /// BEAR-Exact with the given restart probability.
    pub fn exact(c: f64) -> Self {
        BearConfig { rwr: RwrConfig { c, ..RwrConfig::default() }, ..BearConfig::default() }
    }

    /// BEAR-Approx with the given restart probability and drop tolerance.
    pub fn approx(c: f64, xi: f64) -> Self {
        BearConfig { drop_tolerance: xi, ..BearConfig::exact(c) }
    }

    /// Validates the whole configuration at the preprocessing boundary.
    ///
    /// Beyond the restart-probability range check, this rejects a NaN,
    /// infinite, or negative drop tolerance `ξ`: a NaN used to slip
    /// through to the sparsifier where `v.abs() >= NaN` is false for
    /// every entry, silently emptying all six precomputed matrices.
    pub fn validate(&self) -> Result<()> {
        self.rwr.validate()?;
        if !self.drop_tolerance.is_finite() || self.drop_tolerance < 0.0 {
            return Err(Error::InvalidConfig {
                param: "drop_tolerance",
                reason: format!(
                    "xi = {} must be finite and >= 0 (0 disables sparsification)",
                    self.drop_tolerance
                ),
            });
        }
        Ok(())
    }

    /// Resolves [`BearConfig::threads`] to a concrete worker count:
    /// `0` maps to all available cores, anything else is taken as-is.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// Intermediate preprocessing state shared by [`Bear`] and the
/// iterative-hub variant: everything up to (and including) the Schur
/// complement, before `S` is factored.
#[derive(Debug, Clone)]
pub(crate) struct PreprocessParts {
    pub(crate) l1_inv: CscMatrix,
    pub(crate) u1_inv: CscMatrix,
    pub(crate) h12: CsrMatrix,
    pub(crate) h21: CsrMatrix,
    pub(crate) s: CsrMatrix,
    pub(crate) perm: Permutation,
    pub(crate) n1: usize,
    pub(crate) n2: usize,
    pub(crate) block_sizes: Vec<usize>,
    pub(crate) degrees: Vec<usize>,
    /// Stage timings for lines 1–7; the Schur-side stages are filled in
    /// by [`Bear::new`].
    pub(crate) timings: StageTimings,
}

/// Runs Algorithm 1 lines 1–7: build `H`, SlashBurn-reorder, partition,
/// block-factor `H₁₁` and invert its factors, form the Schur complement,
/// and reorder the hubs. Stops before factoring `S`.
///
/// All heavy kernels run on `config.effective_threads()` workers; the
/// output is bit-identical for every thread count.
pub(crate) fn preprocess_to_schur(g: &Graph, config: &BearConfig) -> Result<PreprocessParts> {
    config.validate()?;
    let n = g.num_nodes();
    let threads = config.effective_threads();
    let mut timings = StageTimings::default();

    // Line 1: H = I − (1−c) Ãᵀ.
    let stage = Instant::now();
    let h = build_h(g, &config.rwr)?;
    timings.build_h = stage.elapsed();

    // Lines 2–3: SlashBurn ordering.
    let stage = Instant::now();
    let mut sb_config = match config.slashburn_k {
        Some(k) => SlashBurnConfig::with_k(k),
        None => SlashBurnConfig::paper_default(n),
    };
    sb_config.sort_blocks_by_degree = config.sort_blocks_by_degree;
    let ordering = slashburn(g, &sb_config)?;
    let (n1, n2) = (ordering.n_spokes, ordering.n_hubs);
    let h = ordering.perm.permute_symmetric(&h)?;
    timings.slashburn = stage.elapsed();

    // Line 4: partition.
    let stage = Instant::now();
    let h11 = h.submatrix(0, n1, 0, n1)?;
    let mut h12 = h.submatrix(0, n1, n1, n)?;
    let mut h21 = h.submatrix(n1, n, 0, n1)?;
    let h22 = h.submatrix(n1, n, n1, n)?;
    config.budget.check(h12.memory_bytes() + h21.memory_bytes())?;
    timings.partition = stage.elapsed();

    // Line 5: block-diagonal LU of H₁₁ and inverted factors, with the
    // independent blocks scheduled across the workers (cost-balanced by
    // Σ block_size², largest blocks first).
    let stage = Instant::now();
    let block_lu = BlockDiagLu::par_factor(&h11.to_csc(), &ordering.block_sizes, threads)?;
    timings.factor_h11 = stage.elapsed();
    let stage = Instant::now();
    let (l1_inv, u1_inv) = block_lu.par_invert_factors(threads)?;
    config.budget.check(
        h12.memory_bytes() + h21.memory_bytes() + l1_inv.memory_bytes() + u1_inv.memory_bytes(),
    )?;
    timings.invert_h11 = stage.elapsed();

    // Line 6: Schur complement S = H₂₂ − H₂₁ U₁⁻¹ L₁⁻¹ H₁₂; the three
    // SpGEMMs split row ranges across workers (par_spgemm delegates to
    // the serial kernel for one thread or tiny inputs).
    let stage = Instant::now();
    let r1 = par_spgemm(&l1_inv.to_csr(), &h12, threads)?;
    let r2 = par_spgemm(&u1_inv.to_csr(), &r1, threads)?;
    let r3 = par_spgemm(&h21, &r2, threads)?;
    let mut s = ops::sub(&h22, &r3)?;

    // Line 7: reorder hubs ascending by degree within S.
    let hub_perm =
        if config.reorder_hubs { hub_degree_ordering(&s) } else { Permutation::identity(n2) };
    s = hub_perm.permute_symmetric(&s)?;
    h12 = hub_perm.permute_cols(&h12)?;
    h21 = hub_perm.permute_rows(&h21)?;
    timings.schur = stage.elapsed();

    // Full ordering = hub reorder on top of the SlashBurn ordering.
    let mut full_forward: Vec<usize> = (0..n).collect();
    for new_hub in 0..n2 {
        full_forward[n1 + new_hub] = n1 + hub_perm.old_of(new_hub);
    }
    let hub_lift = Permutation::from_new_to_old(full_forward)?;
    let perm = hub_lift.compose(&ordering.perm)?;

    Ok(PreprocessParts {
        l1_inv,
        u1_inv,
        h12,
        h21,
        s,
        perm,
        n1,
        n2,
        block_sizes: ordering.block_sizes,
        degrees: g.undirected_degrees(),
        timings,
    })
}

/// Persistent per-row Gustavson accumulators for the streamed Schur
/// complement: `r3 = H₂₁ · (U₁⁻¹ L₁⁻¹ H₁₂)` is assembled one spoke
/// block at a time while only that block's factors are in memory.
///
/// The global kernel ([`ops::spgemm`]) scatters, for each output row
/// `i`, the rows of `B` referenced by `H₂₁`'s row `i` in ascending
/// column order. Per-row state (accumulator, first-touch marks, touched
/// list, and a cursor into `H₂₁`'s row that advances monotonically
/// through the block ranges) replays exactly that (i, k) visitation
/// order across block boundaries, so the gathered matrix is
/// bit-identical to the one-shot product.
struct SchurAccumulator {
    n2: usize,
    /// Row-major `n2 × n2` dense accumulators.
    acc: Vec<f64>,
    mark: Vec<bool>,
    /// Per row, touched columns in first-touch order.
    touched: Vec<Vec<usize>>,
    /// Per row, position within `H₂₁.row(i)` of the next unseen entry.
    cursor: Vec<usize>,
}

impl SchurAccumulator {
    fn new(n2: usize) -> Self {
        SchurAccumulator {
            n2,
            acc: vec![0.0; n2 * n2],
            mark: vec![false; n2 * n2],
            touched: vec![Vec::new(); n2],
            cursor: vec![0; n2],
        }
    }

    /// Folds in block `[bs, be)`: `r2b` holds the rows `[bs, be)` of
    /// `U₁⁻¹ L₁⁻¹ H₁₂` (block-local row indices).
    fn scatter_block(
        &mut self,
        h21: &CsrMatrix,
        bs: usize,
        be: usize,
        r2b: &CsrMatrix,
    ) -> Result<()> {
        for i in 0..self.n2 {
            let (cols, vals) = h21.row(i);
            let base = i * self.n2;
            let cur = &mut self.cursor[i];
            while *cur < cols.len() && cols[*cur] < be {
                let k = cols[*cur];
                let aik = vals[*cur];
                *cur += 1;
                let kk = k.checked_sub(bs).ok_or_else(|| {
                    Error::InvalidStructure(format!(
                        "H21 column {k} revisited below block start {bs}"
                    ))
                })?;
                let (b_cols, b_vals) = r2b.row(kk);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    if !self.mark[base + j] {
                        self.mark[base + j] = true;
                        self.touched[i].push(j);
                        self.acc[base + j] = aik * bkj;
                    } else {
                        self.acc[base + j] += aik * bkj;
                    }
                }
            }
        }
        Ok(())
    }

    /// Gathers the accumulated product, replicating the global kernel's
    /// per-row epilogue: sort the touched columns, skip exact zeros.
    fn finish(mut self) -> CsrMatrix {
        let n2 = self.n2;
        let mut indptr = Vec::with_capacity(n2 + 1);
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        indptr.push(0);
        for i in 0..n2 {
            self.touched[i].sort_unstable();
            let base = i * n2;
            for &j in &self.touched[i] {
                let v = self.acc[base + j];
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        // lint:allow(L3, mirrors the in-crate spgemm epilogue for byte-identity; indices sorted and deduped by construction above)
        CsrMatrix::from_raw_unchecked(n2, n2, indptr, indices, values)
    }
}

/// Runs Algorithm 1 and streams the result straight to a v3 on-disk
/// index at `path`, never holding more than one spoke block's inverted
/// factors in memory: peak preprocessing RSS is bounded by the graph,
/// the hub-side matrices, and the largest single block — independent of
/// the total index size.
///
/// The output is byte-for-byte identical to
/// `Bear::new(g, config)?.save_v3(path)`: per-block factorization and
/// inversion follow the exact code path of [`BlockDiagLu::factor`], the
/// Schur complement is accumulated in the global kernel's visitation
/// order (see `SchurAccumulator`), and the drop tolerance filters per
/// entry so filtering each block equals slicing the filtered whole.
///
/// `config.budget` bounds the *resident working set* (hub matrices plus
/// one block), not the total index written — that is the point of the
/// streamed path. `config.threads` parallelizes only the hub-side
/// kernels; the per-block pipeline is sequential so at most one block
/// is alive at a time.
pub fn preprocess_to_disk(g: &Graph, config: &BearConfig, path: &Path) -> Result<()> {
    config.validate()?;
    let n = g.num_nodes();
    let threads = config.effective_threads();
    let xi = config.drop_tolerance;

    // Lines 1–4: same front as `preprocess_to_schur`.
    let h = build_h(g, &config.rwr)?;
    let mut sb_config = match config.slashburn_k {
        Some(k) => SlashBurnConfig::with_k(k),
        None => SlashBurnConfig::paper_default(n),
    };
    sb_config.sort_blocks_by_degree = config.sort_blocks_by_degree;
    let ordering = slashburn(g, &sb_config)?;
    let (n1, n2) = (ordering.n_spokes, ordering.n_hubs);
    let h = ordering.perm.permute_symmetric(&h)?;
    let h11 = h.submatrix(0, n1, 0, n1)?;
    let mut h12 = h.submatrix(0, n1, n1, n)?;
    let mut h21 = h.submatrix(n1, n, 0, n1)?;
    let h22 = h.submatrix(n1, n, n1, n)?;
    drop(h);
    config.budget.check(h12.memory_bytes() + h21.memory_bytes())?;

    // Same block-layout validation as `BlockDiagLu::factor`: an entry
    // outside the claimed diagonal blocks would be silently dropped by
    // the per-block submatrix slicing and corrupt the factors.
    let total: usize = ordering.block_sizes.iter().sum();
    if total != n1 {
        return Err(Error::InvalidStructure(format!("block sizes sum to {total}, expected {n1}")));
    }
    let mut block_of = vec![0usize; n1];
    let mut off = 0usize;
    for (bid, &sz) in ordering.block_sizes.iter().enumerate() {
        block_of[off..off + sz].fill(bid);
        off += sz;
    }
    for (r, c, _) in h11.iter() {
        if block_of[r] != block_of[c] {
            return Err(Error::InvalidStructure(format!(
                "entry ({r}, {c}) crosses block boundary"
            )));
        }
    }

    // Lines 5–6, fused per block: factor, invert, fold the block's Schur
    // contribution (undropped factors — `Bear::new` sparsifies only
    // after the Schur complement is formed), sparsify, stream the
    // segment out, free the block.
    let mut writer = V3StreamWriter::create(path)?;
    let mut schur = SchurAccumulator::new(n2);
    let mut off = 0usize;
    for &sz in &ordering.block_sizes {
        let sub = h11.submatrix(off, off + sz, off, off + sz)?;
        let lu = SparseLu::factor(&sub.to_csc())?;
        let (l1b, u1b) = lu.invert_factors()?;
        let h12b = h12.submatrix(off, off + sz, 0, n2)?;
        let r1b = ops::spgemm(&l1b.to_csr(), &h12b)?;
        let r2b = ops::spgemm(&u1b.to_csr(), &r1b)?;
        schur.scatter_block(&h21, off, off + sz, &r2b)?;
        let (l1b, u1b) = if xi > 0.0 {
            (drop_tolerance_csc(&l1b, xi), drop_tolerance_csc(&u1b, xi))
        } else {
            (l1b, u1b)
        };
        config.budget.check(
            h12.memory_bytes() + h21.memory_bytes() + l1b.memory_bytes() + u1b.memory_bytes(),
        )?;
        writer.write_segment(&FactorPair::new(l1b, u1b)?)?;
        off += sz;
    }
    let r3 = schur.finish();
    let mut s = ops::sub(&h22, &r3)?;

    // Line 7: reorder hubs ascending by degree within S.
    let hub_perm =
        if config.reorder_hubs { hub_degree_ordering(&s) } else { Permutation::identity(n2) };
    s = hub_perm.permute_symmetric(&s)?;
    h12 = hub_perm.permute_cols(&h12)?;
    h21 = hub_perm.permute_rows(&h21)?;
    let mut full_forward: Vec<usize> = (0..n).collect();
    for new_hub in 0..n2 {
        full_forward[n1 + new_hub] = n1 + hub_perm.old_of(new_hub);
    }
    let hub_lift = Permutation::from_new_to_old(full_forward)?;
    let perm = hub_lift.compose(&ordering.perm)?;

    // Line 8: LU of S and inverted factors.
    let s_lu = SparseLu::factor(&s.to_csc())?;
    let l2_inv = par_invert_triangular(s_lu.l(), Triangle::Lower, true, threads)?;
    let u2_inv = par_invert_triangular(s_lu.u(), Triangle::Upper, false, threads)?;

    // Line 9 for the resident matrices (the segments are already
    // sparsified per block above).
    let (l2_inv, u2_inv, h12, h21) = if xi > 0.0 {
        (
            par_drop_tolerance_csc(&l2_inv, xi, threads)?,
            par_drop_tolerance_csc(&u2_inv, xi, threads)?,
            par_drop_tolerance_csr(&h12, xi, threads)?,
            par_drop_tolerance_csr(&h21, xi, threads)?,
        )
    } else {
        (l2_inv, u2_inv, h12, h21)
    };
    config.budget.check(
        l2_inv.memory_bytes() + u2_inv.memory_bytes() + h12.memory_bytes() + h21.memory_bytes(),
    )?;

    let degrees = g.undirected_degrees();
    writer.finish(&ResidentParts {
        n1,
        n2,
        c: config.rwr.c,
        perm: &perm,
        block_sizes: &ordering.block_sizes,
        degrees: &degrees,
        l2_inv: &l2_inv,
        u2_inv: &u2_inv,
        h12: &h12,
        h21: &h21,
    })
}

/// A preprocessed BEAR solver (output of Algorithm 1), ready to answer
/// queries via block elimination (Algorithm 2).
#[derive(Debug, Clone)]
pub struct Bear {
    /// `L₁⁻¹`/`U₁⁻¹` — inverted factors of `H₁₁` (block diagonal),
    /// either fully resident or paged per block from a v3 index
    /// (see `crate::paging`).
    pub(crate) spokes: SpokeFactors,
    /// `L₂⁻¹` — inverse of the unit-lower factor of the Schur complement.
    pub(crate) l2_inv: CscMatrix,
    /// `U₂⁻¹` — inverse of the upper factor of the Schur complement.
    pub(crate) u2_inv: CscMatrix,
    /// `H₁₂` — spoke → hub block of the reordered `H`.
    pub(crate) h12: CsrMatrix,
    /// `H₂₁` — hub → spoke block of the reordered `H`.
    pub(crate) h21: CsrMatrix,
    /// Full node ordering (reordered position → original node).
    pub(crate) perm: Permutation,
    /// Number of spokes (`n₁`).
    pub(crate) n1: usize,
    /// Number of hubs (`n₂`).
    pub(crate) n2: usize,
    /// Restart probability.
    pub(crate) c: f64,
    /// Sizes of the diagonal blocks of `H₁₁`.
    pub(crate) block_sizes: Vec<usize>,
    /// Undirected degree of every node (used by the effective-importance
    /// variant).
    pub(crate) degrees: Vec<usize>,
    /// Per-stage preprocessing timings (zeros for a loaded index).
    pub(crate) timings: StageTimings,
    /// Lazily computed per-block norm tables for the pruned top-k path
    /// (never persisted; rebuilt on first pruned query).
    pub(crate) topk_bounds: std::sync::OnceLock<crate::topk_pruned::TopKBounds>,
}

impl Bear {
    /// Runs Algorithm 1 on `g`.
    pub fn new(g: &Graph, config: &BearConfig) -> Result<Self> {
        let start = Instant::now();
        let parts = preprocess_to_schur(g, config)?;
        let mut timings = parts.timings;
        let threads = config.effective_threads();

        // Line 8: LU of S and inverted factors. The factorization is
        // inherently sequential (each column depends on the previous
        // ones); the inversion is one independent solve per column and
        // splits across the workers.
        let stage = Instant::now();
        let s_lu = SparseLu::factor(&parts.s.to_csc())?;
        timings.factor_schur = stage.elapsed();
        let stage = Instant::now();
        let l2_inv = par_invert_triangular(s_lu.l(), Triangle::Lower, true, threads)?;
        let u2_inv = par_invert_triangular(s_lu.u(), Triangle::Upper, false, threads)?;
        timings.invert_schur = stage.elapsed();

        // Line 9: drop tolerance (BEAR-Approx only); each of the six
        // matrices is filtered in parallel row/column ranges.
        let stage = Instant::now();
        let xi = config.drop_tolerance;
        let (l1_inv, u1_inv, l2_inv, u2_inv, h12, h21) = if xi > 0.0 {
            (
                par_drop_tolerance_csc(&parts.l1_inv, xi, threads)?,
                par_drop_tolerance_csc(&parts.u1_inv, xi, threads)?,
                par_drop_tolerance_csc(&l2_inv, xi, threads)?,
                par_drop_tolerance_csc(&u2_inv, xi, threads)?,
                par_drop_tolerance_csr(&parts.h12, xi, threads)?,
                par_drop_tolerance_csr(&parts.h21, xi, threads)?,
            )
        } else {
            (parts.l1_inv, parts.u1_inv, l2_inv, u2_inv, parts.h12, parts.h21)
        };
        timings.sparsify = stage.elapsed();
        timings.total = start.elapsed();

        let total_bytes = l1_inv.memory_bytes()
            + u1_inv.memory_bytes()
            + l2_inv.memory_bytes()
            + u2_inv.memory_bytes()
            + h12.memory_bytes()
            + h21.memory_bytes();
        config.budget.check(total_bytes)?;

        Ok(Bear {
            spokes: SpokeFactors::Resident { l1_inv, u1_inv },
            l2_inv,
            u2_inv,
            h12,
            h21,
            perm: parts.perm,
            n1: parts.n1,
            n2: parts.n2,
            c: config.rwr.c,
            block_sizes: parts.block_sizes,
            degrees: parts.degrees,
            timings,
            topk_bounds: std::sync::OnceLock::new(),
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n1 + self.n2
    }

    /// Number of spokes (`n₁`).
    pub fn n_spokes(&self) -> usize {
        self.n1
    }

    /// Number of hubs (`n₂`).
    pub fn n_hubs(&self) -> usize {
        self.n2
    }

    /// Restart probability.
    pub fn restart_probability(&self) -> f64 {
        self.c
    }

    /// Sizes of the diagonal blocks of `H₁₁`.
    pub fn block_sizes(&self) -> &[usize] {
        &self.block_sizes
    }

    /// The node ordering used internally (new position → original node).
    pub fn ordering(&self) -> &Permutation {
        &self.perm
    }

    /// Per-stage preprocessing wall-clock timings. All zeros for an index
    /// loaded from disk (the work happened in another process).
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// The block pager backing the spoke factors, when this index was
    /// loaded out-of-core (v3, [`crate::LoadOptions::resident`] false). `None`
    /// for fully resident indexes. Use it to re-cap the resident set
    /// ([`crate::BlockPager::set_budget`]) or read paging counters
    /// ([`crate::BlockPager::stats`]).
    pub fn pager(&self) -> Option<&crate::BlockPager> {
        self.spokes.pager()
    }

    /// Per-matrix nonzero counts and byte sizes of the precomputed data
    /// (the paper's Table 4 columns).
    pub fn stats(&self) -> PrecomputedStats {
        let (nnz_l1_inv, nnz_u1_inv) = self.spokes.nnz();
        PrecomputedStats {
            n: self.num_nodes(),
            n1: self.n1,
            n2: self.n2,
            num_blocks: self.block_sizes.len(),
            sum_block_sq: self.block_sizes.iter().map(|&b| (b as u128) * (b as u128)).sum(),
            nnz_l1_inv,
            nnz_u1_inv,
            nnz_l2_inv: self.l2_inv.nnz(),
            nnz_u2_inv: self.u2_inv.nnz(),
            nnz_h12: self.h12.nnz(),
            nnz_h21: self.h21.nnz(),
            bytes: self.spokes.memory_bytes()
                + self.l2_inv.memory_bytes()
                + self.u2_inv.memory_bytes()
                + self.h12.memory_bytes()
                + self.h21.memory_bytes(),
            timings: self.timings,
        }
    }
}

/// Ascending-degree ordering of the hubs within `S`: degree of hub `i` is
/// the number of off-diagonal nonzeros in row `i` plus column `i` of `S`.
fn hub_degree_ordering(s: &CsrMatrix) -> Permutation {
    let n2 = s.nrows();
    let mut degree = vec![0usize; n2];
    for (r, c, _) in s.iter() {
        if r != c {
            degree[r] += 1;
            degree[c] += 1;
        }
    }
    let mut order: Vec<usize> = (0..n2).collect();
    order.sort_unstable_by_key(|&i| (degree[i], i));
    Permutation::from_new_to_old(order).expect("ordering is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::RwrSolver;

    fn star_graph() -> Graph {
        let mut edges = Vec::new();
        for v in 1..8 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        Graph::from_edges(8, &edges).unwrap()
    }

    #[test]
    fn preprocessing_splits_spokes_and_hubs() {
        let g = star_graph();
        let bear = Bear::new(&g, &BearConfig::default()).unwrap();
        assert_eq!(bear.num_nodes(), 8);
        // SlashBurn with k = 1: center 0 plus the final singleton GCC.
        assert_eq!(bear.n_hubs(), 2);
        assert_eq!(bear.n_spokes(), 6);
        assert_eq!(bear.block_sizes().iter().sum::<usize>(), 6);
    }

    #[test]
    fn stats_report_all_matrices() {
        let g = star_graph();
        let bear = Bear::new(&g, &BearConfig::default()).unwrap();
        let st = bear.stats();
        assert_eq!(st.n, 8);
        assert!(st.bytes > 0);
        assert!(st.nnz_l1_inv >= 6); // at least the unit diagonal
        assert_eq!(st.sum_block_sq, 6);
    }

    #[test]
    fn budget_violation_reported() {
        let g = star_graph();
        let config = BearConfig {
            budget: MemBudget::bytes(8), // absurdly small
            ..BearConfig::default()
        };
        assert!(matches!(Bear::new(&g, &config), Err(bear_sparse::Error::OutOfBudget { .. })));
    }

    #[test]
    fn invalid_c_rejected() {
        let g = star_graph();
        assert!(Bear::new(&g, &BearConfig::exact(0.0)).is_err());
        assert!(Bear::new(&g, &BearConfig::exact(1.0)).is_err());
    }

    #[test]
    fn drop_tolerance_shrinks_matrices() {
        let g = bear_graph::generators::hub_and_spoke(
            &bear_graph::generators::HubSpokeConfig {
                num_hubs: 4,
                num_caves: 20,
                max_cave_size: 5,
                cave_density: 0.4,
                hub_links: 2,
                hub_density: 0.6,
            },
            &mut rand_rng(3),
        );
        let exact = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let approx = Bear::new(&g, &BearConfig::approx(0.05, 0.01)).unwrap();
        assert!(approx.stats().bytes <= exact.stats().bytes);
        assert!(approx.memory_bytes() <= exact.memory_bytes());
    }

    fn rand_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// The streamed out-of-core preprocessing path must write the exact
    /// bytes `Bear::new` + `save_v3` would: per-block factorization,
    /// the block-streamed Schur complement, and per-block sparsification
    /// are all proven bit-identical to the in-memory pipeline by
    /// comparing the finished images directly.
    #[test]
    fn streamed_preprocessing_writes_identical_v3_bytes() {
        let g = bear_graph::generators::hub_and_spoke(
            &bear_graph::generators::HubSpokeConfig {
                num_hubs: 5,
                num_caves: 25,
                max_cave_size: 6,
                cave_density: 0.5,
                hub_links: 2,
                hub_density: 0.5,
            },
            &mut rand_rng(17),
        );
        for (tag, xi) in [("exact", 0.0), ("approx", 1e-3)] {
            let cfg =
                if xi == 0.0 { BearConfig::exact(0.12) } else { BearConfig::approx(0.12, xi) };
            let a = std::env::temp_dir().join(format!("bear_stream_{tag}_mem.idx"));
            let b = std::env::temp_dir().join(format!("bear_stream_{tag}_disk.idx"));
            Bear::new(&g, &cfg).unwrap().save_v3(&a).unwrap();
            preprocess_to_disk(&g, &cfg, &b).unwrap();
            let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
            std::fs::remove_file(&a).ok();
            std::fs::remove_file(&b).ok();
            assert_eq!(ba, bb, "{tag}: streamed image differs from the in-memory one");
        }
    }

    /// The streamed path must work under a budget far below the total
    /// index size (that is its purpose), and the result must load and
    /// answer queries.
    #[test]
    fn streamed_preprocessing_loads_and_answers() {
        let g = star_graph();
        let cfg = BearConfig::exact(0.1);
        let path = std::env::temp_dir().join("bear_stream_roundtrip.idx");
        preprocess_to_disk(&g, &cfg, &path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let oracle = Bear::new(&g, &cfg).unwrap();
        for seed in 0..g.num_nodes() {
            assert_eq!(oracle.query(seed).unwrap(), loaded.query(seed).unwrap());
        }
    }

    #[test]
    fn parallel_preprocessing_matches_serial() {
        let g = bear_graph::generators::hub_and_spoke(
            &bear_graph::generators::HubSpokeConfig {
                num_hubs: 6,
                num_caves: 40,
                max_cave_size: 6,
                cave_density: 0.4,
                hub_links: 1,
                hub_density: 0.5,
            },
            &mut rand_rng(8),
        );
        let serial = Bear::new(&g, &BearConfig::default()).unwrap();
        let parallel = Bear::new(&g, &BearConfig { threads: 4, ..BearConfig::default() }).unwrap();
        assert_eq!(serial.stats(), parallel.stats());
        for seed in [0, 7, 42] {
            assert_eq!(serial.query(seed).unwrap(), parallel.query(seed).unwrap());
        }
    }

    /// Exact per-matrix comparison of every precomputed structure. Used by
    /// [`parallel_preprocessing_is_bit_identical`]; a failure names the
    /// first matrix that diverged.
    fn assert_bear_bit_identical(a: &Bear, b: &Bear) {
        assert_eq!(a.perm.as_new_to_old(), b.perm.as_new_to_old(), "permutation diverged");
        assert_eq!(a.block_sizes, b.block_sizes, "block sizes diverged");
        assert_eq!((a.n1, a.n2), (b.n1, b.n2), "spoke/hub split diverged");
        let (a_l1, a_u1) = a.spokes.to_whole().unwrap();
        let (b_l1, b_u1) = b.spokes.to_whole().unwrap();
        assert_eq!(a_l1, b_l1, "L1_inv diverged");
        assert_eq!(a_u1, b_u1, "U1_inv diverged");
        assert_eq!(a.l2_inv, b.l2_inv, "L2_inv diverged");
        assert_eq!(a.u2_inv, b.u2_inv, "U2_inv diverged");
        assert_eq!(a.h12, b.h12, "H12 diverged");
        assert_eq!(a.h21, b.h21, "H21 diverged");
    }

    /// The determinism guarantee of the parallel preprocessing path:
    /// `Bear::new` is *bit-identical* — exact `==` on all six matrices and
    /// the permutation — for `threads = 1` vs `threads ∈ {2, 4, 8}`, both
    /// exact and with drop-tolerance sparsification. `BEAR_TEST_THREADS`
    /// adds an extra thread count so the CI matrix exercises others.
    #[test]
    fn parallel_preprocessing_is_bit_identical() {
        let g = bear_graph::generators::hub_and_spoke(
            &bear_graph::generators::HubSpokeConfig {
                num_hubs: 5,
                num_caves: 30,
                max_cave_size: 7,
                cave_density: 0.5,
                hub_links: 2,
                hub_density: 0.5,
            },
            &mut rand_rng(21),
        );
        let mut thread_counts = vec![2usize, 4, 8];
        if let Ok(extra) = std::env::var("BEAR_TEST_THREADS") {
            if let Ok(n) = extra.trim().parse::<usize>() {
                if n > 1 && !thread_counts.contains(&n) {
                    thread_counts.push(n);
                }
            }
        }
        for xi in [0.0, 1e-3] {
            let base = BearConfig { drop_tolerance: xi, ..BearConfig::default() };
            let serial = Bear::new(&g, &BearConfig { threads: 1, ..base }).unwrap();
            for &threads in &thread_counts {
                let parallel = Bear::new(&g, &BearConfig { threads, ..base }).unwrap();
                assert_bear_bit_identical(&serial, &parallel);
            }
        }
    }

    #[test]
    fn non_finite_or_negative_drop_tolerance_rejected() {
        let g = star_graph();
        for xi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let config = BearConfig { drop_tolerance: xi, ..BearConfig::default() };
            let err = Bear::new(&g, &config).unwrap_err();
            assert!(
                matches!(err, bear_sparse::Error::InvalidConfig { param: "drop_tolerance", .. }),
                "xi = {xi}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_available() {
        assert!(BearConfig { threads: 0, ..BearConfig::default() }.effective_threads() >= 1);
        assert_eq!(BearConfig { threads: 3, ..BearConfig::default() }.effective_threads(), 3);
    }
}
