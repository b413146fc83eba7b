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

use crate::paging::{runs, FactorPair, SpokeFactors, UnitBuilder};
use crate::persist::{IndexWriter, ResidentParts};
use crate::rwr::{build_h, RwrConfig};
use crate::stats::{PrecomputedStats, StageTimings};
use bear_graph::{slashburn, Graph, SlashBurnConfig};
use bear_sparse::lu::validate_block_layout;
use bear_sparse::mem::{MemBudget, MemoryUsage};
use bear_sparse::parallel::{par_invert_triangular, par_spgemm, run_by_cost};
use bear_sparse::solvers::SolveOptions;
use bear_sparse::sparsify::{drop_tolerance_csc, par_drop_tolerance_csc, par_drop_tolerance_csr};
use bear_sparse::triangular::Triangle;
use bear_sparse::{ops, CscMatrix, CsrMatrix, Error, Permutation, Result, SparseLu};
use std::path::Path;
use std::time::{Duration, Instant};

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

/// Rows of `H₁₁` per run of the block stage (see [`reduce_to_schur`]):
/// enough blocks per run to keep the workers busy and to fold the Schur
/// complement rarely, few enough that one run's factors stay small.
pub(crate) const RUN_ROWS: usize = 4096;

/// Receives the spoke factors as units (see [`UnitBuilder`]), in block
/// order, from [`reduce_to_schur`].
pub(crate) trait SpokeSink {
    /// Takes the next unit and returns the bytes of spoke factors the
    /// sink holds in memory afterwards; the caller charges them, with
    /// `H₁₂`, `H₂₁` and the unit being grouped, against the budget.
    fn push(&mut self, unit: FactorPair) -> Result<usize>;
}

/// The in-memory sink: keeps every unit.
#[derive(Debug, Default)]
struct ResidentSpokes {
    units: Vec<FactorPair>,
    bytes: usize,
}

impl SpokeSink for ResidentSpokes {
    fn push(&mut self, unit: FactorPair) -> Result<usize> {
        self.bytes += unit.l1.memory_bytes() + unit.u1.memory_bytes();
        self.units.push(unit);
        Ok(self.bytes)
    }
}

/// The streamed sink: each unit becomes one shard on disk and is
/// dropped.
impl SpokeSink for IndexWriter {
    fn push(&mut self, unit: FactorPair) -> Result<usize> {
        self.write_shard(&unit)?;
        Ok(0)
    }
}

/// One diagonal block of `H₁₁` after [`block_stage`].
struct Block {
    /// `L₁⁻¹` of the block, entries below the spoke drop tolerance gone.
    l1: CscMatrix,
    /// `U₁⁻¹` of the block, likewise.
    u1: CscMatrix,
    /// The undropped `L₁⁻¹` by rows, for the Schur product.
    l1_rows: CsrMatrix,
    /// The undropped `U₁⁻¹` by rows, likewise.
    u1_rows: CsrMatrix,
    /// Time spent factoring, inverting (with the row copies) and
    /// sparsifying.
    spent: [Duration; 3],
}

/// Algorithm 1 lines 5 and 9 for the diagonal block of `size` rows from
/// `off`: factor it, invert its factors, copy them by rows for the Schur
/// product, then drop entries below `spoke_xi`. One worker does all of
/// it while the block is in cache.
fn block_stage(h11: &CsrMatrix, off: usize, size: usize, spoke_xi: f64) -> Result<Block> {
    let end = off + size;
    let t0 = Instant::now();
    let lu = SparseLu::factor(&h11.submatrix(off, end, off, end)?.to_csc())?;
    let t1 = Instant::now();
    let (l1, u1) = lu.invert_factors()?;
    let (l1_rows, u1_rows) = (l1.to_csr(), u1.to_csr());
    let t2 = Instant::now();
    let (l1, u1) = if spoke_xi > 0.0 {
        (drop_tolerance_csc(&l1, spoke_xi), drop_tolerance_csc(&u1, spoke_xi))
    } else {
        (l1, u1)
    };
    Ok(Block { l1, u1, l1_rows, u1_rows, spent: [t1 - t0, t2 - t1, t2.elapsed()] })
}

/// Algorithm 1 up to the Schur complement: everything
/// [`reduce_to_schur`] leaves besides the spoke factors it sent to its
/// sink. [`factor_schur`] takes it through lines 8–9.
#[derive(Debug)]
pub(crate) struct Reduced {
    /// The Schur complement, hubs reordered (line 7).
    pub(crate) s: CsrMatrix,
    pub(crate) h12: CsrMatrix,
    pub(crate) h21: CsrMatrix,
    /// Full ordering: the hub reorder on top of SlashBurn's.
    pub(crate) perm: Permutation,
    pub(crate) n1: usize,
    pub(crate) n2: usize,
    pub(crate) block_sizes: Vec<usize>,
    /// Stage timings for lines 1–7 and the spoke half of line 9.
    pub(crate) timings: StageTimings,
}

/// Runs Algorithm 1 lines 1–7: build `H`, SlashBurn-reorder, partition,
/// factor and invert `H₁₁` block by block, form the Schur complement,
/// and reorder the hubs. Stops before factoring `S`.
///
/// Lemma 1 makes lines 5–6 a per-block job, so the spoke blocks go
/// through in runs of consecutive blocks (see [`runs`]). Per run, the
/// blocks go through [`block_stage`] on `config.effective_threads()`
/// workers, largest first; the run's rows of `U₁⁻¹L₁⁻¹H₁₂` come from
/// one pair of SpGEMMs and are folded into `S` (see
/// [`SchurAccumulator`]); then each block's factors are grouped into
/// units, and each finished unit goes to `sink`. Only one run's blocks
/// and one open unit are alive at a time beyond what the sink keeps, and
/// the output is bit-identical for every thread count and run length.
pub(crate) fn reduce_to_schur(
    g: &Graph,
    config: &BearConfig,
    spoke_xi: f64,
    run_rows: usize,
    sink: &mut impl SpokeSink,
) -> Result<Reduced> {
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

    // Line 4: partition. An entry of H₁₁ outside its diagonal blocks
    // would be lost by the per-block slicing below.
    let stage = Instant::now();
    let h11 = h.submatrix(0, n1, 0, n1)?;
    let h12 = h.submatrix(0, n1, n1, n)?;
    let h21 = h.submatrix(n1, n, 0, n1)?;
    let h22 = h.submatrix(n1, n, n1, n)?;
    drop(h);
    let offsets = validate_block_layout(&h11, &ordering.block_sizes)?;
    let hub_bytes = h12.memory_bytes() + h21.memory_bytes();
    config.budget.check(hub_bytes)?;
    timings.partition = stage.elapsed();

    // Lines 5–6 (and line 9 for the spoke factors), one run at a time.
    let mut schur = SchurAccumulator::new(n2);
    let (mut units, mut held) = (UnitBuilder::default(), 0);
    for (blocks, rows) in runs(&ordering.block_sizes, run_rows) {
        let (sizes, starts) = (&ordering.block_sizes[blocks.clone()], &offsets[blocks]);
        let costs: Vec<u128> = sizes.iter().map(|&size| (size as u128).pow(2)).collect();
        let stage = Instant::now();
        let done = run_by_cost(&costs, threads, "precompute::block_stage", |b| {
            block_stage(&h11, starts[b], sizes[b], spoke_xi)
        })?;
        // The workers' time in each step splits the stage's wall time.
        let wall = stage.elapsed();
        let spent: [Duration; 3] =
            std::array::from_fn(|k| done.iter().map(|block| block.spent[k]).sum());
        let busy: Duration = spent.iter().sum();
        let steps = [&mut timings.factor_h11, &mut timings.invert_h11, &mut timings.sparsify];
        if !busy.is_zero() {
            for (step, t) in steps.into_iter().zip(spent) {
                *step += wall.mul_f64(t.as_secs_f64() / busy.as_secs_f64());
            }
        }

        // Line 6 for the run's rows: one pair of products, folded once.
        let stage = Instant::now();
        let l1 = ops::block_diag(done.iter().map(|block| &block.l1_rows))?;
        let r = par_spgemm(&l1, &h12.submatrix(rows.start, rows.end, 0, n2)?, threads)?;
        let u1 = ops::block_diag(done.iter().map(|block| &block.u1_rows))?;
        let r = par_spgemm(&u1, &r, threads)?;
        schur.scatter_run(&h21, rows.start, rows.end, &r)?;
        timings.schur += stage.elapsed();
        for block in done {
            if let Some(unit) = units.push(&block.l1, &block.u1)? {
                held = sink.push(unit)?;
            }
            config.budget.check(hub_bytes + held + units.memory_bytes())?;
        }
    }
    if let Some(unit) = units.take()? {
        config.budget.check(hub_bytes + sink.push(unit)?)?;
    }

    let stage = Instant::now();
    let mut s = ops::sub(&h22, &schur.finish())?;
    // Line 7: reorder hubs ascending by degree within S.
    let hub_perm =
        if config.reorder_hubs { hub_degree_ordering(&s) } else { Permutation::identity(n2) };
    s = hub_perm.permute_symmetric(&s)?;
    let h12 = hub_perm.permute_cols(&h12)?;
    let h21 = hub_perm.permute_rows(&h21)?;
    timings.schur += stage.elapsed();

    // Full ordering = hub reorder on top of the SlashBurn ordering.
    let mut full_forward: Vec<usize> = (0..n).collect();
    for new_hub in 0..n2 {
        full_forward[n1 + new_hub] = n1 + hub_perm.old_of(new_hub);
    }
    let hub_lift = Permutation::from_new_to_old(full_forward)?;
    let perm = hub_lift.compose(&ordering.perm)?;

    Ok(Reduced { s, h12, h21, perm, n1, n2, block_sizes: ordering.block_sizes, timings })
}

/// Algorithm 1 line 8 on the Schur complement `s`: its LU factors,
/// inverted into `(L₂⁻¹, U₂⁻¹)`, which are returned; line 9: entries
/// below ξ dropped from them and from `h12` and `h21`. Preprocessing
/// and [`crate::DynamicBear`]'s incremental refresh both run it.
pub(crate) fn factor_schur(
    s: &CsrMatrix,
    h12: &mut CsrMatrix,
    h21: &mut CsrMatrix,
    config: &BearConfig,
    timings: &mut StageTimings,
) -> Result<(CscMatrix, CscMatrix)> {
    let threads = config.effective_threads();

    // The factorization is inherently sequential (each column depends
    // on the previous ones); the inversion is one independent solve per
    // column and splits across the workers.
    let stage = Instant::now();
    let s_lu = SparseLu::factor(&s.to_csc())?;
    timings.factor_schur = stage.elapsed();
    let stage = Instant::now();
    let l2_inv = par_invert_triangular(s_lu.l(), Triangle::Lower, true, threads)?;
    let u2_inv = par_invert_triangular(s_lu.u(), Triangle::Upper, false, threads)?;
    timings.invert_schur = stage.elapsed();

    let xi = config.drop_tolerance;
    if xi == 0.0 {
        return Ok((l2_inv, u2_inv));
    }
    let stage = Instant::now();
    *h12 = par_drop_tolerance_csr(h12, xi, threads)?;
    *h21 = par_drop_tolerance_csr(h21, xi, threads)?;
    let l2_inv = par_drop_tolerance_csc(&l2_inv, xi, threads)?;
    let u2_inv = par_drop_tolerance_csc(&u2_inv, xi, threads)?;
    timings.sparsify += stage.elapsed();
    Ok((l2_inv, u2_inv))
}

/// Persistent per-row Gustavson accumulators for the Schur complement:
/// `r3 = H₂₁ · (U₁⁻¹ L₁⁻¹ H₁₂)` is assembled one run of spoke blocks at
/// a time while only that run's factors are in memory.
///
/// The global kernel ([`ops::spgemm`]) scatters, for each output row
/// `i`, the rows of `B` referenced by `H₂₁`'s row `i` in ascending
/// column order. Per-row state (accumulator, first-touch marks, touched
/// list, and a cursor into `H₂₁`'s row that advances monotonically
/// through the run ranges) replays exactly that (i, k) visitation order
/// across run boundaries, so the gathered matrix is bit-identical to the
/// one-shot product.
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

    /// Folds in the run of rows `[rs, re)`: `r2` holds the rows
    /// `[rs, re)` of `U₁⁻¹ L₁⁻¹ H₁₂` (run-local row indices).
    fn scatter_run(&mut self, h21: &CsrMatrix, rs: usize, re: usize, r2: &CsrMatrix) -> Result<()> {
        for i in 0..self.n2 {
            let (cols, vals) = h21.row(i);
            let base = i * self.n2;
            let cur = &mut self.cursor[i];
            while *cur < cols.len() && cols[*cur] < re {
                let k = cols[*cur];
                let aik = vals[*cur];
                *cur += 1;
                let kk = k.checked_sub(rs).ok_or_else(|| {
                    Error::InvalidStructure(format!(
                        "H21 column {k} revisited below run start {rs}"
                    ))
                })?;
                let (b_cols, b_vals) = r2.row(kk);
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

/// Runs Algorithm 1 and streams the result straight to an on-disk index
/// at `path`, never holding more than one run of spoke blocks' inverted
/// factors and one unit in memory: peak preprocessing RSS is bounded by
/// the graph, the hub-side matrices, the `n₂ × n₂` Schur accumulator and
/// one run — independent of the total index size.
///
/// The output is byte-for-byte identical to
/// `Bear::new(g, config)?.save(path)`: both run the same pipeline
/// (`reduce_to_schur`) and differ only in where the units go.
///
/// `config.budget` bounds the *resident working set* (hub matrices plus
/// the unit being grouped), not the total index written — that is the
/// point of the streamed path. `config.threads` parallelizes the block
/// stage of each run as well as the hub-side kernels.
pub fn preprocess_to_disk(g: &Graph, config: &BearConfig, path: &Path) -> Result<()> {
    preprocess_to_disk_in_runs(g, config, path, RUN_ROWS)
}

/// [`preprocess_to_disk`] with runs of `run_rows` rows.
fn preprocess_to_disk_in_runs(
    g: &Graph,
    config: &BearConfig,
    path: &Path,
    run_rows: usize,
) -> Result<()> {
    config.validate()?;
    let mut writer = IndexWriter::create(path)?;
    let Reduced { s, mut h12, mut h21, perm, n1, n2, block_sizes, mut timings } =
        reduce_to_schur(g, config, config.drop_tolerance, run_rows, &mut writer)?;
    let (l2_inv, u2_inv) = factor_schur(&s, &mut h12, &mut h21, config, &mut timings)?;
    config.budget.check(
        l2_inv.memory_bytes() + u2_inv.memory_bytes() + h12.memory_bytes() + h21.memory_bytes(),
    )?;
    writer.finish(&ResidentParts {
        n1,
        n2,
        c: config.rwr.c,
        perm: &perm,
        block_sizes: &block_sizes,
        degrees: &g.undirected_degrees(),
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
    /// `L₁⁻¹`/`U₁⁻¹` — inverted factors of `H₁₁` (block diagonal), one
    /// pair per unit, either resident or paged per unit from an index
    /// file (see `crate::paging`).
    pub(crate) spokes: SpokeFactors,
    /// How the hub system `S r₂ = c·(q₂ − H₂₁ U₁⁻¹ L₁⁻¹ q₁)` is solved.
    pub(crate) hub: HubSolve,
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

/// The two forms of the hub solve of Algorithm 2. [`Bear::hub_half`]
/// is the only query code that tells them apart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HubSolve {
    /// `L₂⁻¹`/`U₂⁻¹`, the inverted LU factors of the Schur complement
    /// (Algorithm 1 line 8): two sparse products per right-hand side.
    /// The only form the index writers accept.
    Inverted { l2_inv: CscMatrix, u2_inv: CscMatrix },
    /// The Schur complement `S` itself, solved one right-hand side at a
    /// time by BiCGSTAB with [`HUB_SOLVE_OPTIONS`]: `nnz(S)` in place of
    /// the inverted factors' fill, which approaches `n₂²` on hub-heavy
    /// graphs (Table 4), for more work per query (DESIGN.md §6).
    Iterative { s: CsrMatrix },
}

/// BiCGSTAB's options for [`HubSolve::Iterative`]. `S` inherits the
/// diagonal dominance of `H`, so it converges in a handful of
/// iterations; the tolerance keeps answers within 1e-7 of the inverted
/// form.
pub(crate) const HUB_SOLVE_OPTIONS: SolveOptions =
    SolveOptions { rel_tolerance: 1e-12, max_iterations: 10_000 };

impl HubSolve {
    /// Stored nonzeros: `(|L₂⁻¹|, |U₂⁻¹|)`, or `(|S|, 0)`.
    fn nnz(&self) -> (usize, usize) {
        match self {
            HubSolve::Inverted { l2_inv, u2_inv } => (l2_inv.nnz(), u2_inv.nnz()),
            HubSolve::Iterative { s } => (s.nnz(), 0),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            HubSolve::Inverted { l2_inv, u2_inv } => l2_inv.memory_bytes() + u2_inv.memory_bytes(),
            HubSolve::Iterative { s } => s.memory_bytes(),
        }
    }
}

impl Bear {
    /// Runs Algorithm 1 on `g`.
    pub fn new(g: &Graph, config: &BearConfig) -> Result<Self> {
        Self::new_in_runs(g, config, RUN_ROWS, false)
    }

    /// Runs Algorithm 1 on `g` up to the Schur complement (lines 1–7)
    /// and keeps `S` itself in place of its inverted factors: the
    /// memory-lean iterative hub form, the direction of the BePI
    /// follow-up work, named `BEAR-HubIter`. Only `S` is sparsified by
    /// `config.drop_tolerance`; the spoke factors, `H₁₂` and `H₂₁` stay
    /// exact. Every query path serves it, answers within 1e-7 of
    /// [`Bear::new`]'s, but [`Bear::save`] rejects it: the index format
    /// holds only the inverted factors.
    pub fn new_hub_iterative(g: &Graph, config: &BearConfig) -> Result<Self> {
        Self::new_in_runs(g, config, RUN_ROWS, true)
    }

    /// [`Bear::new`], or [`Bear::new_hub_iterative`] when `iterative`,
    /// with runs of `run_rows` rows.
    fn new_in_runs(
        g: &Graph,
        config: &BearConfig,
        run_rows: usize,
        iterative: bool,
    ) -> Result<Self> {
        let start = Instant::now();
        let mut spokes = ResidentSpokes::default();
        let spoke_xi = if iterative { 0.0 } else { config.drop_tolerance };
        let mut reduced = reduce_to_schur(g, config, spoke_xi, run_rows, &mut spokes)?;
        let hub = if iterative {
            let stage = Instant::now();
            let threads = config.effective_threads();
            let s = par_drop_tolerance_csr(&reduced.s, config.drop_tolerance, threads)?;
            reduced.timings.sparsify += stage.elapsed();
            HubSolve::Iterative { s }
        } else {
            let r = &mut reduced;
            let (l2_inv, u2_inv) =
                factor_schur(&r.s, &mut r.h12, &mut r.h21, config, &mut r.timings)?;
            HubSolve::Inverted { l2_inv, u2_inv }
        };
        reduced.timings.total = start.elapsed();
        let bear = Bear {
            spokes: SpokeFactors::resident(spokes.units, &reduced.block_sizes)?,
            hub,
            h12: reduced.h12,
            h21: reduced.h21,
            perm: reduced.perm,
            n1: reduced.n1,
            n2: reduced.n2,
            c: config.rwr.c,
            block_sizes: reduced.block_sizes,
            degrees: g.undirected_degrees(),
            timings: reduced.timings,
            topk_bounds: std::sync::OnceLock::new(),
        };
        config.budget.check(bear.stats().bytes)?;
        Ok(bear)
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
    /// loaded paged ([`crate::LoadOptions::resident`] false). `None` for
    /// resident indexes. Use it to re-cap the resident set
    /// ([`crate::BlockPager::set_budget`]) or read paging counters
    /// ([`crate::BlockPager::stats`]).
    pub fn pager(&self) -> Option<&crate::BlockPager> {
        self.spokes.pager()
    }

    /// Per-matrix nonzero counts and byte sizes of the precomputed data
    /// (the paper's Table 4 columns).
    pub fn stats(&self) -> PrecomputedStats {
        let (nnz_l1_inv, nnz_u1_inv) = self.spokes.nnz();
        let (nnz_l2_inv, nnz_u2_inv) = self.hub.nnz();
        PrecomputedStats {
            n: self.num_nodes(),
            n1: self.n1,
            n2: self.n2,
            num_blocks: self.block_sizes.len(),
            sum_block_sq: self.block_sizes.iter().map(|&b| (b as u128) * (b as u128)).sum(),
            nnz_l1_inv,
            nnz_u1_inv,
            nnz_l2_inv,
            nnz_u2_inv,
            nnz_h12: self.h12.nnz(),
            nnz_h21: self.h21.nnz(),
            bytes: self.spokes.memory_bytes()
                + self.hub.memory_bytes()
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
    /// bytes `Bear::new` + `save` would: per-block factorization,
    /// the block-streamed Schur complement, and per-block sparsification
    /// are all proven bit-identical to the in-memory pipeline by
    /// comparing the finished images directly.
    #[test]
    fn streamed_preprocessing_writes_identical_bytes() {
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
            Bear::new(&g, &cfg).unwrap().save(&a).unwrap();
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
        assert_eq!(a.spokes.num_units(), b.spokes.num_units(), "units diverged");
        for u in 0..a.spokes.num_units() {
            let (x, y) = (a.spokes.unit(u).unwrap(), b.spokes.unit(u).unwrap());
            assert_eq!(x.l1, y.l1, "L1_inv diverged in unit {u}");
            assert_eq!(x.u1, y.u1, "U1_inv diverged in unit {u}");
            assert_eq!(x.blocks(), y.blocks(), "unit {u} diverged");
        }
        assert_eq!(a.hub, b.hub, "L2_inv or U2_inv diverged");
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

    /// `runs` covers every block once, in order, and cuts a run before
    /// it would pass the row target unless the run holds one block.
    #[test]
    fn runs_cover_the_blocks_in_order() {
        let sizes = [3, 1, 1, 5, 2, 2, 1];
        let cut = |target| runs(&sizes, target).collect::<Vec<_>>();
        let starts = [0, 3, 4, 5, 10, 12, 14, 15];
        let singles: Vec<_> = (0..7).map(|b| (b..b + 1, starts[b]..starts[b + 1])).collect();
        assert_eq!(cut(1), singles);
        assert_eq!(
            cut(3),
            vec![(0..1, 0..3), (1..3, 3..5), (3..4, 5..10), (4..5, 10..12), (5..7, 12..15)]
        );
        assert_eq!(cut(5), vec![(0..3, 0..5), (3..4, 5..10), (4..7, 10..15)]);
        assert_eq!(cut(RUN_ROWS), vec![(0..7, 0..15)]);
        assert_eq!(runs(&[], 4).count(), 0);
    }

    /// The corpus of the golden-bits suite (`tests/common/mod.rs`): a
    /// seeded hub-and-spoke graph, a small R-MAT graph and a hand-built
    /// graph with dangling nodes and self-loops. Each is smaller than one
    /// default run.
    fn golden_corpus() -> Vec<Graph> {
        let hub_spoke = bear_graph::generators::hub_and_spoke(
            &bear_graph::generators::HubSpokeConfig {
                num_hubs: 5,
                num_caves: 24,
                max_cave_size: 8,
                cave_density: 0.4,
                hub_links: 2,
                hub_density: 0.5,
            },
            &mut rand_rng(16),
        );
        let rmat = bear_graph::generators::rmat(
            &bear_graph::generators::RmatConfig::paper(8, 1_200, 0.6),
            &mut rand_rng(16),
        );
        let mut edges = vec![(0, 1), (1, 2), (2, 0), (1, 0)];
        for cave in 0..8 {
            let base = 3 + 8 * cave;
            for u in base..base + 7 {
                edges.push((u, u + 1));
                edges.push((u + 1, u - usize::from(u > base)));
            }
            edges.push((base, cave % 3));
            edges.push((cave % 3, base));
        }
        edges.extend((0..67).step_by(3).map(|u| (u, u)));
        vec![hub_spoke, rmat, Graph::from_edges(67, &edges).unwrap()]
    }

    /// One hub and `chains` undirected chains of `len` nodes hanging off
    /// it: many small spoke blocks.
    fn hub_and_chains(chains: usize, len: usize) -> Graph {
        let mut edges = Vec::new();
        for ch in 0..chains {
            let first = 1 + ch * len;
            edges.push((0, first));
            edges.extend((first..first + len - 1).map(|i| (i, i + 1)));
        }
        let sym: Vec<(usize, usize)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        Graph::from_edges(1 + chains * len, &sym).unwrap()
    }

    /// 1, 2, 4 and `BEAR_TEST_THREADS`.
    fn test_threads() -> Vec<usize> {
        let mut threads = vec![1usize, 2, 4];
        let extra = std::env::var("BEAR_TEST_THREADS").ok().and_then(|v| v.trim().parse().ok());
        if let Some(n) = extra.filter(|n| *n >= 1 && !threads.contains(n)) {
            threads.push(n);
        }
        threads
    }

    /// Where one run ends and the next begins never shows in the index:
    /// the images of `Bear::new` + `save` and of `preprocess_to_disk` are
    /// byte-identical to each other and to themselves for runs of 1, 2
    /// and 3 rows and the default, at every thread count, exact and with
    /// a drop tolerance. Every corpus graph fits in one default run, so
    /// the short runs are what put Schur folds, block stages and unit
    /// boundaries on both sides of a run boundary.
    #[test]
    fn run_boundaries_leave_the_images_unchanged() {
        let mut graphs = golden_corpus();
        graphs.push(hub_and_chains(48, 30));
        let scratch = |label: &str| {
            std::env::temp_dir().join(format!("bear_runs_{}_{label}.idx", std::process::id()))
        };
        let (saved, streamed) = (scratch("saved"), scratch("streamed"));
        for (gi, g) in graphs.iter().enumerate() {
            for base in [BearConfig::exact(0.05), BearConfig::approx(0.05, 2e-2)] {
                let mut want: Option<Vec<u8>> = None;
                for run_rows in [RUN_ROWS, 1, 2, 3] {
                    for &threads in &test_threads() {
                        let cfg = BearConfig { threads, ..base };
                        Bear::new_in_runs(g, &cfg, run_rows, false).unwrap().save(&saved).unwrap();
                        preprocess_to_disk_in_runs(g, &cfg, &streamed, run_rows).unwrap();
                        let got = std::fs::read(&saved).unwrap();
                        let want = want.get_or_insert_with(|| got.clone());
                        let at = format!(
                            "graph {gi}, xi {}, runs of {run_rows} rows, {threads} threads",
                            base.drop_tolerance
                        );
                        assert!(got == *want, "saved image differs: {at}");
                        assert!(std::fs::read(&streamed).unwrap() == *want, "streamed: {at}");
                    }
                }
            }
        }
        std::fs::remove_file(&saved).ok();
        std::fs::remove_file(&streamed).ok();
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
