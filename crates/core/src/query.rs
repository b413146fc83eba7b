//! BEAR query phase (Algorithm 2): block elimination.
//!
//! Given the precomputed matrices, a query is two sparse sweeps
//! (Equation 6):
//!
//! ```text
//! r₂ = c · U₂⁻¹ ( L₂⁻¹ ( q₂ − H₂₁ ( U₁⁻¹ ( L₁⁻¹ q₁ ) ) ) )
//! r₁ = U₁⁻¹ ( L₁⁻¹ ( c·q₁ − H₁₂ r₂ ) )
//! ```
//!
//! with every product a sparse matrix–vector multiplication, giving the
//! paper's query complexity `O(Σ n₁ᵢ² + n₂² + min(n₁n₂, m))` (Theorem 3).

use crate::engine::QueryWorkspace;
use crate::precompute::Bear;
use crate::rwr::validate_distribution;
use crate::solver::RwrSolver;
use bear_sparse::mem::MemoryUsage;
use bear_sparse::{CscMatrix, DenseBlock, Error, Result};

impl Bear {
    /// RWR scores of every node w.r.t. `seed` (Algorithm 2).
    pub fn query(&self, seed: usize) -> Result<Vec<f64>> {
        let mut ws = QueryWorkspace::for_bear(self);
        let mut out = vec![0.0; self.num_nodes()];
        self.query_into(seed, &mut ws, &mut out)?;
        Ok(out)
    }

    /// [`Bear::query`] into caller-owned buffers: the blocked solve at
    /// width 1. `ws` may come from any index; `out` must have length `n`.
    pub fn query_into(&self, seed: usize, ws: &mut QueryWorkspace, out: &mut [f64]) -> Result<()> {
        let n = self.num_nodes();
        if seed >= n {
            return Err(Error::IndexOutOfBounds { index: seed, bound: n });
        }
        if out.len() != n {
            return Err(Error::DimensionMismatch {
                op: "bear query",
                lhs: (n, 1),
                rhs: (n, out.len()),
            });
        }
        self.solve(Rhs::Seeds(&[seed]), ws, &mut [out])
    }

    /// Personalized PageRank for an arbitrary preference distribution
    /// (Section 3.4): the same block elimination with a general `q`.
    pub fn query_distribution(&self, q: &[f64]) -> Result<Vec<f64>> {
        let mut ws = QueryWorkspace::for_bear(self);
        let mut out = vec![0.0; self.num_nodes()];
        self.query_distribution_into(q, &mut ws, &mut out)?;
        Ok(out)
    }

    /// [`Bear::query_distribution`] into caller-owned buffers: the blocked
    /// solve at width 1 with `q` as its one column.
    pub fn query_distribution_into(
        &self,
        q: &[f64],
        ws: &mut QueryWorkspace,
        out: &mut [f64],
    ) -> Result<()> {
        let n = self.num_nodes();
        if q.len() != n || out.len() != n {
            return Err(Error::DimensionMismatch {
                op: "bear query",
                lhs: (n, 1),
                rhs: (q.len(), out.len()),
            });
        }
        validate_distribution(q)?;
        self.solve(Rhs::Distribution(q), ws, &mut [out])
    }

    /// Answers a block of seeds at once: column `j` of `out` receives the
    /// RWR scores for `seeds[j]`. Convenience wrapper over
    /// [`Bear::query_block_into`] that allocates its own workspace and
    /// returns one score vector per seed, in seed order.
    pub fn query_block(&self, seeds: &[usize]) -> Result<Vec<Vec<f64>>> {
        let mut ws = QueryWorkspace::for_bear(self);
        let mut out = DenseBlock::zeros(self.num_nodes(), seeds.len());
        self.query_block_into(seeds, &mut ws, &mut out)?;
        Ok(out.to_columns())
    }

    /// Answers all of `seeds` in one pass of Algorithm 2's two
    /// block-elimination sweeps, with every sparse matrix applied once
    /// per *block* instead of once per seed (the SpMM-over-SpMV
    /// amortization; see DESIGN.md §13). This is the only implementation
    /// of the sweeps; every other query form is a width-1 call of it, or
    /// (the serving engine) a call as wide as a request's distinct seeds.
    ///
    /// Column `j` of `out` is **bit-identical** to what
    /// `query_into(seeds[j], …)` writes — the interleaved kernels
    /// replicate the scalar accumulation order per seed — so the width
    /// is purely a throughput choice, never a numerics change. Duplicate
    /// seeds are allowed and produce duplicate columns.
    ///
    /// `out` must be `n × seeds.len()`; `ws` is resized in place to this
    /// index and the batch width (allocation-free when shrinking or at
    /// steady width).
    pub fn query_block_into(
        &self,
        seeds: &[usize],
        ws: &mut QueryWorkspace,
        out: &mut DenseBlock,
    ) -> Result<()> {
        let n = self.num_nodes();
        let k = seeds.len();
        if out.nrows() != n || out.ncols() != k {
            return Err(Error::DimensionMismatch {
                op: "bear query_block",
                lhs: (n, k),
                rhs: (out.nrows(), out.ncols()),
            });
        }
        if let Some(&bad) = seeds.iter().find(|&&s| s >= n) {
            return Err(Error::IndexOutOfBounds { index: bad, bound: n });
        }
        if k == 0 {
            return Ok(());
        }
        // lint:allow(L2, lists the k output columns, k pointers a call; no buffer of the solve)
        let mut columns: Vec<&mut [f64]> = out.columns_mut().collect();
        self.solve(Rhs::Seeds(seeds), ws, &mut columns)
    }

    /// Algorithm 2 on `rhs`: the hub half, then
    /// [`Bear::spoke_half_into`]. Seeds must be in range and a
    /// distribution of length `n`.
    pub(crate) fn solve(
        &self,
        rhs: Rhs<'_>,
        ws: &mut QueryWorkspace,
        outs: &mut [impl AsMut<[f64]>],
    ) -> Result<()> {
        self.hub_half(rhs, ws)?;
        self.spoke_half_into(rhs, ws, outs)
    }

    /// The rest of Algorithm 2 after [`Bear::hub_half`] on the same
    /// `rhs` and `ws`: the spoke half, then right-hand side `j` mapped
    /// back to the original node ids into `outs[j]` (each of length `n`;
    /// every entry is written). The workspace is read row by row, each
    /// row's `k` values going to the `k` outputs at the row's node.
    pub(crate) fn spoke_half_into(
        &self,
        rhs: Rhs<'_>,
        ws: &mut QueryWorkspace,
        outs: &mut [impl AsMut<[f64]>],
    ) -> Result<()> {
        self.spoke_half(rhs, ws)?;
        let (spokes, hubs) = self.perm.as_new_to_old().split_at(self.n1);
        for (block, olds) in [(&ws.x1, spokes), (&ws.r2, hubs)] {
            if let [out] = outs {
                // Width 1: the block is the answer vector, permuted.
                let out = out.as_mut();
                for (&v, &old) in block.iter().zip(olds) {
                    if let Some(slot) = out.get_mut(old) {
                        *slot = v;
                    }
                }
                continue;
            }
            for (row, &old) in block.chunks_exact(ws.k.max(1)).zip(olds) {
                for (out, &v) in outs.iter_mut().zip(row) {
                    if let Some(slot) = out.as_mut().get_mut(old) {
                        *slot = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads `rhs` into the workspace in the SlashBurn ordering, one
    /// right-hand side per lane: spoke part into `ws.x1`, hub part into
    /// `ws.q2`.
    fn load_rhs(&self, rhs: Rhs<'_>, ws: &mut QueryWorkspace) {
        ws.ensure_width(self, rhs.width());
        let k = ws.k;
        match rhs {
            Rhs::Seeds(seeds) => {
                ws.x1.fill(0.0);
                ws.q2.fill(0.0);
                for (j, &seed) in seeds.iter().enumerate() {
                    let new = self.perm.new_of(seed);
                    let slot = match new.checked_sub(self.n1) {
                        None => ws.x1.get_mut(new * k + j),
                        Some(hub) => ws.q2.get_mut(hub * k + j),
                    };
                    if let Some(slot) = slot {
                        *slot = 1.0;
                    }
                }
            }
            Rhs::Distribution(q) => {
                let (spokes, hubs) = self.perm.as_new_to_old().split_at(self.n1);
                for (block, olds) in [(&mut ws.x1, spokes), (&mut ws.q2, hubs)] {
                    for (slot, &old) in block.iter_mut().zip(olds) {
                        *slot = q.get(old).copied().unwrap_or(0.0);
                    }
                }
            }
        }
    }

    /// The hub half of Algorithm 2, one lane per right-hand side of
    /// `rhs`: `r₂ = c · U₂⁻¹ L₂⁻¹ (q₂ − H₂₁ U₁⁻¹ L₁⁻¹ q₁)` into `ws.r2`,
    /// leaving `U₁⁻¹ L₁⁻¹ q₁` in `ws.x1`. Pruned top-k runs it too, so
    /// its hub scores are the full solve's.
    pub(crate) fn hub_half(&self, rhs: Rhs<'_>, ws: &mut QueryWorkspace) -> Result<()> {
        self.load_rhs(rhs, ws);
        let k = ws.k;
        self.spokes.solve_into(&mut ws.x1, k, &mut ws.sweep, false)?;
        self.h21.interleaved_into(k, &ws.x1, &mut ws.t3)?;
        for (t, &qv) in ws.t3.iter_mut().zip(&ws.q2) {
            *t = qv - *t;
        }
        whole_product(&self.l2_inv, k, &ws.t3, &mut ws.t4)?;
        whole_product(&self.u2_inv, k, &ws.t4, &mut ws.t3)?;
        for (r, &v) in ws.r2.iter_mut().zip(&ws.t3) {
            *r = self.c * v;
        }
        Ok(())
    }

    /// The spoke half: `r₁ = U₁⁻¹ L₁⁻¹ t₁`, with `t₁` formed in `ws.x1`
    /// ([`Bear::spoke_rhs_into`]) and solved there in place, leaving
    /// `r₁` in `ws.x1`.
    fn spoke_half(&self, rhs: Rhs<'_>, ws: &mut QueryWorkspace) -> Result<()> {
        self.spoke_rhs_into(rhs, ws)?;
        self.spokes.solve_into(&mut ws.x1, ws.k, &mut ws.sweep, true)
    }

    /// `t₁ = c·q₁ − H₁₂ r₂` into `ws.x1`, one lane per right-hand side
    /// of `rhs`, after the hub half. The hub half's sweep has replaced
    /// the loaded `q₁`, so `c·q₁` is taken from `rhs` as the product of
    /// `c` and the value loaded there: `c · 0.0` off the seeds and `c · q`
    /// of a distribution. Off the seeds that writes `0.0 − t` as the
    /// separate `q₁` block did, never `−t` (which turns `+0.0` into
    /// `−0.0`), so every input bit of the back sweep is unchanged. At a
    /// seed's row `c` is then added to `0.0 − t`, which gives `c − t` bit
    /// for bit: IEEE subtraction is the addition of the negation, and
    /// `0.0 − t` is `−t` except at `t = +0.0`, where both sums are `c`.
    pub(crate) fn spoke_rhs_into(&self, rhs: Rhs<'_>, ws: &mut QueryWorkspace) -> Result<()> {
        let k = ws.k;
        self.h12.interleaved_into(k, &ws.r2, &mut ws.x1)?;
        match rhs {
            Rhs::Seeds(seeds) => {
                let zero = self.c * 0.0;
                for t in ws.x1.iter_mut() {
                    *t = zero - *t;
                }
                for (j, &seed) in seeds.iter().enumerate() {
                    let row = self.perm.new_of(seed);
                    if row >= self.n1 {
                        // A hub seed's row is past the spoke block: no `c` here.
                        continue;
                    }
                    if let Some(t) = ws.x1.get_mut(row * k + j) {
                        *t += self.c;
                    }
                }
            }
            Rhs::Distribution(q) => {
                let (spokes, _) = self.perm.as_new_to_old().split_at(self.n1);
                for (t, &old) in ws.x1.iter_mut().zip(spokes) {
                    *t = self.c * q.get(old).copied().unwrap_or(0.0) - *t;
                }
            }
        }
        Ok(())
    }
}

/// `y = M x` with the whole square matrix `M` over row-major `k`-lane
/// buffers: the vector kernel at width 1, where the interleaved kernel's
/// per-nonzero block bounds check costs more than it saves, and
/// [`bear_sparse::CscMatrix::interleaved_block_into`] at base 0
/// otherwise. Both give the same bits.
fn whole_product(m: &CscMatrix, k: usize, x: &[f64], y: &mut [f64]) -> Result<()> {
    if k == 1 {
        m.matvec_into(x, y)
    } else {
        m.interleaved_block_into(0, k, x, y)
    }
}

/// The right-hand sides of one solve, kept by reference because the
/// spoke half needs `c·q₁` again after the hub half has swept the
/// loaded `q₁` away.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// One one-hot column per seed (each in range).
    // lint:allow(L1, slice type syntax, not an index expression)
    Seeds(&'a [usize]),
    /// One column: a distribution over all `n` nodes.
    // lint:allow(L1, slice type syntax, not an index expression)
    Distribution(&'a [f64]),
}

impl Rhs<'_> {
    /// Number of columns.
    fn width(&self) -> usize {
        match self {
            Rhs::Seeds(seeds) => seeds.len(),
            Rhs::Distribution(_) => 1,
        }
    }
}

impl RwrSolver for Bear {
    fn name(&self) -> &'static str {
        "BEAR"
    }

    fn query(&self, seed: usize) -> Result<Vec<f64>> {
        Bear::query(self, seed)
    }

    fn query_distribution(&self, q: &[f64]) -> Result<Vec<f64>> {
        Bear::query_distribution(self, q)
    }

    fn num_nodes(&self) -> usize {
        Bear::num_nodes(self)
    }

    fn memory_bytes(&self) -> usize {
        self.spokes.memory_bytes()
            + self.l2_inv.memory_bytes()
            + self.u2_inv.memory_bytes()
            + self.h12.memory_bytes()
            + self.h21.memory_bytes()
    }

    fn precomputed_nnz(&self) -> usize {
        self.stats().total_nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::BearConfig;
    use bear_graph::Graph;
    use bear_sparse::DenseMatrix;

    /// Dense oracle: solve H r = c q directly.
    fn oracle(g: &Graph, c: f64, q: &[f64]) -> Vec<f64> {
        let h = crate::rwr::build_h(
            g,
            &crate::rwr::RwrConfig { c, normalization: crate::rwr::Normalization::Row },
        )
        .unwrap();
        let dense: DenseMatrix = h.to_dense();
        let lu = bear_sparse::DenseLu::factor(&dense).unwrap();
        let rhs: Vec<f64> = q.iter().map(|v| c * v).collect();
        lu.solve(&rhs).unwrap()
    }

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            all.push((u, v));
            all.push((v, u));
        }
        Graph::from_edges(n, &all).unwrap()
    }

    #[test]
    fn exact_matches_dense_solve_on_star() {
        let g = undirected(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        for seed in 0..6 {
            let got = bear.query(seed).unwrap();
            let mut q = vec![0.0; 6];
            q[seed] = 1.0;
            let want = oracle(&g, 0.05, &q);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn exact_matches_dense_solve_on_two_caves() {
        // Hub 0 bridges two triangles.
        let g = undirected(
            7,
            &[(0, 1), (1, 2), (2, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 3), (0, 6)],
        );
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        for seed in [0, 1, 4, 6] {
            let got = bear.query(seed).unwrap();
            let mut q = vec![0.0; 7];
            q[seed] = 1.0;
            let want = oracle(&g, 0.2, &q);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn scores_sum_to_one_on_strongly_connected_graph() {
        // Directed cycle: every row of Ã sums to 1, so scores sum to 1.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let r = bear.query(2).unwrap();
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "sum = {sum}");
    }

    #[test]
    fn ppr_distribution_query_matches_superposition() {
        let g = undirected(6, &[(0, 1), (0, 2), (2, 3), (3, 4), (0, 5)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
        // RWR is linear in q: query over a mixture equals the mixture of
        // single-seed queries.
        let q = vec![0.5, 0.0, 0.25, 0.0, 0.0, 0.25];
        let got = bear.query_distribution(&q).unwrap();
        let r0 = bear.query(0).unwrap();
        let r2 = bear.query(2).unwrap();
        let r5 = bear.query(5).unwrap();
        for i in 0..6 {
            let want = 0.5 * r0[i] + 0.25 * r2[i] + 0.25 * r5[i];
            assert!((got[i] - want).abs() < 1e-10);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let g = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        assert!(bear.query(4).is_err());
        assert!(bear.query_distribution(&[0.0; 3]).is_err());
        assert!(bear.query_distribution(&[0.0; 4]).is_err()); // all-zero
        assert!(bear.query_distribution(&[-1.0, 0.0, 0.0, 1.0]).is_err());
    }

    #[test]
    fn approx_close_to_exact_for_small_tolerance() {
        let g = undirected(8, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (0, 6), (6, 7), (1, 2)]);
        let exact = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let approx = Bear::new(&g, &BearConfig::approx(0.05, 1e-4)).unwrap();
        let re = exact.query(1).unwrap();
        let ra = approx.query(1).unwrap();
        let err: f64 = re.iter().zip(&ra).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(err < 1e-2, "L2 error {err}");
    }

    #[test]
    fn batch_query_matches_sequential() {
        let g = undirected(
            10,
            &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)],
        );
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let seeds: Vec<usize> = (0..10).collect();
        let sequential: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        assert_eq!(bear.query_block(&seeds).unwrap(), sequential);
        // Error propagation: an out-of-range seed fails the whole batch.
        assert!(bear.query_block(&[0, 99]).is_err());
        // Empty batch is fine.
        assert!(bear.query_block(&[]).unwrap().is_empty());
    }

    #[test]
    fn every_width_is_bitwise_equal_to_width_one() {
        let g = undirected(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 4),
                (4, 5),
                (5, 6),
                (0, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (4, 6),
            ],
        );
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        // Duplicates and arbitrary order are allowed.
        let seeds = [3usize, 0, 7, 3, 11, 5];
        let blocked = bear.query_block(&seeds).unwrap();
        assert_eq!(blocked.len(), seeds.len());
        for (j, &s) in seeds.iter().enumerate() {
            assert_eq!(blocked[j], bear.query(s).unwrap(), "seed {s} (column {j})");
        }
        // Duplicate seeds yield identical columns.
        assert_eq!(blocked[0], blocked[3]);
    }

    #[test]
    fn block_workspace_reuses_across_widths() {
        let g = undirected(9, &[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        let mut ws = QueryWorkspace::for_bear(&bear);
        for seeds in [vec![0usize, 4, 8], vec![2], vec![1, 1, 3, 5, 7, 0, 2], vec![]] {
            let mut out = bear_sparse::DenseBlock::zeros(9, seeds.len());
            bear.query_block_into(&seeds, &mut ws, &mut out).unwrap();
            for (j, &s) in seeds.iter().enumerate() {
                assert_eq!(out.col(j), &bear.query(s).unwrap()[..], "width {}", seeds.len());
            }
        }
    }

    #[test]
    fn workspace_from_a_smaller_index_is_reshaped() {
        let small = Bear::new(&undirected(3, &[(0, 1), (1, 2)]), &BearConfig::exact(0.2)).unwrap();
        let g = undirected(9, &[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.2)).unwrap();
        let mut ws = QueryWorkspace::for_bear(&small);
        let mut out = vec![0.0; 9];
        bear.query_into(8, &mut ws, &mut out).unwrap();
        assert_eq!(out, bear.query(8).unwrap());

        let mut ws = QueryWorkspace::for_bear(&small);
        let mut block = bear_sparse::DenseBlock::zeros(9, 2);
        bear.query_block_into(&[8, 5], &mut ws, &mut block).unwrap();
        assert_eq!(block.to_columns(), bear.query_block(&[8, 5]).unwrap());
        // And back down to the smaller index on the widened workspace.
        let (nodes, _) = small
            .query_top_k_pruned_in(2, 1, &crate::TopKPruneOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(nodes, small.query_top_k(2, 1).unwrap());
    }

    #[test]
    fn block_query_validates_inputs() {
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let mut ws = QueryWorkspace::for_bear(&bear);
        // Out-of-range seed named in the error.
        let mut out = bear_sparse::DenseBlock::zeros(5, 2);
        let err = bear.query_block_into(&[0, 9], &mut ws, &mut out).unwrap_err();
        assert_eq!(err, Error::IndexOutOfBounds { index: 9, bound: 5 });
        // Output block must be n × k.
        let mut wrong = bear_sparse::DenseBlock::zeros(5, 3);
        assert!(bear.query_block_into(&[0, 1], &mut ws, &mut wrong).is_err());
        let mut wrong = bear_sparse::DenseBlock::zeros(4, 2);
        assert!(bear.query_block_into(&[0, 1], &mut ws, &mut wrong).is_err());
        // Empty block is a no-op.
        assert!(bear.query_block(&[]).unwrap().is_empty());
    }

    #[test]
    fn dangling_nodes_handled() {
        // Node 3 has no out-edges.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let bear = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let r = bear.query(0).unwrap();
        let mut q = vec![0.0; 4];
        q[0] = 1.0;
        let want = oracle(&g, 0.05, &q);
        for (a, b) in r.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
