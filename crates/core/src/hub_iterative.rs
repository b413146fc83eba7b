//! Memory-lean variant with an iterative hub solve.
//!
//! On hub-heavy graphs (Citation-like, R-MAT p_ul ≈ 0.5), BEAR's space is
//! dominated by `L₂⁻¹`/`U₂⁻¹`, whose fill approaches `n₂²` (Table 4).
//! The follow-up line of work the paper spawned (BePI, SIGMOD 2017)
//! removes exactly this term by *not inverting* the Schur complement:
//! store the sparse `S` itself and solve `S r₂ = rhs` iteratively per
//! query. `S` inherits the diagonal dominance of `H`, so a Jacobi-
//! preconditioned BiCGSTAB converges in a handful of iterations.
//!
//! This module implements that variant on top of BEAR's preprocessing:
//! identical spoke-side machinery (`L₁⁻¹`, `U₁⁻¹`, `H₁₂`, `H₂₁`),
//! Schur-side storage reduced from `nnz(L₂⁻¹)+nnz(U₂⁻¹)` to `nnz(S)`.

use crate::precompute::{reduce_to_schur, BearConfig, ResidentSpokes, RUN_ROWS};
use crate::rwr::validate_distribution;
use crate::solver::RwrSolver;
use bear_graph::Graph;
use bear_sparse::mem::MemoryUsage;
use bear_sparse::solvers::{bicgstab, SolveOptions};
use bear_sparse::{CscMatrix, CsrMatrix, Error, Permutation, Result};

/// BEAR with an iterative (non-inverted) hub solve.
#[derive(Debug, Clone)]
pub struct BearHubIterative {
    l1_inv: CscMatrix,
    u1_inv: CscMatrix,
    /// The Schur complement itself (not inverted).
    s: CsrMatrix,
    h12: CsrMatrix,
    h21: CsrMatrix,
    perm: Permutation,
    n1: usize,
    n2: usize,
    c: f64,
    solve_opts: SolveOptions,
}

impl BearHubIterative {
    /// Preprocesses `g`: the same pipeline as [`crate::Bear::new`] up to the
    /// Schur complement (Algorithm 1 lines 1–7), but keeps `S` as-is
    /// instead of factoring and inverting it. Only `S` is sparsified.
    pub fn new(g: &Graph, config: &BearConfig) -> Result<Self> {
        let mut spokes = ResidentSpokes::default();
        // `reduce_to_schur` validates the config, so `drop_tolerance` is
        // finite and non-negative here.
        let reduced = reduce_to_schur(g, config, 0.0, RUN_ROWS, &mut spokes)?;
        let s = bear_sparse::sparsify::par_drop_tolerance_csr(
            &reduced.s,
            config.drop_tolerance,
            config.effective_threads(),
        )?;
        Ok(BearHubIterative {
            l1_inv: spokes.l1_inv.finish(),
            u1_inv: spokes.u1_inv.finish(),
            s,
            h12: reduced.h12,
            h21: reduced.h21,
            perm: reduced.perm,
            n1: reduced.n1,
            n2: reduced.n2,
            c: config.rwr.c,
            solve_opts: SolveOptions { rel_tolerance: 1e-12, max_iterations: 10_000 },
        })
    }

    /// Number of hubs.
    pub fn n_hubs(&self) -> usize {
        self.n2
    }

    /// Number of spokes.
    pub fn n_spokes(&self) -> usize {
        self.n1
    }
}

impl RwrSolver for BearHubIterative {
    fn name(&self) -> &'static str {
        "BEAR-HubIter"
    }

    fn query_distribution(&self, q: &[f64]) -> Result<Vec<f64>> {
        let n = self.n1 + self.n2;
        if q.len() != n {
            return Err(Error::DimensionMismatch {
                op: "bear hub-iterative query",
                lhs: (n, 1),
                rhs: (q.len(), 1),
            });
        }
        validate_distribution(q)?;
        let q_perm = self.perm.permute_vec(q)?;
        let (q1, q2) = q_perm.split_at(self.n1);

        // rhs = q₂ − H₂₁ U₁⁻¹ L₁⁻¹ q₁, then solve S r₂ = c·rhs.
        let t1 = self.l1_inv.matvec(q1)?;
        let t2 = self.u1_inv.matvec(&t1)?;
        let t3 = self.h21.matvec(&t2)?;
        let rhs: Vec<f64> = q2.iter().zip(&t3).map(|(a, b)| self.c * (a - b)).collect();
        let r2 = bicgstab(&self.s, &rhs, &self.solve_opts)?;

        // r₁ = U₁⁻¹ L₁⁻¹ (c q₁ − H₁₂ r₂)
        let h12_r2 = self.h12.matvec(&r2)?;
        let inner: Vec<f64> = q1.iter().zip(&h12_r2).map(|(a, b)| self.c * a - b).collect();
        let t4 = self.l1_inv.matvec(&inner)?;
        let r1 = self.u1_inv.matvec(&t4)?;

        let mut r_perm = r1;
        r_perm.extend_from_slice(&r2);
        self.perm.unpermute_vec(&r_perm)
    }

    fn num_nodes(&self) -> usize {
        self.n1 + self.n2
    }

    fn memory_bytes(&self) -> usize {
        self.l1_inv.memory_bytes()
            + self.u1_inv.memory_bytes()
            + self.s.memory_bytes()
            + self.h12.memory_bytes()
            + self.h21.memory_bytes()
    }

    fn precomputed_nnz(&self) -> usize {
        self.l1_inv.nnz() + self.u1_inv.nnz() + self.s.nnz() + self.h12.nnz() + self.h21.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::Bear;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            all.push((u, v));
            all.push((v, u));
        }
        Graph::from_edges(n, &all).unwrap()
    }

    #[test]
    fn matches_exact_bear() {
        let g = undirected(
            9,
            &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (1, 2)],
        );
        let exact = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let hub_iter = BearHubIterative::new(&g, &BearConfig::exact(0.1)).unwrap();
        for seed in 0..9 {
            let re = exact.query(seed).unwrap();
            let ri = hub_iter.query(seed).unwrap();
            for (a, b) in re.iter().zip(&ri) {
                assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn saves_memory_on_hub_heavy_graphs() {
        // A dense-ish core: most nodes become hubs, so L₂⁻¹/U₂⁻¹ fill in.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let n = 60;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(0.15) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let exact = Bear::new(&g, &BearConfig::exact(0.05)).unwrap();
        let hub_iter = BearHubIterative::new(&g, &BearConfig::exact(0.05)).unwrap();
        assert!(
            hub_iter.memory_bytes() < exact.memory_bytes(),
            "hub-iter {} bytes !< exact {} bytes",
            hub_iter.memory_bytes(),
            exact.memory_bytes()
        );
        // And still answers exactly (to solver tolerance).
        let re = exact.query(0).unwrap();
        let ri = hub_iter.query(0).unwrap();
        for (a, b) in re.iter().zip(&ri) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// Seeded power-law graphs on which the hub solve of the last node
    /// hit BiCGSTAB's `⟨r̂, v⟩ ≈ 0` breakdown and failed with
    /// `DidNotConverge` when that breakdown was an error. The solver now
    /// restarts there and checks the true residual before it answers,
    /// so each answer matches exact BEAR.
    #[test]
    fn bicgstab_breakdown_restarts_and_answers_exactly() {
        use bear_graph::generators::preferential_attachment;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (n, m, seed) in [(120, 2, 104), (120, 2, 678), (400, 3, 158)] {
            let g = preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed));
            let exact = Bear::new(&g, &BearConfig::default()).unwrap();
            let hub_iter = BearHubIterative::new(&g, &BearConfig::default()).unwrap();
            let re = exact.query(n - 1).unwrap();
            let ri = hub_iter.query(n - 1).unwrap();
            for (a, b) in re.iter().zip(&ri) {
                assert!((a - b).abs() < 1e-7, "graph ({n}, {m}, {seed}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = BearHubIterative::new(&g, &BearConfig::exact(0.1)).unwrap();
        assert!(h.query(9).is_err());
        assert!(h.query_distribution(&[1.0]).is_err());
        assert_eq!(h.name(), "BEAR-HubIter");
        assert_eq!(h.n_hubs() + h.n_spokes(), 4);
    }
}
