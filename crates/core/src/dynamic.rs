//! Dynamic graph updates — the paper's stated future-work direction
//! ("extending BEAR to support frequently changing graphs", Section 6).
//!
//! Observation: BEAR's expensive precomputed state splits along the
//! spoke/hub boundary. An edge whose *source* is a hub only changes
//! column `u` of `H`, which lives entirely in `H₁₂` and `H₂₂` — so
//! `L₁⁻¹`/`U₁⁻¹` (the bulk of the index) survive unchanged, and only the
//! `n₂ × n₂` Schur complement must be refreshed and refactored:
//!
//! * update the stored `H₁₂` column and the shadow `H₂₂` column;
//! * recompute one column of `S` with a single block solve,
//!   `S[:,u] = H₂₂[:,u] − H₂₁ (U₁⁻¹ (L₁⁻¹ H₁₂[:,u]))`;
//! * LU-refactor `S`, re-invert its (small) factors, and drop entries
//!   below ξ from them and from `H₁₂`, as preprocessing does.
//!
//! Edges sourced at spokes can change `H₁₁`'s block structure, so they
//! fall back to full preprocessing. [`DynamicBear::insert_edge`] reports
//! which path was taken.

use crate::paging::SweepScratch;
use crate::precompute::{factor_schur, Bear, BearConfig, HubSolve};
use crate::rwr::{build_h, Normalization};
use crate::stats::StageTimings;
use bear_graph::Graph;
use bear_sparse::{CooMatrix, Error, Result};

/// Which update path an edge insertion took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Only the Schur complement was refreshed (hub-sourced edge).
    IncrementalHub,
    /// The whole index was rebuilt (spoke-sourced edge).
    FullRebuild,
}

/// Per-column `(row, value)` pairs of a sparse block.
type SparseColumns = Vec<Vec<(usize, f64)>>;

/// A BEAR index that supports edge insertions.
#[derive(Debug, Clone)]
pub struct DynamicBear {
    bear: Bear,
    config: BearConfig,
    /// Mutable out-adjacency (original node ids).
    out_edges: Vec<Vec<(usize, f64)>>,
    /// Shadow copies of the hub-column blocks of the reordered `H`,
    /// stored column-wise: `(reordered row, value)` pairs.
    h12_cols: SparseColumns,
    h22_cols: SparseColumns,
}

impl DynamicBear {
    /// Preprocesses `g` and materializes the update shadow state.
    pub fn new(g: &Graph, config: &BearConfig) -> Result<Self> {
        if config.rwr.normalization != Normalization::Row {
            return Err(Error::InvalidStructure(
                "DynamicBear supports row normalization only".into(),
            ));
        }
        let bear = Bear::new(g, config)?;
        let mut out_edges = vec![Vec::new(); g.num_nodes()];
        for (u, v, w) in g.edges() {
            out_edges[u].push((v, w));
        }
        let (h12_cols, h22_cols) = Self::shadow_columns(g, &bear, config)?;
        Ok(DynamicBear { bear, config: *config, out_edges, h12_cols, h22_cols })
    }

    fn shadow_columns(
        g: &Graph,
        bear: &Bear,
        config: &BearConfig,
    ) -> Result<(SparseColumns, SparseColumns)> {
        let (n1, n2) = (bear.n1, bear.n2);
        let h = bear.perm.permute_symmetric(&build_h(g, &config.rwr)?)?;
        let mut h12_cols = vec![Vec::new(); n2];
        let mut h22_cols = vec![Vec::new(); n2];
        for (r, c, v) in h.iter() {
            if c >= n1 {
                if r < n1 {
                    h12_cols[c - n1].push((r, v));
                } else {
                    h22_cols[c - n1].push((r - n1, v));
                }
            }
        }
        Ok((h12_cols, h22_cols))
    }

    /// The underlying (read-only) BEAR index.
    pub fn bear(&self) -> &Bear {
        &self.bear
    }

    /// RWR query (delegates to the current index).
    pub fn query(&self, seed: usize) -> Result<Vec<f64>> {
        self.bear.query(seed)
    }

    /// Inserts (or strengthens) the directed edge `u → v` with weight `w`
    /// and brings the index up to date. Returns the path taken.
    pub fn insert_edge(&mut self, u: usize, v: usize, w: f64) -> Result<UpdateKind> {
        let n = self.bear.num_nodes();
        if u >= n {
            return Err(Error::IndexOutOfBounds { index: u, bound: n });
        }
        if v >= n {
            return Err(Error::IndexOutOfBounds { index: v, bound: n });
        }
        if !(w.is_finite()) || w <= 0.0 {
            return Err(Error::InvalidStructure(format!("invalid edge weight {w}")));
        }

        // Apply to the adjacency (merge with an existing edge if present).
        match self.out_edges[u].iter_mut().find(|(t, _)| *t == v) {
            Some((_, weight)) => *weight += w,
            None => self.out_edges[u].push((v, w)),
        }
        // Update the undirected degree shadow (used by effective
        // importance); `v` gains `u` as a neighbor and vice versa unless
        // already adjacent. Conservatively recomputed on rebuild; for the
        // incremental path an exact recount is cheap enough:
        // (handled inside rebuild / recount below).

        let pu = self.bear.perm.new_of(u);
        if pu < self.bear.n1 {
            // Spoke-sourced edge: block structure of H₁₁ may change.
            self.rebuild()?;
            return Ok(UpdateKind::FullRebuild);
        }

        self.refresh_hub_column(u)?;
        self.recount_degrees();
        Ok(UpdateKind::IncrementalHub)
    }

    /// Rebuilds the graph from the adjacency shadow and re-runs full
    /// preprocessing.
    fn rebuild(&mut self) -> Result<()> {
        let g = self.current_graph()?;
        self.bear = Bear::new(&g, &self.config)?;
        let (h12, h22) = Self::shadow_columns(&g, &self.bear, &self.config)?;
        self.h12_cols = h12;
        self.h22_cols = h22;
        Ok(())
    }

    /// The graph as currently known to the index.
    pub fn current_graph(&self) -> Result<Graph> {
        let n = self.out_edges.len();
        let mut edges = Vec::new();
        for (u, outs) in self.out_edges.iter().enumerate() {
            for &(v, w) in outs {
                edges.push((u, v, w));
            }
        }
        Graph::from_weighted_edges(n, &edges)
    }

    /// Incremental path: recompute column `u` of `H`, refresh the stored
    /// `H₁₂`, refresh one column of `S`, and refactor `S`.
    fn refresh_hub_column(&mut self, u: usize) -> Result<()> {
        let (n1, n2) = (self.bear.n1, self.bear.n2);
        let c = self.bear.c;
        let cu = self.bear.perm.new_of(u) - n1;

        // New column pu of H from u's renormalized out-row:
        // H[x][u] = [x == u] − (1−c) Ã[u][x].
        let row_sum: f64 = self.out_edges[u].iter().map(|&(_, w)| w).sum();
        let mut h12_col: Vec<(usize, f64)> = Vec::new();
        let mut h22_col: Vec<(usize, f64)> = vec![(cu, 1.0)]; // identity diag
        if row_sum > 0.0 {
            for &(x, w) in &self.out_edges[u] {
                let val = -(1.0 - c) * w / row_sum;
                let px = self.bear.perm.new_of(x);
                if px < n1 {
                    h12_col.push((px, val));
                } else if px - n1 == cu {
                    // Self-loop folds into the diagonal entry.
                    h22_col[0].1 += val;
                } else {
                    h22_col.push((px - n1, val));
                }
            }
        }
        h12_col.sort_unstable_by_key(|&(r, _)| r);
        h22_col.sort_unstable_by_key(|&(r, _)| r);
        self.h12_cols[cu] = h12_col;
        self.h22_cols[cu] = h22_col;

        // Rebuild H₁₂ (stored CSR) from the columns.
        let mut coo12 = CooMatrix::new(n1, n2);
        for (col, entries) in self.h12_cols.iter().enumerate() {
            for &(r, v) in entries {
                coo12.push(r, col, v);
            }
        }
        self.bear.h12 = coo12.to_csr();

        // Refresh every column of S that depends on changed data. Only
        // column cu changed, but recomputing S entirely from the shadows
        // keeps the code auditable; the dominant cost is the refactor
        // anyway. S = H₂₂ − H₂₁ U₁⁻¹ L₁⁻¹ H₁₂ column by column.
        let mut s_coo = CooMatrix::new(n2, n2);
        let mut x = vec![0.0; n1];
        let mut y = vec![0.0; n2];
        let mut sweep = SweepScratch::default();
        for col in 0..n2 {
            x.fill(0.0);
            for &(r, v) in &self.h12_cols[col] {
                x[r] = v;
            }
            self.bear.spokes.solve_into(&mut x, 1, &mut sweep, false)?;
            self.bear.h21.matvec_into(&x, &mut y)?;
            let mut s_col = vec![0.0f64; n2];
            for &(r, v) in &self.h22_cols[col] {
                s_col[r] = v;
            }
            for (r, yv) in y.iter().enumerate() {
                s_col[r] -= yv;
            }
            for (r, v) in s_col.into_iter().enumerate() {
                if v != 0.0 {
                    s_coo.push(r, col, v);
                }
            }
        }
        // Lines 8–9 as preprocessing runs them, ξ dropped from the
        // rebuilt `H₁₂` too.
        let bear = &mut self.bear;
        let (l2_inv, u2_inv) = factor_schur(
            &s_coo.to_csr(),
            &mut bear.h12,
            &mut bear.h21,
            &self.config,
            &mut StageTimings::default(),
        )?;
        bear.hub = HubSolve::Inverted { l2_inv, u2_inv };
        Ok(())
    }

    /// Recomputes the undirected-degree shadow used by effective
    /// importance.
    fn recount_degrees(&mut self) {
        if let Ok(g) = self.current_graph() {
            self.bear.degrees = g.undirected_degrees();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core_test_helpers::*;

    mod bear_core_test_helpers {
        use bear_graph::Graph;
        /// Star with extra cave so SlashBurn produces a clear hub.
        pub fn hubby_graph() -> Graph {
            let mut edges = Vec::new();
            for v in 1..12 {
                edges.push((0, v));
                edges.push((v, 0));
            }
            edges.push((3, 4));
            edges.push((4, 3));
            edges.push((7, 8));
            edges.push((8, 7));
            Graph::from_edges(12, &edges).unwrap()
        }
    }

    fn fresh_oracle(dynamic: &DynamicBear) -> Bear {
        let g = dynamic.current_graph().unwrap();
        Bear::new(&g, &BearConfig::exact(0.1)).unwrap()
    }

    #[test]
    fn hub_edge_insertion_is_incremental_and_exact() {
        let g = hubby_graph();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.1)).unwrap();
        // Node 0 is the star center: must be a hub.
        let hub = 0;
        assert!(dynamic.bear().ordering().new_of(hub) >= dynamic.bear().n_spokes());
        let kind = dynamic.insert_edge(hub, 5, 2.0).unwrap();
        assert_eq!(kind, UpdateKind::IncrementalHub);
        // Scores must match a from-scratch preprocessing of the new graph.
        let oracle = fresh_oracle(&dynamic);
        for seed in 0..12 {
            let got = dynamic.query(seed).unwrap();
            let want = oracle.query(seed).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn spoke_edge_insertion_falls_back_to_rebuild() {
        let g = hubby_graph();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.1)).unwrap();
        // Node 9 is a leaf of the star: a guaranteed spoke.
        let spoke = 9;
        assert!(dynamic.bear().ordering().new_of(spoke) < dynamic.bear().n_spokes());
        let kind = dynamic.insert_edge(spoke, 10, 1.0).unwrap();
        assert_eq!(kind, UpdateKind::FullRebuild);
        let oracle = fresh_oracle(&dynamic);
        for seed in [0, 9, 10] {
            let got = dynamic.query(seed).unwrap();
            let want = oracle.query(seed).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn repeated_insertions_stay_consistent() {
        let g = hubby_graph();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.1)).unwrap();
        dynamic.insert_edge(0, 3, 1.0).unwrap();
        dynamic.insert_edge(0, 3, 1.0).unwrap(); // strengthen same edge
        dynamic.insert_edge(5, 6, 1.0).unwrap(); // spoke -> rebuild
        dynamic.insert_edge(0, 6, 0.5).unwrap();
        let oracle = fresh_oracle(&dynamic);
        let got = dynamic.query(6).unwrap();
        let want = oracle.query(6).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The incremental path drops ξ as preprocessing does: no stored
    /// entry of `H₁₂`, `H₂₁`, `L₂⁻¹` or `U₂⁻¹` is below it afterwards.
    #[test]
    fn incremental_refresh_drops_entries_below_the_tolerance() {
        let xi = 0.1;
        let mut edges: Vec<(usize, usize)> = (1..12).flat_map(|v| [(0, v), (v, 0)]).collect();
        edges.extend([(3, 4), (4, 3)]);
        let g = Graph::from_edges(12, &edges).unwrap();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::approx(0.1, xi)).unwrap();
        assert_eq!(dynamic.insert_edge(0, 5, 1.0).unwrap(), UpdateKind::IncrementalHub);
        let bear = dynamic.bear();
        let HubSolve::Inverted { l2_inv, u2_inv } = &bear.hub else {
            panic!("a dynamic index keeps the inverted Schur factors");
        };
        let stored = [
            ("H12", bear.h12.values()),
            ("H21", bear.h21.values()),
            ("L2_inv", l2_inv.values()),
            ("U2_inv", u2_inv.values()),
        ];
        for (name, values) in stored {
            let below = values.iter().filter(|v| v.abs() < xi).count();
            assert_eq!(below, 0, "{name} keeps {below} entries below xi");
        }
    }

    #[test]
    fn invalid_insertions_rejected() {
        let g = hubby_graph();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.1)).unwrap();
        assert!(dynamic.insert_edge(99, 0, 1.0).is_err());
        assert!(dynamic.insert_edge(0, 99, 1.0).is_err());
        assert!(dynamic.insert_edge(0, 1, -1.0).is_err());
        assert!(dynamic.insert_edge(0, 1, f64::NAN).is_err());
    }

    #[test]
    fn effective_importance_tracks_degree_changes() {
        let g = hubby_graph();
        let mut dynamic = DynamicBear::new(&g, &BearConfig::exact(0.1)).unwrap();
        dynamic.insert_edge(0, 5, 1.0).unwrap(); // existing undirected pair
        let oracle = fresh_oracle(&dynamic);
        let got = dynamic.bear().query_effective_importance(5).unwrap();
        let want = oracle.query_effective_importance(5).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
