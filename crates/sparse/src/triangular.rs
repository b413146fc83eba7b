//! Triangular solves and triangular-factor inversion.
//!
//! BEAR materializes `L⁻¹` and `U⁻¹` of its LU factors (Algorithm 1,
//! lines 5 and 8). Inverting a sparse triangular matrix column by column is
//! done with a CSparse-style sparse-RHS solve: first compute the
//! *reach* of the right-hand side pattern over the factor's dependency
//! graph (a DFS), then run substitution only over reached positions, so the
//! total cost is proportional to the output's nonzero count — this is what
//! keeps the paper's Observation 1 (degree-ordering keeps the inverses
//! sparse) profitable.

use crate::csc::CscMatrix;
use crate::error::{Error, Result};

/// Whether a triangular matrix is lower or upper triangular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Lower triangular: dependencies flow from smaller to larger indices.
    Lower,
    /// Upper triangular: dependencies flow from larger to smaller indices.
    Upper,
}

/// In-place dense-RHS forward substitution `L x = b` for a CSC lower
/// triangular matrix. If `unit_diag`, the diagonal is taken as 1 and any
/// stored diagonal entries are ignored.
pub fn solve_lower(l: &CscMatrix, b: &mut [f64], unit_diag: bool) -> Result<()> {
    let n = l.ncols();
    if l.nrows() != n || b.len() != n {
        return Err(Error::DimensionMismatch {
            op: "solve_lower",
            lhs: (l.nrows(), l.ncols()),
            rhs: (b.len(), 1),
        });
    }
    for j in 0..n {
        let (rows, vals) = l.col(j);
        let diag_pos = rows.binary_search(&j);
        if !unit_diag {
            let d = match diag_pos {
                Ok(p) => vals[p],
                Err(_) => return Err(Error::SingularMatrix { at: j }),
            };
            if d == 0.0 {
                return Err(Error::SingularMatrix { at: j });
            }
            b[j] /= d;
        }
        let xj = b[j];
        if xj == 0.0 {
            continue;
        }
        let start = match diag_pos {
            Ok(p) => p + 1,
            Err(p) => p,
        };
        for (&i, &v) in rows[start..].iter().zip(&vals[start..]) {
            b[i] -= v * xj;
        }
    }
    Ok(())
}

/// In-place dense-RHS backward substitution `U x = b` for a CSC upper
/// triangular matrix.
pub fn solve_upper(u: &CscMatrix, b: &mut [f64]) -> Result<()> {
    let n = u.ncols();
    if u.nrows() != n || b.len() != n {
        return Err(Error::DimensionMismatch {
            op: "solve_upper",
            lhs: (u.nrows(), u.ncols()),
            rhs: (b.len(), 1),
        });
    }
    for j in (0..n).rev() {
        let (rows, vals) = u.col(j);
        let diag_pos = match rows.binary_search(&j) {
            Ok(p) => p,
            Err(_) => return Err(Error::SingularMatrix { at: j }),
        };
        let d = vals[diag_pos];
        if d == 0.0 {
            return Err(Error::SingularMatrix { at: j });
        }
        b[j] /= d;
        let xj = b[j];
        if xj == 0.0 {
            continue;
        }
        for (&i, &v) in rows[..diag_pos].iter().zip(&vals[..diag_pos]) {
            b[i] -= v * xj;
        }
    }
    Ok(())
}

/// Reusable workspace for sparse-RHS triangular solves, so repeated solves
/// (e.g. one per column during inversion) allocate nothing.
pub struct SpSolveWorkspace {
    /// Dense value scratch, zeroed outside the touched set.
    x: Vec<f64>,
    /// Visited marks for the reach DFS.
    marked: Vec<bool>,
    /// DFS stack of (node, next edge offset within the node's column).
    dfs: Vec<(usize, usize)>,
    /// Output topological order (reverse postorder).
    order: Vec<usize>,
}

impl SpSolveWorkspace {
    /// Creates a workspace for matrices of dimension `n`.
    pub fn new(n: usize) -> Self {
        SpSolveWorkspace {
            x: vec![0.0; n],
            marked: vec![false; n],
            dfs: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Computes the reach of `pattern` in the dependency graph of the
    /// triangular matrix `g` (edges j -> i for each stored off-diagonal
    /// entry `g[i, j]`), leaving `self.order` in topological order.
    fn reach(&mut self, g: &CscMatrix, pattern: &[usize]) {
        self.order.clear();
        for &start in pattern {
            if self.marked[start] {
                continue;
            }
            self.dfs.push((start, 0));
            self.marked[start] = true;
            while let Some(&mut (node, ref mut edge)) = self.dfs.last_mut() {
                let (rows, _) = g.col(node);
                let mut advanced = false;
                while *edge < rows.len() {
                    let next = rows[*edge];
                    *edge += 1;
                    if next != node && !self.marked[next] {
                        self.marked[next] = true;
                        self.dfs.push((next, 0));
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    self.order.push(node);
                    self.dfs.pop();
                }
            }
        }
        // Postorder gives dependents before dependencies; reverse it so a
        // node is processed before the nodes it updates.
        self.order.reverse();
    }
}

/// Solves `G x = b` where `G` is triangular and `b` is sparse, given as a
/// pattern/value pair. Returns `(pattern, values)` of the solution with the
/// pattern sorted ascending. Cost is proportional to the number of
/// floating-point operations performed (CSparse `cs_spsolve`).
pub fn spsolve(
    g: &CscMatrix,
    triangle: Triangle,
    b_pattern: &[usize],
    b_values: &[f64],
    unit_diag: bool,
    ws: &mut SpSolveWorkspace,
) -> Result<(Vec<usize>, Vec<f64>)> {
    let n = g.ncols();
    if g.nrows() != n {
        return Err(Error::DimensionMismatch {
            op: "spsolve",
            lhs: (g.nrows(), g.ncols()),
            rhs: (n, n),
        });
    }
    debug_assert_eq!(b_pattern.len(), b_values.len());
    ws.reach(g, b_pattern);
    // Scatter b.
    for (&i, &v) in b_pattern.iter().zip(b_values) {
        ws.x[i] = v;
    }
    // Substitution in topological order.
    for idx in 0..ws.order.len() {
        let j = ws.order[idx];
        let (rows, vals) = g.col(j);
        let diag_pos = rows.binary_search(&j);
        if !unit_diag {
            let d = match diag_pos {
                Ok(p) => vals[p],
                Err(_) => {
                    ws.clear();
                    return Err(Error::SingularMatrix { at: j });
                }
            };
            if d == 0.0 {
                ws.clear();
                return Err(Error::SingularMatrix { at: j });
            }
            ws.x[j] /= d;
        }
        let xj = ws.x[j];
        if xj == 0.0 {
            continue;
        }
        match (triangle, diag_pos) {
            (Triangle::Lower, Ok(p)) => {
                for (&i, &v) in rows[p + 1..].iter().zip(&vals[p + 1..]) {
                    ws.x[i] -= v * xj;
                }
            }
            (Triangle::Lower, Err(p)) => {
                for (&i, &v) in rows[p..].iter().zip(&vals[p..]) {
                    ws.x[i] -= v * xj;
                }
            }
            (Triangle::Upper, Ok(p)) => {
                for (&i, &v) in rows[..p].iter().zip(&vals[..p]) {
                    ws.x[i] -= v * xj;
                }
            }
            (Triangle::Upper, Err(p)) => {
                for (&i, &v) in rows[..p].iter().zip(&vals[..p]) {
                    ws.x[i] -= v * xj;
                }
            }
        }
    }
    // Gather the solution and reset the workspace.
    let mut pattern: Vec<usize> = ws.order.clone();
    pattern.sort_unstable();
    let mut values = Vec::with_capacity(pattern.len());
    let mut out_pattern = Vec::with_capacity(pattern.len());
    for &i in &pattern {
        let v = ws.x[i];
        if v != 0.0 {
            out_pattern.push(i);
            values.push(v);
        }
    }
    ws.clear();
    Ok((out_pattern, values))
}

impl SpSolveWorkspace {
    /// Resets marks and values for the positions touched by the last solve.
    fn clear(&mut self) {
        for &i in &self.order {
            self.marked[i] = false;
            self.x[i] = 0.0;
        }
        self.order.clear();
        self.dfs.clear();
    }
}

/// Materializes the inverse of a sparse triangular matrix by solving
/// against each identity column with [`spsolve`]. The result is CSC with
/// sorted row indices.
pub fn invert_triangular(g: &CscMatrix, triangle: Triangle, unit_diag: bool) -> Result<CscMatrix> {
    invert_triangular_with_limit(g, triangle, unit_diag, usize::MAX)
}

/// Like [`invert_triangular`] but aborts with [`Error::OutOfBudget`] as
/// soon as the accumulating inverse exceeds `max_nnz` stored entries.
/// Used by preprocessing methods that may fill in catastrophically (e.g.
/// whole-matrix LU inversion on web graphs) to reproduce the paper's
/// out-of-memory failures without exhausting the machine.
pub fn invert_triangular_with_limit(
    g: &CscMatrix,
    triangle: Triangle,
    unit_diag: bool,
    max_nnz: usize,
) -> Result<CscMatrix> {
    let n = g.ncols();
    if g.nrows() != n {
        return Err(Error::DimensionMismatch {
            op: "invert_triangular",
            lhs: (g.nrows(), g.ncols()),
            rhs: (n, n),
        });
    }
    let mut ws = SpSolveWorkspace::new(n);
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for j in 0..n {
        let (pattern, vals) = spsolve(g, triangle, &[j], &[1.0], unit_diag, &mut ws)?;
        indices.extend_from_slice(&pattern);
        values.extend_from_slice(&vals);
        indptr.push(indices.len());
        if indices.len() > max_nnz {
            return Err(Error::OutOfBudget {
                needed: crate::mem::sparse_bytes(n, indices.len()),
                budget: crate::mem::sparse_bytes(n, max_nnz),
            });
        }
    }
    Ok(CscMatrix::from_raw_unchecked(n, n, indptr, indices, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::ops::spgemm;

    /// Lower triangular test matrix:
    /// [2 0 0]
    /// [1 3 0]
    /// [0 4 5]
    fn lower() -> CscMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 1, 4.0);
        coo.push(2, 2, 5.0);
        coo.to_csr().to_csc()
    }

    /// Upper triangular test matrix:
    /// [2 1 0]
    /// [0 3 4]
    /// [0 0 5]
    fn upper() -> CscMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 1, 3.0);
        coo.push(1, 2, 4.0);
        coo.push(2, 2, 5.0);
        coo.to_csr().to_csc()
    }

    #[test]
    fn dense_lower_solve() {
        let l = lower();
        let mut b = vec![2.0, 7.0, 17.0];
        solve_lower(&l, &mut b, false).unwrap();
        // x = [1, 2, 1.8]: check L x = original b.
        let back = l.matvec(&b).unwrap();
        assert!((back[0] - 2.0).abs() < 1e-12);
        assert!((back[1] - 7.0).abs() < 1e-12);
        assert!((back[2] - 17.0).abs() < 1e-12);
    }

    #[test]
    fn dense_upper_solve() {
        let u = upper();
        let mut b = vec![4.0, 10.0, 5.0];
        solve_upper(&u, &mut b).unwrap();
        let back = u.matvec(&b).unwrap();
        for (got, want) in back.iter().zip(&[4.0, 10.0, 5.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_diagonal_detected() {
        // Zero on the diagonal.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let l = coo.to_csr().to_csc();
        let mut b = vec![1.0, 1.0];
        assert!(matches!(solve_lower(&l, &mut b, false), Err(Error::SingularMatrix { at: 1 })));
    }

    #[test]
    fn spsolve_matches_dense_solve_lower() {
        let l = lower();
        let mut ws = SpSolveWorkspace::new(3);
        let (pat, vals) = spsolve(&l, Triangle::Lower, &[0], &[2.0], false, &mut ws).unwrap();
        let mut dense = [0.0; 3];
        for (&i, &v) in pat.iter().zip(&vals) {
            dense[i] = v;
        }
        let mut b = vec![2.0, 0.0, 0.0];
        solve_lower(&l, &mut b, false).unwrap();
        for i in 0..3 {
            assert!((dense[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn spsolve_upper_reaches_backwards() {
        let u = upper();
        let mut ws = SpSolveWorkspace::new(3);
        // RHS e_2 reaches rows 1 and 0 through the upper structure.
        let (pat, vals) = spsolve(&u, Triangle::Upper, &[2], &[5.0], false, &mut ws).unwrap();
        let mut dense = [0.0; 3];
        for (&i, &v) in pat.iter().zip(&vals) {
            dense[i] = v;
        }
        let mut b = vec![0.0, 0.0, 5.0];
        solve_upper(&u, &mut b).unwrap();
        for i in 0..3 {
            assert!((dense[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn spsolve_workspace_is_reusable() {
        let l = lower();
        let mut ws = SpSolveWorkspace::new(3);
        for j in 0..3 {
            let (pat, vals) = spsolve(&l, Triangle::Lower, &[j], &[1.0], false, &mut ws).unwrap();
            // Solution of L x = e_j has x[j] = 1 / L[j][j].
            let pos = pat.iter().position(|&i| i == j).unwrap();
            assert!((vals[pos] - 1.0 / l.get(j, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn invert_lower_gives_true_inverse() {
        let l = lower();
        let linv = invert_triangular(&l, Triangle::Lower, false).unwrap();
        let prod = spgemm(&l.to_csr(), &linv.to_csr()).unwrap();
        assert!(prod.approx_eq(&CsrMatrix::identity(3), 1e-12));
    }

    #[test]
    fn invert_upper_gives_true_inverse() {
        let u = upper();
        let uinv = invert_triangular(&u, Triangle::Upper, false).unwrap();
        let prod = spgemm(&uinv.to_csr(), &u.to_csr()).unwrap();
        assert!(prod.approx_eq(&CsrMatrix::identity(3), 1e-12));
    }

    #[test]
    fn unit_diag_lower_ignores_missing_diagonal() {
        // Strictly lower entries only; unit diagonal implied.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 0, 0.5);
        coo.push(2, 1, 0.25);
        let l = coo.to_csr().to_csc();
        let linv = invert_triangular(&l, Triangle::Lower, true).unwrap();
        // (I + N)^{-1} where N strictly lower nilpotent.
        assert!((linv.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((linv.get(1, 0) + 0.5).abs() < 1e-12);
        assert!((linv.get(2, 0) - 0.125).abs() < 1e-12);
        assert!((linv.get(2, 1) + 0.25).abs() < 1e-12);
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = CscMatrix::identity(4);
        let inv = invert_triangular(&i, Triangle::Lower, false).unwrap();
        assert_eq!(inv.to_csr(), CsrMatrix::identity(4));
    }
}
