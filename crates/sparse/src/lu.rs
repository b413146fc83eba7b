//! LU factorizations: dense (partial pivoting), sparse Gilbert–Peierls
//! (no pivoting; valid for the column-diagonally-dominant matrices RWR
//! produces), and block-diagonal assembly (Lemma 1 of the BEAR paper).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Error, Result};
use crate::triangular::{invert_triangular, Triangle};
use crate::validate::Invariant;

/// Pivot magnitudes below this threshold are treated as exact zeros and
/// reported as singularity.
const PIVOT_TOL: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Dense LU with partial pivoting
// ---------------------------------------------------------------------------

/// Dense LU factorization `P A = L U` with partial (row) pivoting.
///
/// `L` has unit diagonal and is stored in the strictly-lower part of `lu`;
/// `U` occupies the upper part including the diagonal.
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    /// `pivots[k]` = original row moved into position `k`.
    pivots: Vec<usize>,
}

impl DenseLu {
    /// Factorizes a square dense matrix.
    pub fn factor(a: &DenseMatrix) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(Error::DimensionMismatch {
                op: "dense lu",
                lhs: (a.nrows(), a.ncols()),
                rhs: (n, n),
            });
        }
        let mut lu = a.clone();
        let mut pivots: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at or below k.
            let mut best = k;
            let mut best_val = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > best_val {
                    best = i;
                    best_val = v;
                }
            }
            if best_val < PIVOT_TOL {
                return Err(Error::SingularMatrix { at: k });
            }
            if best != k {
                pivots.swap(k, best);
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(best, c)];
                    lu[(best, c)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            // Rank-1 update with row slices: the pivot row is copied once
            // so each trailing row updates with a contiguous zip.
            let pivot_row: Vec<f64> = lu.row(k)[k + 1..].to_vec();
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    let row = &mut lu.row_mut(i)[k + 1..];
                    for (r, &p) in row.iter_mut().zip(&pivot_row) {
                        *r -= factor * p;
                    }
                }
            }
        }
        Ok(DenseLu { lu, pivots })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                op: "dense lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply row permutation, then forward/backward substitution with
        // contiguous row slices.
        let mut x: Vec<f64> = self.pivots.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let row = &self.lu.row(i)[..i];
            let acc: f64 = row.iter().zip(&x[..i]).map(|(l, v)| l * v).sum();
            x[i] -= acc;
        }
        for i in (0..n).rev() {
            let row = &self.lu.row(i)[i + 1..];
            let acc: f64 = row.iter().zip(&x[i + 1..]).map(|(u, v)| u * v).sum();
            x[i] = (x[i] - acc) / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Materializes `A⁻¹` by solving against the identity, processed in
    /// blocks of right-hand sides so each factor row streams through the
    /// cache once per block instead of once per column.
    pub fn inverse(&self) -> Result<DenseMatrix> {
        const B: usize = 16;
        let n = self.dim();
        let mut inv = DenseMatrix::zeros(n, n);
        // Block workspace, row-major: x[i * B + b] is entry i of RHS b.
        let mut x = vec![0.0f64; n * B];
        for j0 in (0..n).step_by(B) {
            let bw = B.min(n - j0);
            x.iter_mut().for_each(|v| *v = 0.0);
            // Scatter the permuted identity columns P e_{j0..j0+bw}.
            for (i, &p) in self.pivots.iter().enumerate() {
                if (j0..j0 + bw).contains(&p) {
                    x[i * B + (p - j0)] = 1.0;
                }
            }
            // Forward substitution with unit lower factor.
            for i in 0..n {
                let row = &self.lu.row(i)[..i];
                let mut acc = [0.0f64; B];
                for (k, &lik) in row.iter().enumerate() {
                    if lik != 0.0 {
                        let xk = &x[k * B..k * B + bw];
                        for (a, &v) in acc[..bw].iter_mut().zip(xk) {
                            *a += lik * v;
                        }
                    }
                }
                let xi = &mut x[i * B..i * B + bw];
                for (v, a) in xi.iter_mut().zip(&acc[..bw]) {
                    *v -= a;
                }
            }
            // Backward substitution with the upper factor.
            for i in (0..n).rev() {
                let d = self.lu[(i, i)];
                let row = &self.lu.row(i)[i + 1..];
                let mut acc = [0.0f64; B];
                for (off, &uik) in row.iter().enumerate() {
                    if uik != 0.0 {
                        let k = i + 1 + off;
                        let xk = &x[k * B..k * B + bw];
                        for (a, &v) in acc[..bw].iter_mut().zip(xk) {
                            *a += uik * v;
                        }
                    }
                }
                let xi = &mut x[i * B..i * B + bw];
                for (v, a) in xi.iter_mut().zip(&acc[..bw]) {
                    *v = (*v - a) / d;
                }
            }
            for i in 0..n {
                for b in 0..bw {
                    inv[(i, j0 + b)] = x[i * B + b];
                }
            }
        }
        Ok(inv)
    }
}

// ---------------------------------------------------------------------------
// Sparse LU (Gilbert–Peierls, no pivoting)
// ---------------------------------------------------------------------------

/// Sparse LU factorization `A = L U` without pivoting.
///
/// ```
/// use bear_sparse::{CooMatrix, SparseLu};
/// // A diagonally dominant system.
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, -1.0);
/// coo.push(1, 1, 3.0);
/// let lu = SparseLu::factor(&coo.to_csr().to_csc()).unwrap();
/// let x = lu.solve(&[5.0, 2.0]).unwrap();
/// // 4x + y = 5, -x + 3y = 2  =>  x = 1, y = 1.
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
///
/// Left-looking Gilbert–Peierls: column `k` of the factors is obtained by a
/// sparse triangular solve `L x = A(:,k)` against the already-computed
/// columns of `L`, with the reach of the right-hand side computed by DFS so
/// each column costs time proportional to the flops it performs.
///
/// No pivoting is performed: the caller must guarantee a stable pivot-free
/// elimination order. The matrices BEAR factors (`H₁₁` blocks and the Schur
/// complement of `H`) are strictly diagonally dominant by columns, for
/// which pivot-free LU is provably stable.
#[derive(Debug, Clone)]
pub struct SparseLu {
    /// Unit lower triangular factor (diagonal stored explicitly as 1.0).
    l: CscMatrix,
    /// Upper triangular factor.
    u: CscMatrix,
}

impl SparseLu {
    /// Factorizes a square CSC matrix.
    pub fn factor(a: &CscMatrix) -> Result<Self> {
        Self::factor_with_limit(a, usize::MAX)
    }

    /// Like [`SparseLu::factor`] but aborts with
    /// [`Error::OutOfBudget`] once the combined fill of `L` and `U`
    /// exceeds `max_nnz` entries.
    pub fn factor_with_limit(a: &CscMatrix, max_nnz: usize) -> Result<Self> {
        let n = a.ncols();
        if a.nrows() != n {
            return Err(Error::DimensionMismatch {
                op: "sparse lu",
                lhs: (a.nrows(), a.ncols()),
                rhs: (n, n),
            });
        }

        // Growing CSC arrays for L and U. Column k of L is final after
        // iteration k, which is exactly what the solve for column k+1 needs.
        let mut lp: Vec<usize> = Vec::with_capacity(n + 1);
        let mut li: Vec<usize> = Vec::new();
        let mut lx: Vec<f64> = Vec::new();
        let mut up: Vec<usize> = Vec::with_capacity(n + 1);
        let mut ui: Vec<usize> = Vec::new();
        let mut ux: Vec<f64> = Vec::new();
        lp.push(0);
        up.push(0);

        // Workspaces.
        let mut x = vec![0.0f64; n];
        let mut marked = vec![false; n];
        let mut dfs: Vec<(usize, usize)> = Vec::new();
        let mut order: Vec<usize> = Vec::new();

        for k in 0..n {
            // Reach of A(:,k) over the partial L's pattern. Nodes >= k have
            // no computed L column yet, so they have no outgoing edges.
            order.clear();
            let (a_rows, a_vals) = a.col(k);
            for &start in a_rows {
                if marked[start] {
                    continue;
                }
                marked[start] = true;
                dfs.push((start, 0));
                while let Some(&mut (node, ref mut edge)) = dfs.last_mut() {
                    let (lo, hi) = if node < k {
                        (lp[node], lp[node + 1])
                    } else {
                        (0, 0) // not yet factored: identity column
                    };
                    let mut advanced = false;
                    while lo + *edge < hi {
                        let next = li[lo + *edge];
                        *edge += 1;
                        if next != node && !marked[next] {
                            marked[next] = true;
                            dfs.push((next, 0));
                            advanced = true;
                            break;
                        }
                    }
                    if !advanced {
                        order.push(node);
                        dfs.pop();
                    }
                }
            }
            order.reverse();

            // Scatter A(:,k) and run the partial solve in topological order.
            for (&i, &v) in a_rows.iter().zip(a_vals) {
                x[i] = v;
            }
            for &j in order.iter() {
                if j >= k {
                    continue; // belongs to L's not-yet-factored region
                }
                let xj = x[j];
                if xj == 0.0 {
                    continue;
                }
                // L column j: unit diagonal stored first, sub-diagonal after.
                for idx in lp[j]..lp[j + 1] {
                    let i = li[idx];
                    if i != j {
                        x[i] -= lx[idx] * xj;
                    }
                }
            }

            // Split the solution into U(:,k) (rows <= k) and L(:,k)
            // (rows > k, scaled by the pivot).
            let pivot = x[k];
            if pivot.abs() < PIVOT_TOL {
                // Clean up workspace before bailing.
                for &i in &order {
                    x[i] = 0.0;
                    marked[i] = false;
                }
                return Err(Error::SingularMatrix { at: k });
            }

            let mut upper: Vec<(usize, f64)> = Vec::new();
            let mut lower: Vec<(usize, f64)> = Vec::new();
            for &i in &order {
                let v = x[i];
                x[i] = 0.0;
                marked[i] = false;
                if v == 0.0 {
                    continue;
                }
                if i < k {
                    upper.push((i, v));
                } else if i == k {
                    // diagonal of U
                } else {
                    lower.push((i, v / pivot));
                }
            }
            upper.sort_unstable_by_key(|&(i, _)| i);
            lower.sort_unstable_by_key(|&(i, _)| i);

            for (i, v) in upper {
                ui.push(i);
                ux.push(v);
            }
            ui.push(k);
            ux.push(pivot);
            up.push(ui.len());

            li.push(k);
            lx.push(1.0);
            for (i, v) in lower {
                li.push(i);
                lx.push(v);
            }
            lp.push(li.len());

            if li.len() + ui.len() > max_nnz {
                return Err(Error::OutOfBudget {
                    needed: crate::mem::sparse_bytes(n, li.len() + ui.len()),
                    budget: crate::mem::sparse_bytes(n, max_nnz),
                });
            }
        }

        Ok(SparseLu {
            l: CscMatrix::from_raw_unchecked(n, n, lp, li, lx),
            u: CscMatrix::from_raw_unchecked(n, n, up, ui, ux),
        })
    }

    /// The unit lower triangular factor.
    pub fn l(&self) -> &CscMatrix {
        &self.l
    }

    /// The upper triangular factor.
    pub fn u(&self) -> &CscMatrix {
        &self.u
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.ncols()
    }

    /// Solves `A x = b` by forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        crate::triangular::solve_lower(&self.l, &mut x, true)?;
        crate::triangular::solve_upper(&self.u, &mut x)?;
        Ok(x)
    }

    /// Materializes `L⁻¹` and `U⁻¹` as sparse matrices — the quantities
    /// BEAR's preprocessing stores (Algorithm 1, lines 5 and 8).
    pub fn invert_factors(&self) -> Result<(CscMatrix, CscMatrix)> {
        let linv = invert_triangular(&self.l, Triangle::Lower, true)?;
        let uinv = invert_triangular(&self.u, Triangle::Upper, false)?;
        Ok((linv, uinv))
    }

    /// [`SparseLu::invert_factors`] with a combined nnz cap; aborts with
    /// [`Error::OutOfBudget`] when either inverse would exceed it.
    pub fn invert_factors_with_limit(&self, max_nnz: usize) -> Result<(CscMatrix, CscMatrix)> {
        let linv = crate::triangular::invert_triangular_with_limit(
            &self.l,
            Triangle::Lower,
            true,
            max_nnz,
        )?;
        let remaining = max_nnz.saturating_sub(linv.nnz());
        let uinv = crate::triangular::invert_triangular_with_limit(
            &self.u,
            Triangle::Upper,
            false,
            remaining,
        )?;
        Ok((linv, uinv))
    }
}

// ---------------------------------------------------------------------------
// Block-diagonal LU (Lemma 1): the L/U factors (and their inverses) of a
// block-diagonal matrix are block-diagonal with the same block layout, so
// each diagonal block is factored on its own and the results are placed
// back along the diagonal.
// ---------------------------------------------------------------------------

/// Validates the block layout of `a` against `block_sizes` (square, sizes
/// summing to the dimension, no entry crossing a block boundary) and
/// returns each block's starting offset.
///
/// Entries outside the claimed diagonal blocks are rejected: silently
/// dropping them would make a per-block factorization wrong.
pub fn validate_block_layout(a: &CsrMatrix, block_sizes: &[usize]) -> Result<Vec<usize>> {
    let n = a.ncols();
    if a.nrows() != n {
        return Err(Error::DimensionMismatch {
            op: "block layout",
            lhs: (a.nrows(), a.ncols()),
            rhs: (n, n),
        });
    }
    let total: usize = block_sizes.iter().sum();
    if total != n {
        return Err(Error::InvalidStructure(format!("block sizes sum to {total}, expected {n}")));
    }
    // Map every index to its block id and offset for validation.
    let mut block_of = vec![0usize; n];
    let mut offsets = Vec::with_capacity(block_sizes.len());
    let mut off = 0;
    for (bid, &sz) in block_sizes.iter().enumerate() {
        offsets.push(off);
        block_of[off..off + sz].fill(bid);
        off += sz;
    }
    for (r, c, _) in a.iter() {
        if block_of[r] != block_of[c] {
            return Err(Error::InvalidStructure(format!(
                "entry ({r}, {c}) crosses block boundary"
            )));
        }
    }
    Ok(offsets)
}

impl Invariant for SparseLu {
    fn validate(&self) -> Result<()> {
        let n = self.l.ncols();
        if self.l.nrows() != n || self.u.nrows() != n || self.u.ncols() != n {
            return Err(Error::InvalidStructure(format!(
                "LU factors are not square matrices of one dimension: L is {}x{}, U is {}x{}",
                self.l.nrows(),
                self.l.ncols(),
                self.u.nrows(),
                self.u.ncols()
            )));
        }
        self.l.validate()?;
        self.u.validate()?;
        for j in 0..n {
            // L: unit lower triangular with the diagonal stored explicitly.
            let (rows, vals) = self.l.col(j);
            match (rows.first(), vals.first()) {
                (Some(&r), Some(&v)) if r == j && v == 1.0 => {}
                _ => {
                    return Err(Error::InvalidStructure(format!(
                        "L column {j} does not start with an explicit unit diagonal"
                    )))
                }
            }
            // U: upper triangular, so row indices in column j end at j.
            let (rows, _) = self.u.col(j);
            if let Some(&r) = rows.last() {
                if r > j {
                    return Err(Error::InvalidStructure(format!(
                        "U has a sub-diagonal entry ({r}, {j})"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builds a block-diagonal CSC matrix one square block at a time: each
/// pushed block lands on the diagonal right after the previous one.
#[derive(Debug, Clone)]
pub struct BlockDiagBuilder {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Default for BlockDiagBuilder {
    fn default() -> Self {
        BlockDiagBuilder { indptr: vec![0], indices: Vec::new(), values: Vec::new() }
    }
}

impl BlockDiagBuilder {
    /// Dimension placed so far.
    pub fn dim(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Stored nonzeros placed so far.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Appends the square `block` at offset [`BlockDiagBuilder::dim`].
    pub fn push(&mut self, block: &CscMatrix) {
        debug_assert_eq!(block.nrows(), block.ncols());
        let off = self.dim();
        for c in 0..block.ncols() {
            let (rows, vals) = block.col(c);
            self.indices.extend(rows.iter().map(|&r| r + off));
            self.values.extend_from_slice(vals);
            self.indptr.push(self.indices.len());
        }
    }

    /// The finished `dim × dim` matrix.
    pub fn finish(self) -> CscMatrix {
        let dim = self.dim();
        CscMatrix::from_raw_unchecked(dim, dim, self.indptr, self.indices, self.values)
    }
}

impl crate::mem::MemoryUsage for BlockDiagBuilder {
    /// What [`BlockDiagBuilder::finish`] would report: the matrix placed
    /// so far in CSC storage.
    fn memory_bytes(&self) -> usize {
        crate::mem::sparse_bytes(self.dim(), self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::ops::spgemm;

    fn dense_to_csc(d: &DenseMatrix) -> CscMatrix {
        d.to_csr(0.0).to_csc()
    }

    #[test]
    fn dense_lu_solves_known_system() {
        let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&[10.0, 12.0]).unwrap();
        // 4x + 3y = 10, 6x + 3y = 12 => x = 1, y = 2.
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_lu_inverse_round_trip() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]])
            .unwrap();
        let inv = DenseLu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)) < 1e-12);
    }

    #[test]
    fn dense_lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(DenseLu::factor(&a), Err(Error::SingularMatrix { .. })));
    }

    #[test]
    fn dense_lu_pivots_when_needed() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    /// A diagonally dominant sparse test matrix.
    fn dd_matrix() -> CscMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 4.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -0.5);
        coo.push(1, 2, -1.0);
        coo.push(2, 3, -0.5);
        coo.push(3, 0, -1.0);
        coo.to_csr().to_csc()
    }

    #[test]
    fn sparse_lu_reconstructs_matrix() {
        let a = dd_matrix();
        let lu = SparseLu::factor(&a).unwrap();
        let prod = spgemm(&lu.l().to_csr(), &lu.u().to_csr()).unwrap();
        assert!(prod.approx_eq(&a.to_csr(), 1e-12));
    }

    #[test]
    fn sparse_lu_solve_matches_dense() {
        let a = dd_matrix();
        let lu = SparseLu::factor(&a).unwrap();
        let dense_lu = DenseLu::factor(&a.to_csr().to_dense()).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let xs = lu.solve(&b).unwrap();
        let xd = dense_lu.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn sparse_lu_factors_are_triangular() {
        let a = dd_matrix();
        let lu = SparseLu::factor(&a).unwrap();
        for (r, c, _) in lu.l().iter() {
            assert!(r >= c, "L has entry above diagonal at ({r},{c})");
        }
        for (r, c, _) in lu.u().iter() {
            assert!(r <= c, "U has entry below diagonal at ({r},{c})");
        }
        // L diagonal is exactly 1.
        for j in 0..4 {
            assert_eq!(lu.l().get(j, j), 1.0);
        }
    }

    #[test]
    fn sparse_lu_inverted_factors_multiply_to_inverse() {
        let a = dd_matrix();
        let lu = SparseLu::factor(&a).unwrap();
        let (linv, uinv) = lu.invert_factors().unwrap();
        // A^{-1} = U^{-1} L^{-1}.
        let ainv = spgemm(&uinv.to_csr(), &linv.to_csr()).unwrap();
        let prod = spgemm(&a.to_csr(), &ainv).unwrap();
        assert!(prod.approx_eq(&CsrMatrix::identity(4), 1e-10));
    }

    #[test]
    fn sparse_lu_detects_singular() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        // Column 1 empty -> singular at pivot 1.
        let a = coo.to_csr().to_csc();
        assert!(matches!(SparseLu::factor(&a), Err(Error::SingularMatrix { at: 1 })));
    }

    #[test]
    fn block_layout_rejects_cross_block_entries() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0);
        }
        assert_eq!(validate_block_layout(&coo.to_csr(), &[1, 2, 1]).unwrap(), vec![0, 1, 3]);
        coo.push(0, 3, 1.0); // crosses the 2|2 boundary
        assert!(validate_block_layout(&coo.to_csr(), &[2, 2]).is_err());
    }

    #[test]
    fn block_diag_inverse_factors_lemma1() {
        // Lemma 1: inverted factors of a block-diagonal matrix are
        // block-diagonal and equal to the whole-matrix inverted factors.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 3.0);
        }
        coo.push(1, 0, 1.0);
        coo.push(2, 3, -1.0);
        let a = coo.to_csr();
        let (mut bl, mut bu) = (BlockDiagBuilder::default(), BlockDiagBuilder::default());
        for off in [0, 2] {
            let block = a.submatrix(off, off + 2, off, off + 2).unwrap().to_csc();
            let (l, u) = SparseLu::factor(&block).unwrap().invert_factors().unwrap();
            bl.push(&l);
            bu.push(&u);
        }
        let (bl, bu) = (bl.finish(), bu.finish());
        let whole = SparseLu::factor(&a.to_csc()).unwrap();
        let (wl, wu) = whole.invert_factors().unwrap();
        assert!(bl.to_csr().approx_eq(&wl.to_csr(), 1e-12));
        assert!(bu.to_csr().approx_eq(&wu.to_csr(), 1e-12));
        // And entries never cross block boundaries.
        for (r, c, _) in bl.iter() {
            assert_eq!(r / 2, c / 2);
        }
    }

    #[test]
    fn block_sizes_must_sum_to_dim() {
        let a = CsrMatrix::identity(4);
        assert!(validate_block_layout(&a, &[2, 1]).is_err());
        assert!(validate_block_layout(&CsrMatrix::zeros(4, 3), &[4]).is_err());
    }

    #[test]
    fn factor_with_limit_aborts_on_fill() {
        let a = dd_matrix();
        assert!(matches!(SparseLu::factor_with_limit(&a, 3), Err(Error::OutOfBudget { .. })));
        // A generous limit succeeds.
        assert!(SparseLu::factor_with_limit(&a, 1_000).is_ok());
    }

    #[test]
    fn invert_factors_with_limit_aborts_on_fill() {
        let a = dd_matrix();
        let lu = SparseLu::factor(&a).unwrap();
        assert!(matches!(lu.invert_factors_with_limit(2), Err(Error::OutOfBudget { .. })));
        let (l, u) = lu.invert_factors_with_limit(1_000).unwrap();
        let (l2, u2) = lu.invert_factors().unwrap();
        assert_eq!(l.to_csr(), l2.to_csr());
        assert_eq!(u.to_csr(), u2.to_csr());
    }

    #[test]
    fn dense_lu_matches_sparse_on_random_dd() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20;
        let mut d = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.gen_bool(0.2) {
                    d[(i, j)] = rng.gen_range(-1.0..1.0);
                }
            }
        }
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| d[(i, j)].abs()).sum();
            d[(i, i)] = row_sum + 1.0;
        }
        let sparse = dense_to_csc(&d);
        let slu = SparseLu::factor(&sparse).unwrap();
        let dlu = DenseLu::factor(&d).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = slu.solve(&b).unwrap();
        let xd = dlu.solve(&b).unwrap();
        for (s, dd) in xs.iter().zip(&xd) {
            assert!((s - dd).abs() < 1e-9);
        }
    }
}
