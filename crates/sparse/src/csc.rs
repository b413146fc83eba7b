//! Compressed sparse column matrix, used by the factorization and
//! triangular-solve kernels (which are naturally column-oriented).

use crate::block::DenseBlock;
use crate::csr::CsrMatrix;
use crate::error::{Error, Result};
use crate::validate::{check_compressed, check_finite, Invariant, Mutation};

/// A sparse matrix in compressed sparse column (CSC) format.
///
/// Same invariants as [`CsrMatrix`] with rows/columns swapped: `indptr` has
/// one entry per column, `indices` are row indices strictly increasing
/// within each column.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix after validating structural invariants.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        // The arrays are validated in place and moved in, never copied:
        // a paged index builds two of these on every fault.
        check_compressed("column", ncols, nrows, &indptr, &indices, &values)?;
        Ok(CscMatrix { nrows, ncols, indptr, indices, values })
    }

    /// Builds a CSC matrix after running the full [`Invariant`] audit:
    /// everything [`CscMatrix::from_raw`] checks, plus finiteness of every
    /// stored value. This is the constructor for trust boundaries
    /// (deserialization, file ingestion).
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let m = Self::from_raw(nrows, ncols, indptr, indices, values)?;
        check_finite(m.values())?;
        Ok(m)
    }

    /// Builds a CSC matrix without validation (see
    /// [`CsrMatrix::from_raw_unchecked`]). With the `strict-invariants`
    /// feature the full audit runs anyway and panics on violation.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), ncols + 1);
        debug_assert_eq!(indices.len(), values.len());
        let m = CscMatrix { nrows, ncols, indptr, indices, values };
        #[cfg(feature = "strict-invariants")]
        crate::validate::assert_strict(&m, "CscMatrix::from_raw_unchecked");
        m
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw column pointer array.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw row index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[c], self.indptr[c + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(r, c)` or zero.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (rows, vals) = self.col(c);
        match rows.binary_search(&r) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Converts to CSR (O(nnz) reshuffle).
    pub fn to_csr(&self) -> CsrMatrix {
        // A CSC matrix's arrays are exactly the CSR arrays of its
        // transpose, so transposing them gives this matrix by rows.
        let (indptr, indices, values) =
            crate::csr::transpose_parts(self.nrows, &self.indptr, &self.indices, &self.values);
        CsrMatrix::from_raw_unchecked(self.nrows, self.ncols, indptr, indices, values)
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                op: "csc matvec",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.matvec_acc(x, &mut y)?;
        Ok(y)
    }

    /// `y = A x` written into a caller-owned buffer: the allocation-free
    /// form of [`CscMatrix::matvec`], bit-identical to it (same scatter
    /// order). `y` must not alias `x`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                op: "csc matvec_into",
                lhs: (self.nrows, self.ncols),
                rhs: (y.len(), x.len()),
            });
        }
        y.fill(0.0);
        self.matvec_acc(x, y)
    }

    /// `y += A x` accumulated into a caller-owned buffer (no allocation).
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                op: "csc matvec_acc",
                lhs: (self.nrows, self.ncols),
                rhs: (y.len(), x.len()),
            });
        }
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r] += v * xc;
            }
        }
        Ok(())
    }

    /// `Y = A X` for a column-major dense block: the multi-RHS form of
    /// [`CscMatrix::matvec_into`]. Column `j` of `Y` is bit-identical to
    /// `matvec_into(X.col(j), Y.col(j))` — per RHS column the scatter
    /// visits matrix columns in the same order and keeps the same
    /// `x == 0` skip — but each matrix column's structure is walked once
    /// for all `k` right-hand sides. Width-1 blocks delegate to the
    /// vector kernel outright.
    pub fn spmm_into(&self, x: &DenseBlock, y: &mut DenseBlock) -> Result<()> {
        if x.nrows() != self.ncols || y.nrows() != self.nrows || x.ncols() != y.ncols() {
            return Err(Error::DimensionMismatch {
                op: "csc spmm_into",
                lhs: (self.nrows, self.ncols),
                rhs: (x.nrows(), x.ncols()),
            });
        }
        if x.ncols() == 1 {
            return self.matvec_into(x.col(0), y.col_mut(0));
        }
        y.fill(0.0);
        self.spmm_acc_inner(x, y);
        Ok(())
    }

    /// `Y += A X` accumulated into a caller-owned block: the multi-RHS
    /// form of [`CscMatrix::matvec_acc`], with the same per-column
    /// bit-identity guarantee as [`CscMatrix::spmm_into`].
    pub fn spmm_acc(&self, x: &DenseBlock, y: &mut DenseBlock) -> Result<()> {
        if x.nrows() != self.ncols || y.nrows() != self.nrows || x.ncols() != y.ncols() {
            return Err(Error::DimensionMismatch {
                op: "csc spmm_acc",
                lhs: (self.nrows, self.ncols),
                rhs: (x.nrows(), x.ncols()),
            });
        }
        if x.ncols() == 1 {
            return self.matvec_acc(x.col(0), y.col_mut(0));
        }
        self.spmm_acc_inner(x, y);
        Ok(())
    }

    /// Shared scatter loop of the blocked multiplies (dimensions already
    /// checked): matrix columns outer so each column's structure is hot
    /// in cache while all `k` right-hand sides consume it.
    fn spmm_acc_inner(&self, x: &DenseBlock, y: &mut DenseBlock) {
        let k = x.ncols();
        for c in 0..self.ncols {
            let (rows, vals) = self.col(c);
            if rows.is_empty() {
                continue;
            }
            for j in 0..k {
                let xc = x[(c, j)];
                if xc == 0.0 {
                    continue;
                }
                let yj = y.col_mut(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    yj[r] += v * xc;
                }
            }
        }
    }

    /// `Y = M[base.., base..] · X` on one diagonal block of dimension
    /// `d = x.len() / k`, with `X` and `Y` **row-major** `d × k` buffers:
    /// row `r`'s `k` values are `x[r*k .. (r+1)*k]`, one per right-hand
    /// side. Each stored nonzero is read once and updates all `k`
    /// right-hand sides in a fixed-width inner loop (widths 1, 2, 4, 8
    /// and 16 are specialised). Rows of the block's columns that fall
    /// outside `[base, base + d)` are dropped: the caller's matrix is
    /// block diagonal. At `k = 1` the buffers are plain vectors.
    ///
    /// Right-hand side `j` of `Y` is **bit-identical** to
    /// [`CscMatrix::matvec_into`] on the block's submatrix and column `j`
    /// of `X`. Each output element adds its products in ascending column
    /// order, as the vector kernel does. A column is skipped only when all
    /// `k` of its inputs are exact zeros; otherwise a right-hand side whose
    /// input is `±0` adds `v·(±0) = ±0`, which changes no bits: `v` is
    /// finite, the accumulator starts at `+0.0`, and a round-to-nearest
    /// sum is `−0.0` only when both operands are, so the accumulator never
    /// is. Rust never contracts `v * x + y` into a fused multiply-add, so
    /// the vectorised loop rounds exactly as the scalar one does.
    pub fn interleaved_block_into(
        &self,
        base: usize,
        k: usize,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<()> {
        let dim = x.len().checked_div(k).unwrap_or(0);
        let fits = base.checked_add(dim).is_some_and(|end| end <= self.ncols && end <= self.nrows);
        if k == 0 || dim * k != x.len() || y.len() != x.len() || !fits {
            return Err(Error::DimensionMismatch {
                op: "csc interleaved_block_into",
                lhs: (self.nrows, self.ncols),
                rhs: (base.saturating_add(dim), k),
            });
        }
        y.fill(0.0);
        match k {
            1 => self.interleaved_fixed::<1>(base, x, y),
            2 => self.interleaved_fixed::<2>(base, x, y),
            4 => self.interleaved_fixed::<4>(base, x, y),
            8 => self.interleaved_fixed::<8>(base, x, y),
            16 => self.interleaved_fixed::<16>(base, x, y),
            _ => self.interleaved_any(base, k, x, y),
        }
        Ok(())
    }

    /// [`CscMatrix::interleaved_block_into`] at a compile-time width, so
    /// the per-nonzero loop over the `K` right-hand sides is unrolled and
    /// vectorised (shapes already checked).
    fn interleaved_fixed<const K: usize>(&self, base: usize, x: &[f64], y: &mut [f64]) {
        let (x_rows, _) = x.as_chunks::<K>();
        let (y_rows, _) = y.as_chunks_mut::<K>();
        for (c, xs) in (base..).zip(x_rows) {
            if xs.iter().all(|&v| v == 0.0) {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                if let Some(ys) = r.checked_sub(base).and_then(|i| y_rows.get_mut(i)) {
                    for (yv, &xv) in ys.iter_mut().zip(xs) {
                        *yv += v * xv;
                    }
                }
            }
        }
    }

    /// [`CscMatrix::interleaved_block_into`] at any other width (shapes
    /// already checked).
    fn interleaved_any(&self, base: usize, k: usize, x: &[f64], y: &mut [f64]) {
        let dim = x.len() / k;
        for (c, xs) in (base..).zip(x.chunks_exact(k)) {
            if xs.iter().all(|&v| v == 0.0) {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                let Some(i) = r.checked_sub(base).filter(|&i| i < dim) else { continue };
                if let Some(ys) = y.get_mut(i * k..(i + 1) * k) {
                    for (yv, &xv) in ys.iter_mut().zip(xs) {
                        *yv += v * xv;
                    }
                }
            }
        }
    }

    /// Iterates over stored entries as `(row, col, value)` in column-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, c, v))
        })
    }
}

impl Invariant for CscMatrix {
    fn validate(&self) -> Result<()> {
        // A CSC matrix is structurally a CSR matrix of its transpose:
        // columns are the outer axis, row indices the inner.
        check_compressed(
            "column",
            self.ncols,
            self.nrows,
            &self.indptr,
            &self.indices,
            &self.values,
        )?;
        check_finite(&self.values)
    }
}

impl CscMatrix {
    /// Test support: breaks exactly one invariant in place, bypassing every
    /// constructor check. Returns whether the mutation was applicable.
    /// See [`crate::validate`].
    #[doc(hidden)]
    pub fn apply_mutation(&mut self, mutation: Mutation) -> bool {
        crate::csr::apply_compressed_mutation(
            mutation,
            self.nrows,
            &mut self.indptr,
            &mut self.indices,
            &mut self.values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample_csr() -> CsrMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m.push(2, 2, 5.0);
        m.to_csr()
    }

    #[test]
    fn csr_csc_round_trip() {
        let csr = sample_csr();
        let csc = csr.to_csc();
        assert_eq!(csc.nnz(), csr.nnz());
        assert_eq!(csc.get(2, 0), 4.0);
        assert_eq!(csc.get(0, 2), 2.0);
        assert_eq!(csc.to_csr(), csr);
    }

    #[test]
    fn csc_matvec_agrees_with_csr() {
        let csr = sample_csr();
        let csc = csr.to_csc();
        let x = vec![1.0, 2.0, -1.0];
        assert_eq!(csc.matvec(&x).unwrap(), csr.matvec(&x).unwrap());
    }

    #[test]
    fn col_access() {
        let csc = sample_csr().to_csc();
        let (rows, vals) = csc.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
    }

    #[test]
    fn identity_round_trips() {
        let i = CscMatrix::identity(3);
        assert_eq!(i.to_csr(), CsrMatrix::identity(3));
    }

    #[test]
    fn from_raw_validates() {
        // Row indices out of bounds.
        assert!(CscMatrix::from_raw(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Valid 2x1 column.
        let m = CscMatrix::from_raw(2, 1, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.get(1, 0), 2.0);
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let mut coo = CooMatrix::new(3, 3);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(r, c, v);
        }
        let csc = coo.to_csr().to_csc();
        let x = [0.5, -2.5, 1.5];
        let allocated = csc.matvec(&x).unwrap();
        let mut buf = vec![7.7; 3]; // stale contents must be zeroed first
        csc.matvec_into(&x, &mut buf).unwrap();
        assert_eq!(buf, allocated);
        // And the accumulating form adds on top.
        let mut acc = allocated.clone();
        csc.matvec_acc(&x, &mut acc).unwrap();
        for (a, b) in acc.iter().zip(&allocated) {
            assert_eq!(*a, 2.0 * b);
        }
        assert!(csc.matvec_into(&x, &mut [0.0; 2]).is_err());
    }

    #[test]
    fn spmm_columns_bitwise_equal_matvec() {
        let csc = sample_csr().to_csc();
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|j| {
                (0..3)
                    .map(|i| if (i + j) % 3 == 0 { 0.0 } else { ((i * 3 + j) as f64).cos() * 7.7 })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let x = DenseBlock::from_columns(3, &refs).unwrap();
        let mut y = DenseBlock::zeros(3, 4);
        csc.spmm_into(&x, &mut y).unwrap();
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(y.col(j), csc.matvec(col).unwrap(), "column {j}");
        }
        let mut acc = y.clone();
        csc.spmm_acc(&x, &mut acc).unwrap();
        for (j, col) in cols.iter().enumerate() {
            let mut want = y.col(j).to_vec();
            csc.matvec_acc(col, &mut want).unwrap();
            assert_eq!(acc.col(j), &want[..], "column {j}");
        }
        // Width-1 fallback and shape validation.
        let one = DenseBlock::from_columns(3, &[cols[0].as_slice()]).unwrap();
        let mut y1 = DenseBlock::zeros(3, 1);
        csc.spmm_into(&one, &mut y1).unwrap();
        assert_eq!(y1.col(0), csc.matvec(&cols[0]).unwrap());
        assert!(csc.spmm_into(&DenseBlock::zeros(2, 4), &mut DenseBlock::zeros(3, 4)).is_err());
        assert!(csc.spmm_acc(&DenseBlock::zeros(3, 4), &mut DenseBlock::zeros(3, 2)).is_err());
    }

    /// The interleaved block kernel against `matvec_into` per seed, at
    /// every width from 1 to 17, on the lower-right 2×2 block of a 4×4
    /// matrix with negative values. Seed `j`'s input is zero in block
    /// column 0 for odd `j` (the column still runs for the even seeds)
    /// and `−0.0` in column 1 for `j % 3 == 0`; seed 2's block is all zero.
    #[test]
    fn interleaved_block_matches_matvec_at_every_width() {
        let mut coo = CooMatrix::new(4, 4);
        for &(r, c, v) in &[(0, 0, 9.0), (2, 2, -1.5), (3, 2, 2.0), (2, 3, -0.5), (3, 3, 4.0)] {
            coo.push(r, c, v);
        }
        coo.push(0, 3, 3.0); // outside the block: dropped
        let m = coo.to_csr().to_csc();
        let block =
            CscMatrix::from_raw(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![-1.5, 2.0, -0.5, 4.0])
                .unwrap();
        let seed = |j: usize| -> [f64; 2] {
            let odd = j % 2 == 1;
            let second = match (j.is_multiple_of(3), odd) {
                (true, _) => -0.0,
                (false, true) => 0.25 * j as f64,
                (false, false) => -0.75,
            };
            match j {
                2 => [0.0, -0.0],
                _ if odd => [0.0, second],
                _ => [1.0 + j as f64, second],
            }
        };
        for k in 1..=17 {
            let x: Vec<f64> = (0..2).flat_map(|r| (0..k).map(move |j| seed(j)[r])).collect();
            let mut y = vec![f64::NAN; 2 * k];
            m.interleaved_block_into(2, k, &x, &mut y).unwrap();
            for j in 0..k {
                let want = block.matvec(&seed(j)).unwrap();
                let got = [y[j], y[k + j]];
                assert_eq!(
                    got.map(f64::to_bits),
                    [want[0].to_bits(), want[1].to_bits()],
                    "k {k} j {j}"
                );
            }
        }
        // Shape checks: zero width, a ragged buffer, a block past the end.
        assert!(m.interleaved_block_into(0, 0, &[], &mut []).is_err());
        assert!(m.interleaved_block_into(0, 2, &[0.0; 3], &mut [0.0; 3]).is_err());
        assert!(m.interleaved_block_into(3, 1, &[0.0; 2], &mut [0.0; 2]).is_err());
        assert!(m.interleaved_block_into(0, 1, &[0.0; 2], &mut [0.0; 3]).is_err());
    }
}
