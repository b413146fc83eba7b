//! Compressed sparse row matrix: the crate's primary format.

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Error, Result};
use crate::validate::{check_compressed, check_finite, Invariant, Mutation};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// ```
/// use bear_sparse::{CooMatrix, CsrMatrix};
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 2, 2.0);
/// let m: CsrMatrix = coo.to_csr();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(1, 2), 2.0);
/// assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![1.0, 2.0]);
/// ```
///
/// Invariants (enforced by [`CsrMatrix::from_raw`], assumed by the unchecked
/// constructor):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, monotone non-decreasing;
/// * `indices` within every row are strictly increasing and `< ncols`;
/// * `indices.len() == values.len() == indptr[nrows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix after validating all structural invariants
    /// (value finiteness is *not* checked; see
    /// [`CsrMatrix::try_from_parts`]).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        check_compressed("row", nrows, ncols, &indptr, &indices, &values)?;
        Ok(CsrMatrix { nrows, ncols, indptr, indices, values })
    }

    /// Builds a CSR matrix after running the full [`Invariant`] audit:
    /// everything [`CsrMatrix::from_raw`] checks, plus finiteness of every
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

    /// Builds a CSR matrix without validation. Caller must uphold the type's
    /// invariants; used on hot paths where the arrays were just produced by
    /// a kernel that guarantees them. With the `strict-invariants` feature
    /// the full audit runs anyway and panics on violation.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(*indptr.last().unwrap(), indices.len());
        let m = CsrMatrix { nrows, ncols, indptr, indices, values };
        #[cfg(feature = "strict-invariants")]
        crate::validate::assert_strict(&m, "CsrMatrix::from_raw_unchecked");
        m
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// An all-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
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

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to values (structure is fixed; only values change).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)`, or `0.0` if not stored. Binary search within the
    /// row; O(log nnz(row)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// `y = A x` (dense vector).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                op: "matvec",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// `y = A x` written into a caller-owned buffer: the allocation-free
    /// form of [`CsrMatrix::matvec`], bit-identical to it (same loop and
    /// accumulation order).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                op: "matvec_into",
                lhs: (self.nrows, self.ncols),
                rhs: (y.len(), x.len()),
            });
        }
        for (yr, acc) in y.iter_mut().zip(self.row_products(x)) {
            *yr = acc;
        }
        Ok(())
    }

    /// `y += A x` accumulated into a caller-owned buffer (no allocation).
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                op: "matvec_acc",
                lhs: (self.nrows, self.ncols),
                rhs: (y.len(), x.len()),
            });
        }
        for (yr, acc) in y.iter_mut().zip(self.row_products(x)) {
            *yr += acc;
        }
        Ok(())
    }

    /// Each row's `Σ v·x[c]`, summed from `0.0` over the row's nonzeros
    /// in stored order: the one accumulation every vector product here
    /// runs. The rows are walked as `indptr` windows over the whole
    /// index and value arrays, with no per-row slicing through
    /// [`CsrMatrix::row`]. `x` must have length `ncols`.
    fn row_products<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let (indices, values) = (self.indices.as_slice(), self.values.as_slice());
        self.indptr.windows(2).map(move |w| {
            let (lo, hi) = (w[0], w[1]);
            let mut acc = 0.0;
            for (&c, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
                acc += v * x[c];
            }
            acc
        })
    }

    /// `Y = A X` with `X` and `Y` **row-major** buffers of `k` values a
    /// row (`ncols × k` and `nrows × k`): row `r`'s `k` values are
    /// `y[r*k .. (r+1)*k]`, one per right-hand side. Each stored nonzero
    /// is read once and updates all `k` right-hand sides in a fixed-width
    /// inner loop (widths 2, 4, 8 and 16 are specialised). At `k = 1` the
    /// buffers are plain vectors and this is [`CsrMatrix::matvec_into`].
    ///
    /// Right-hand side `j` of `Y` is **bit-identical** to `matvec_into`
    /// on right-hand side `j` of `X`: each output element starts from
    /// `0.0` and adds its row's products in stored order, as the vector
    /// kernel does, and Rust never contracts `v * x + acc` into a fused
    /// multiply-add, so the vectorised loop rounds as the scalar one.
    pub fn interleaved_into(&self, k: usize, x: &[f64], y: &mut [f64]) -> Result<()> {
        let fits = |len: usize, rows: usize| rows.checked_mul(k) == Some(len);
        if k == 0 || !fits(x.len(), self.ncols) || !fits(y.len(), self.nrows) {
            return Err(Error::DimensionMismatch {
                op: "csr interleaved_into",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len().checked_div(k).unwrap_or(0), k),
            });
        }
        match k {
            1 => return self.matvec_into(x, y),
            2 => self.interleaved_fixed::<2>(x, y),
            4 => self.interleaved_fixed::<4>(x, y),
            8 => self.interleaved_fixed::<8>(x, y),
            16 => self.interleaved_fixed::<16>(x, y),
            _ => self.interleaved_any(k, x, y),
        }
        Ok(())
    }

    /// [`CsrMatrix::interleaved_into`] at a compile-time width, so the
    /// per-nonzero loop over the `K` right-hand sides is unrolled and
    /// vectorised (shapes already checked).
    fn interleaved_fixed<const K: usize>(&self, x: &[f64], y: &mut [f64]) {
        let (indices, values) = (self.indices.as_slice(), self.values.as_slice());
        let (x_rows, _) = x.as_chunks::<K>();
        let (y_rows, _) = y.as_chunks_mut::<K>();
        for (ys, w) in y_rows.iter_mut().zip(self.indptr.windows(2)) {
            let (lo, hi) = (w[0], w[1]);
            let mut acc = [0.0; K];
            for (&c, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
                for (a, &xv) in acc.iter_mut().zip(&x_rows[c]) {
                    *a += v * xv;
                }
            }
            *ys = acc;
        }
    }

    /// [`CsrMatrix::interleaved_into`] at any other width (shapes
    /// already checked).
    fn interleaved_any(&self, k: usize, x: &[f64], y: &mut [f64]) {
        let (indices, values) = (self.indices.as_slice(), self.values.as_slice());
        for (ys, w) in y.chunks_exact_mut(k).zip(self.indptr.windows(2)) {
            let (lo, hi) = (w[0], w[1]);
            ys.fill(0.0);
            for (&c, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
                for (a, &xv) in ys.iter_mut().zip(&x[c * k..(c + 1) * k]) {
                    *a += v * xv;
                }
            }
        }
    }

    /// `y = Aᵀ x` without materializing the transpose.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                op: "matvec_transpose",
                lhs: (self.ncols, self.nrows),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.ncols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c] += v * xr;
            }
        }
        Ok(y)
    }

    /// Materialized transpose, still in CSR.
    pub fn transpose(&self) -> CsrMatrix {
        let (indptr, indices, values) =
            transpose_parts(self.ncols, &self.indptr, &self.indices, &self.values);
        CsrMatrix::from_raw_unchecked(self.ncols, self.nrows, indptr, indices, values)
    }

    /// Reinterprets this CSR matrix as CSC of the same logical matrix
    /// (requires a transpose-shaped reshuffle; O(nnz)).
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_raw_unchecked(self.nrows, self.ncols, t.indptr, t.indices, t.values)
    }

    /// Converts to a dense row-major matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Returns `alpha * A` as a new matrix.
    pub fn scale(&self, alpha: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= alpha;
        }
        out
    }

    /// Extracts the submatrix with rows in `[r0, r1)` and columns in
    /// `[c0, c1)`, reindexed to start at zero. Used to partition `H` into
    /// `H₁₁, H₁₂, H₂₁, H₂₂`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<CsrMatrix> {
        if r1 > self.nrows || c1 > self.ncols || r0 > r1 || c0 > c1 {
            return Err(Error::InvalidStructure(format!(
                "submatrix bounds ({r0}..{r1}, {c0}..{c1}) invalid for {}x{}",
                self.nrows, self.ncols
            )));
        }
        let mut indptr = Vec::with_capacity(r1 - r0 + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in r0..r1 {
            let (cols, vals) = self.row(r);
            // Binary search for the column window once per row.
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            for (&c, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                indices.push(c - c0);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_raw_unchecked(r1 - r0, c1 - c0, indptr, indices, values))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Checks symmetric equality with another matrix within `tol`
    /// (entry-wise on the union of patterns).
    pub fn approx_eq(&self, other: &CsrMatrix, tol: f64) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let (ca, va) = self.row(r);
            let (cb, vb) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ca.len() || j < cb.len() {
                let (a, b) = match (ca.get(i), cb.get(j)) {
                    (Some(&c1), Some(&c2)) if c1 == c2 => {
                        let pair = (va[i], vb[j]);
                        i += 1;
                        j += 1;
                        pair
                    }
                    (Some(&c1), Some(&c2)) if c1 < c2 => {
                        let pair = (va[i], 0.0);
                        i += 1;
                        pair
                    }
                    (Some(_), Some(_)) => {
                        let pair = (0.0, vb[j]);
                        j += 1;
                        pair
                    }
                    (Some(_), None) => {
                        let pair = (va[i], 0.0);
                        i += 1;
                        pair
                    }
                    (None, Some(_)) => {
                        let pair = (0.0, vb[j]);
                        j += 1;
                        pair
                    }
                    (None, None) => unreachable!(),
                };
                if (a - b).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Invariant for CsrMatrix {
    fn validate(&self) -> Result<()> {
        check_compressed("row", self.nrows, self.ncols, &self.indptr, &self.indices, &self.values)?;
        check_finite(&self.values)
    }
}

impl CsrMatrix {
    /// Test support: breaks exactly one invariant in place, bypassing every
    /// constructor check. Returns whether the mutation was applicable (e.g.
    /// [`Mutation::SwapAdjacentIndices`] needs a row with two entries).
    /// See [`crate::validate`].
    #[doc(hidden)]
    pub fn apply_mutation(&mut self, mutation: Mutation) -> bool {
        apply_compressed_mutation(
            mutation,
            self.ncols,
            &mut self.indptr,
            &mut self.indices,
            &mut self.values,
        )
    }
}

/// Shared implementation of [`Mutation`] for the two compressed formats;
/// operates on the raw arrays so CSR and CSC behave identically.
pub(crate) fn apply_compressed_mutation(
    mutation: Mutation,
    inner: usize,
    indptr: &mut [usize],
    indices: &mut [usize],
    values: &mut [f64],
) -> bool {
    // First segment holding at least two entries, for the order-sensitive
    // mutations.
    let wide_segment = indptr.windows(2).find(|w| w[1] - w[0] >= 2).map(|w| w[0]);
    match mutation {
        Mutation::SwapAdjacentIndices => match wide_segment {
            Some(lo) => {
                indices.swap(lo, lo + 1);
                true
            }
            None => false,
        },
        Mutation::DuplicateIndex => match wide_segment {
            Some(lo) => {
                indices[lo + 1] = indices[lo];
                true
            }
            None => false,
        },
        Mutation::OutOfBoundsIndex => match indices.first_mut() {
            Some(i) => {
                *i = inner;
                true
            }
            None => false,
        },
        Mutation::BreakIndptr => match indptr.last_mut() {
            Some(p) => {
                *p += 1;
                true
            }
            None => false,
        },
        Mutation::InjectNan => match values.first_mut() {
            Some(v) => {
                *v = f64::NAN;
                true
            }
            None => false,
        },
    }
}

/// Transposes compressed arrays: given the row pointers, column indices
/// and values of a matrix with `ncols` columns, returns those of its
/// transpose. Read as CSC arrays, the input gives the matrix by rows.
pub(crate) fn transpose_parts(
    ncols: usize,
    indptr: &[usize],
    indices: &[usize],
    values: &[f64],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut counts = vec![0usize; ncols + 1];
    for &c in indices {
        counts[c + 1] += 1;
    }
    for i in 0..ncols {
        counts[i + 1] += counts[i];
    }
    let mut out_indices = vec![0usize; indices.len()];
    let mut out_values = vec![0f64; values.len()];
    let mut next = counts.clone();
    for (r, span) in indptr.windows(2).enumerate() {
        for (&c, &v) in indices[span[0]..span[1]].iter().zip(&values[span[0]..span[1]]) {
            let slot = next[c];
            out_indices[slot] = r;
            out_values[slot] = v;
            next[c] += 1;
        }
    }
    // Indices within each output row are ascending because the input rows
    // were scanned in ascending order.
    (counts, out_indices, out_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m.push(2, 2, 5.0);
        m.to_csr()
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let y = m.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn matvec_transpose_matches_explicit_transpose() {
        let m = sample();
        let x = vec![1.0, -1.0, 2.0];
        let via_implicit = m.matvec_transpose(&x).unwrap();
        let via_explicit = m.transpose().matvec(&x).unwrap();
        assert_eq!(via_implicit, via_explicit);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let m = sample();
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_transpose(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = sample();
        let s = m.submatrix(0, 2, 1, 3).unwrap();
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), 2.0); // originally (0,2)
        assert_eq!(s.get(1, 0), 3.0); // originally (1,1)
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn submatrix_bounds_checked() {
        let m = sample();
        assert!(m.submatrix(0, 4, 0, 3).is_err());
        assert!(m.submatrix(2, 1, 0, 3).is_err());
    }

    #[test]
    fn from_raw_rejects_unsorted_columns() {
        let e = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_rejects_bad_indptr() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw(1, 2, vec![1, 1], vec![], vec![]).is_err());
    }

    #[test]
    fn scale_multiplies_values() {
        let m = sample().scale(2.0);
        assert_eq!(m.get(2, 2), 10.0);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn approx_eq_detects_pattern_differences() {
        let a = sample();
        let b = sample().scale(1.0 + 1e-15);
        assert!(a.approx_eq(&b, 1e-9));
        let c = CsrMatrix::identity(3);
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 0)], 4.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d.to_csr(0.0), m);
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let m = sample();
        let x = [0.3, -1.7, 2.9];
        let allocated = m.matvec(&x).unwrap();
        let mut buf = vec![9.9; 3]; // stale contents must be overwritten
        m.matvec_into(&x, &mut buf).unwrap();
        assert_eq!(buf, allocated);
    }

    #[test]
    fn matvec_acc_accumulates() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let base = m.matvec(&x).unwrap();
        let mut buf = vec![10.0; 3];
        m.matvec_acc(&x, &mut buf).unwrap();
        for (got, b) in buf.iter().zip(&base) {
            assert_eq!(*got, 10.0 + b);
        }
    }

    #[test]
    fn matvec_into_rejects_bad_buffer_sizes() {
        let m = sample();
        assert!(m.matvec_into(&[1.0; 3], &mut [0.0; 2]).is_err());
        assert!(m.matvec_into(&[1.0; 2], &mut [0.0; 3]).is_err());
        assert!(m.matvec_acc(&[1.0; 3], &mut [0.0; 4]).is_err());
    }

    /// The row-major kernel against `matvec_into` per right-hand side on
    /// a rectangular matrix with an empty row, at every width from 1 to
    /// 17: awkward values, so any reassociation of a sum would show, and
    /// a stale output buffer that must be overwritten.
    #[test]
    fn interleaved_rows_bitwise_equal_matvec() {
        let mut coo = CooMatrix::new(4, 3);
        for &(r, c, v) in &[(0, 0, 1.5), (0, 2, -2.25), (1, 1, 3.0), (3, 0, 4.0), (3, 2, -5.5)] {
            coo.push(r, c, v);
        }
        let m = coo.to_csr();
        let column = |j: usize| -> Vec<f64> {
            (0..3).map(|i| ((i * 7 + j * 13) as f64).sin() * 1e3 + 0.1).collect()
        };
        for k in 1..=17 {
            let x: Vec<f64> = (0..3).flat_map(|i| (0..k).map(move |j| column(j)[i])).collect();
            let mut y = vec![f64::NAN; 4 * k];
            m.interleaved_into(k, &x, &mut y).unwrap();
            for j in 0..k {
                let want = m.matvec(&column(j)).unwrap();
                let got: Vec<f64> = y.iter().skip(j).step_by(k).copied().collect();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "k {k} j {j}"
                );
            }
        }
        // Zero width and buffers of the wrong length.
        assert!(m.interleaved_into(0, &[], &mut []).is_err());
        assert!(m.interleaved_into(2, &[0.0; 6], &mut [0.0; 6]).is_err());
        assert!(m.interleaved_into(2, &[0.0; 4], &mut [0.0; 8]).is_err());
    }
}
