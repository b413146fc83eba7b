//! Column-major dense blocks for multi-RHS (SpMM-style) kernels.
//!
//! BEAR's query phase applies six precomputed sparse matrices to one
//! right-hand side at a time; answering `k` seeds as one `n × k` block
//! amortizes every sparse-structure traversal across the `k` columns —
//! the same SpMM-over-SpMV trick the B_LIN/NB_LIN baselines rely on for
//! their low-rank cores. Storage is column-major so each right-hand side
//! (one seed's vector) is a contiguous slice: width-1 blocks degrade to
//! plain `matvec` calls with zero copying, and per-column results can be
//! handed out without a gather.
//!
//! Every blocked kernel in this crate ([`crate::CsrMatrix::spmm_into`],
//! [`crate::CscMatrix::spmm_into`], [`crate::triangular::solve_lower_block`],
//! …) guarantees that column `j` of its output is **bit-identical** to
//! running the corresponding single-vector kernel on column `j` alone:
//! per column, the scalar accumulation order is exactly the vector
//! kernel's, only the sparse structure walk is shared.

use crate::error::{Error, Result};

/// A dense `nrows × ncols` block of `f64` in column-major order: column
/// `j` occupies `data[j * nrows .. (j + 1) * nrows]` contiguously.
///
/// ```
/// use bear_sparse::DenseBlock;
/// let mut b = DenseBlock::zeros(3, 2);
/// b.col_mut(1)[2] = 5.0;
/// assert_eq!(b[(2, 1)], 5.0);
/// assert_eq!(b.col(0), &[0.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseBlock {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseBlock {
    /// An all-zero `nrows × ncols` block.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseBlock { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Builds a block from column-major data; `data.len()` must equal
    /// `nrows * ncols`.
    pub fn from_column_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(Error::InvalidStructure(format!(
                "column-major data has {} entries, expected {} for a {}x{} block",
                data.len(),
                nrows * ncols,
                nrows,
                ncols
            )));
        }
        Ok(DenseBlock { nrows, ncols, data })
    }

    /// Builds an `nrows × columns.len()` block by copying each slice in
    /// as one column. Every column must have length `nrows`.
    pub fn from_columns(nrows: usize, columns: &[&[f64]]) -> Result<Self> {
        let mut block = DenseBlock::zeros(nrows, columns.len());
        for (j, col) in columns.iter().enumerate() {
            if col.len() != nrows {
                return Err(Error::DimensionMismatch {
                    op: "DenseBlock::from_columns",
                    lhs: (nrows, columns.len()),
                    rhs: (col.len(), 1),
                });
            }
            block.col_mut(j).copy_from_slice(col);
        }
        Ok(block)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the block width `k`).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// All entries in column-major order.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to all entries in column-major order.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over the columns as contiguous slices.
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.nrows.max(1)).take(self.ncols)
    }

    /// Iterates over the columns as contiguous mutable slices.
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_exact_mut(self.nrows.max(1)).take(self.ncols)
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Reshapes in place to `nrows × ncols`, zeroing all contents.
    /// Shrinking keeps the backing allocation, so a workspace block can be
    /// resized per batch without churning the allocator.
    pub fn reset(&mut self, nrows: usize, ncols: usize) {
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Copies each column out into an owned `Vec`, in column order.
    pub fn to_columns(&self) -> Vec<Vec<f64>> {
        (0..self.ncols).map(|j| self.col(j).to_vec()).collect()
    }
}

impl std::ops::Index<(usize, usize)> for DenseBlock {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[c * self.nrows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseBlock {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[c * self.nrows + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let b = DenseBlock::from_column_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(b.col(0), &[1.0, 2.0]);
        assert_eq!(b.col(1), &[3.0, 4.0]);
        assert_eq!(b[(0, 2)], 5.0);
        assert_eq!(b[(1, 2)], 6.0);
        assert_eq!(b.columns().count(), 3);
    }

    #[test]
    fn from_columns_copies() {
        let b = DenseBlock::from_columns(3, &[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(b.ncols(), 2);
        assert_eq!(b.col(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.to_columns(), vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(DenseBlock::from_columns(3, &[&[1.0]]).is_err());
        assert!(DenseBlock::from_column_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut b = DenseBlock::zeros(4, 4);
        b[(3, 3)] = 9.0;
        let cap_before = b.data.capacity();
        b.reset(4, 2);
        assert_eq!(b.ncols(), 2);
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert!(b.data.capacity() >= 8);
        b.reset(4, 4);
        assert_eq!(b.data.capacity(), cap_before, "regrow reuses the allocation");
        assert!(b.data().iter().all(|&v| v == 0.0), "stale tail must be zeroed");
    }

    #[test]
    fn zero_width_block_is_valid() {
        let b = DenseBlock::zeros(5, 0);
        assert_eq!(b.ncols(), 0);
        assert_eq!(b.columns().count(), 0);
        assert!(b.to_columns().is_empty());
    }
}
