//! Column-major dense blocks: the answers of a multi-seed query.
//!
//! `Bear::query_block_into` answers `k` seeds at once and writes them
//! into an `n × k` [`DenseBlock`], one seed's score vector per column.
//! Storage is column-major so each answer is a contiguous slice that can
//! be read or copied out without a gather.
//!
//! The solve itself does not run on this layout. Its workspace and every
//! product of Algorithm 2 use seed-interleaved row-major buffers (row
//! `i`'s `k` values contiguous, one per seed), through
//! [`crate::CsrMatrix::interleaved_into`] and
//! [`crate::CscMatrix::interleaved_block_into`]. Both guarantee that
//! seed `j` of their output is **bit-identical** to running the
//! corresponding single-vector kernel on seed `j` alone: per seed, the
//! scalar accumulation order is exactly the vector kernel's, only the
//! sparse structure walk is shared.

use crate::error::{Error, Result};

/// A dense `nrows × ncols` block of `f64` in column-major order: column
/// `j` occupies `data[j * nrows .. (j + 1) * nrows]` contiguously.
///
/// ```
/// use bear_sparse::DenseBlock;
/// let mut b = DenseBlock::zeros(3, 2);
/// if let Some(col) = b.columns_mut().nth(1) {
///     col[2] = 5.0;
/// }
/// assert_eq!(b.col(1), &[0.0, 0.0, 5.0]);
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

    /// Iterates over the columns as contiguous mutable slices.
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_exact_mut(self.nrows.max(1)).take(self.ncols)
    }

    /// Reshapes in place to `nrows × ncols`, zeroing all contents.
    /// Shrinking keeps the backing allocation, so an output block can be
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let mut b =
            DenseBlock::from_column_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(b.col(0), &[1.0, 2.0]);
        assert_eq!(b.col(1), &[3.0, 4.0]);
        assert_eq!(b.col(2), &[5.0, 6.0]);
        assert_eq!(b.columns_mut().count(), 3);
        assert_eq!(b.to_columns(), vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert!(DenseBlock::from_column_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut b = DenseBlock::zeros(4, 4);
        if let Some(col) = b.columns_mut().last() {
            col[3] = 9.0;
        }
        let cap_before = b.data.capacity();
        b.reset(4, 2);
        assert_eq!(b.ncols(), 2);
        assert!(b.data.iter().all(|&v| v == 0.0));
        assert!(b.data.capacity() >= 8);
        b.reset(4, 4);
        assert_eq!(b.data.capacity(), cap_before, "regrow reuses the allocation");
        assert!(b.data.iter().all(|&v| v == 0.0), "stale tail must be zeroed");
    }

    #[test]
    fn zero_width_block_is_valid() {
        let mut b = DenseBlock::zeros(5, 0);
        assert_eq!(b.ncols(), 0);
        assert_eq!(b.columns_mut().count(), 0);
        assert!(b.to_columns().is_empty());
    }
}
