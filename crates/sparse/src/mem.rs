//! Memory accounting, mirroring the paper's space measurements.
//!
//! The paper measures "space for preprocessed data" as the storage of the
//! precomputed matrices in compressed sparse column format, i.e.
//! proportional to their nonzero counts. [`MemoryUsage::memory_bytes`]
//! reports exactly that, and [`MemBudget`] lets the experiment harness
//! reproduce the paper's out-of-memory failures deterministically.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Error, Result};

/// Size of one stored index in bytes.
pub const INDEX_BYTES: usize = std::mem::size_of::<usize>();
/// Size of one stored value in bytes.
pub const VALUE_BYTES: usize = std::mem::size_of::<f64>();
/// Largest matrix dimension whose compressed-format pointer array
/// (`dim + 1` indices) has a byte size `Vec` can represent. Parsers
/// reject a larger dimension as malformed instead of overflowing.
pub const MAX_DIM: usize = isize::MAX as usize / INDEX_BYTES - 1;

/// Types that can report the bytes they occupy in their storage format.
pub trait MemoryUsage {
    /// Bytes of payload storage (index arrays + value arrays).
    fn memory_bytes(&self) -> usize;
}

impl MemoryUsage for CsrMatrix {
    fn memory_bytes(&self) -> usize {
        (self.nrows() + 1) * INDEX_BYTES + self.nnz() * (INDEX_BYTES + VALUE_BYTES)
    }
}

impl MemoryUsage for CscMatrix {
    fn memory_bytes(&self) -> usize {
        (self.ncols() + 1) * INDEX_BYTES + self.nnz() * (INDEX_BYTES + VALUE_BYTES)
    }
}

impl MemoryUsage for DenseMatrix {
    fn memory_bytes(&self) -> usize {
        self.nrows() * self.ncols() * VALUE_BYTES
    }
}

/// Bytes a hypothetical dense `n × m` matrix would occupy — used to refuse
/// a dense materialization *before* allocating it.
pub fn dense_bytes(nrows: usize, ncols: usize) -> usize {
    nrows.saturating_mul(ncols).saturating_mul(VALUE_BYTES)
}

/// Bytes a sparse matrix with the given shape and nonzero count occupies
/// in CSC/CSR.
pub fn sparse_bytes(major_dim: usize, nnz: usize) -> usize {
    (major_dim + 1) * INDEX_BYTES + nnz * (INDEX_BYTES + VALUE_BYTES)
}

/// A byte budget that preprocessing methods charge their allocations
/// against. Exceeding it aborts the method with
/// [`Error::OutOfBudget`], reproducing the paper's "bar omitted =
/// ran out of memory" semantics without actually exhausting the machine.
#[derive(Debug, Clone, Copy)]
pub struct MemBudget {
    limit: Option<usize>,
}

impl MemBudget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        MemBudget { limit: None }
    }

    /// A budget capped at `bytes`.
    pub fn bytes(bytes: usize) -> Self {
        MemBudget { limit: Some(bytes) }
    }

    /// The cap, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Checks that `needed` bytes fit.
    pub fn check(&self, needed: usize) -> Result<()> {
        match self.limit {
            Some(limit) if needed > limit => Err(Error::OutOfBudget { needed, budget: limit }),
            _ => Ok(()),
        }
    }
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_bytes_track_nnz() {
        let m = CsrMatrix::identity(10);
        assert_eq!(m.memory_bytes(), 11 * INDEX_BYTES + 10 * (INDEX_BYTES + VALUE_BYTES));
    }

    #[test]
    fn dense_bytes_track_shape() {
        let m = DenseMatrix::zeros(3, 5);
        assert_eq!(m.memory_bytes(), 15 * VALUE_BYTES);
        assert_eq!(dense_bytes(3, 5), 15 * VALUE_BYTES);
    }

    #[test]
    fn dense_bytes_saturates_instead_of_overflowing() {
        assert_eq!(dense_bytes(usize::MAX, usize::MAX), usize::MAX);
    }

    #[test]
    fn budget_enforced() {
        let b = MemBudget::bytes(100);
        assert!(b.check(100).is_ok());
        assert!(matches!(b.check(101), Err(Error::OutOfBudget { needed: 101, budget: 100 })));
        assert!(MemBudget::unlimited().check(usize::MAX).is_ok());
    }
}
