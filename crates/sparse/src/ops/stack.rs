//! Block stacking of sparse matrices (used to reassemble partitioned
//! systems in tests and to lay a run of `H₁₁`'s inverted diagonal blocks
//! out for the Schur product).

use crate::csr::CsrMatrix;
use crate::error::{Error, Result};

/// Stacks `top` above `bottom` (they must have equal column counts).
pub fn vstack(top: &CsrMatrix, bottom: &CsrMatrix) -> Result<CsrMatrix> {
    if top.ncols() != bottom.ncols() {
        return Err(Error::DimensionMismatch {
            op: "vstack",
            lhs: (top.nrows(), top.ncols()),
            rhs: (bottom.nrows(), bottom.ncols()),
        });
    }
    let mut indptr = Vec::with_capacity(top.nrows() + bottom.nrows() + 1);
    indptr.extend_from_slice(top.indptr());
    let offset = top.nnz();
    indptr.extend(bottom.indptr()[1..].iter().map(|&p| p + offset));
    let mut indices = Vec::with_capacity(top.nnz() + bottom.nnz());
    indices.extend_from_slice(top.indices());
    indices.extend_from_slice(bottom.indices());
    let mut values = Vec::with_capacity(top.nnz() + bottom.nnz());
    values.extend_from_slice(top.values());
    values.extend_from_slice(bottom.values());
    Ok(CsrMatrix::from_raw_unchecked(
        top.nrows() + bottom.nrows(),
        top.ncols(),
        indptr,
        indices,
        values,
    ))
}

/// Stacks `left` beside `right` (they must have equal row counts).
pub fn hstack(left: &CsrMatrix, right: &CsrMatrix) -> Result<CsrMatrix> {
    if left.nrows() != right.nrows() {
        return Err(Error::DimensionMismatch {
            op: "hstack",
            lhs: (left.nrows(), left.ncols()),
            rhs: (right.nrows(), right.ncols()),
        });
    }
    let ncols = left.ncols() + right.ncols();
    let mut indptr = Vec::with_capacity(left.nrows() + 1);
    let mut indices = Vec::with_capacity(left.nnz() + right.nnz());
    let mut values = Vec::with_capacity(left.nnz() + right.nnz());
    indptr.push(0);
    for r in 0..left.nrows() {
        let (lc, lv) = left.row(r);
        indices.extend_from_slice(lc);
        values.extend_from_slice(lv);
        let (rc, rv) = right.row(r);
        indices.extend(rc.iter().map(|&c| c + left.ncols()));
        values.extend_from_slice(rv);
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_raw_unchecked(left.nrows(), ncols, indptr, indices, values))
}

/// Places square `blocks` along the diagonal, each starting where the
/// previous one ends.
pub fn block_diag<'a>(blocks: impl IntoIterator<Item = &'a CsrMatrix>) -> Result<CsrMatrix> {
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    let mut off = 0;
    for b in blocks {
        if b.nrows() != b.ncols() {
            return Err(Error::DimensionMismatch {
                op: "block_diag",
                lhs: (b.nrows(), b.ncols()),
                rhs: (b.nrows(), b.nrows()),
            });
        }
        for r in 0..b.nrows() {
            let (cols, vals) = b.row(r);
            indices.extend(cols.iter().map(|&c| c + off));
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        off += b.nrows();
    }
    Ok(CsrMatrix::from_raw_unchecked(off, off, indptr, indices, values))
}

/// Assembles the 2×2 block matrix `[[a11, a12], [a21, a22]]`.
pub fn block2x2(
    a11: &CsrMatrix,
    a12: &CsrMatrix,
    a21: &CsrMatrix,
    a22: &CsrMatrix,
) -> Result<CsrMatrix> {
    let top = hstack(a11, a12)?;
    let bottom = hstack(a21, a22)?;
    vstack(&top, &bottom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn vstack_preserves_entries() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::zeros(1, 2);
        let s = vstack(&a, &b).unwrap();
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(2, 0), 0.0);
    }

    #[test]
    fn hstack_offsets_columns() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(2);
        let s = hstack(&a, &b).unwrap();
        assert_eq!(s.ncols(), 4);
        assert_eq!(s.get(0, 2), 1.0);
        assert_eq!(s.get(1, 3), 1.0);
    }

    #[test]
    fn block2x2_reassembles_partition() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 1, 3.0);
        let a = coo.to_csr();
        let a11 = a.submatrix(0, 2, 0, 2).unwrap();
        let a12 = a.submatrix(0, 2, 2, 3).unwrap();
        let a21 = a.submatrix(2, 3, 0, 2).unwrap();
        let a22 = a.submatrix(2, 3, 2, 3).unwrap();
        let whole = block2x2(&a11, &a12, &a21, &a22).unwrap();
        assert_eq!(whole, a);
    }

    #[test]
    fn block_diag_offsets_each_block() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        let d = block_diag(&[CsrMatrix::identity(1), coo.to_csr()]).unwrap();
        assert_eq!((d.nrows(), d.ncols(), d.nnz()), (3, 3, 3));
        assert_eq!((d.get(0, 0), d.get(1, 2), d.get(2, 1)), (1.0, 2.0, 3.0));
        assert!(block_diag(&[CsrMatrix::zeros(1, 2)]).is_err());
        assert_eq!(block_diag(&[]).unwrap().nrows(), 0);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        assert!(vstack(&CsrMatrix::identity(2), &CsrMatrix::identity(3)).is_err());
        assert!(hstack(&CsrMatrix::identity(2), &CsrMatrix::identity(3)).is_err());
    }
}
