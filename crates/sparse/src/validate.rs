//! Deep structural validation of sparse-matrix invariants.
//!
//! Every format in this crate carries invariants the type system cannot
//! see: CSR/CSC index sortedness, `indptr` monotonicity, permutation
//! bijectivity, block layouts that tile the partition dimension, and
//! finiteness of stored values. The [`Invariant`] trait makes each of them
//! checkable on demand:
//!
//! * [`Invariant::validate`] performs a *complete* O(size) audit of a
//!   value, returning the first violation as a typed [`Error`]. Unlike the
//!   `from_raw` constructors (which check structure only), `validate` also
//!   rejects NaN/infinite values, because every downstream consumer — LU
//!   factorization, RWR iteration, the serving engine — silently poisons
//!   its output when fed a non-finite entry.
//! * The `try_from_parts` constructors on each type build a value and run
//!   `validate` on it, giving callers on trust boundaries (deserialization
//!   in `bear-core::persist`, file ingestion) a single fallible entry
//!   point.
//! * With the `strict-invariants` cargo feature enabled, the
//!   `from_raw_unchecked` constructors run `validate` too and panic on
//!   violation — turning "garbage in, garbage out" into a crash at the
//!   construction site. This is a debugging mode: release builds without
//!   the feature keep the unchecked fast path.
//!
//! The [`Mutation`] catalogue (and `apply_mutation` on the compressed
//! formats) deliberately breaks one invariant at a time by reaching past
//! the public constructors; the property tests use it to prove that every
//! class of corruption is rejected.

use crate::error::{Error, Result};

/// A type with machine-checkable structural invariants.
pub trait Invariant {
    /// Audits every invariant of `self`, returning the first violation.
    ///
    /// A `Ok(())` from `validate` means the value is safe to hand to any
    /// kernel in this crate: all checks performed by the checked
    /// constructors hold, and every stored `f64` is finite.
    fn validate(&self) -> Result<()>;
}

/// Validates the shared structure of a compressed (CSR/CSC) format:
/// `indptr` covers `outer + 1` entries, starts at zero, is monotone, ends
/// at `nnz`; inner indices are strictly increasing within each segment and
/// `< inner`; `indices` and `values` have equal length.
///
/// `axis` names the outer dimension in error messages ("row" for CSR,
/// "column" for CSC).
pub(crate) fn check_compressed(
    axis: &str,
    outer: usize,
    inner: usize,
    indptr: &[usize],
    indices: &[usize],
    values: &[f64],
) -> Result<()> {
    if indptr.len() != outer + 1 {
        return Err(Error::InvalidStructure(format!(
            "indptr length {} != {axis} count + 1 = {}",
            indptr.len(),
            outer + 1
        )));
    }
    if indptr[0] != 0 {
        return Err(Error::InvalidStructure("indptr[0] != 0".into()));
    }
    if indices.len() != values.len() {
        return Err(Error::InvalidStructure(format!(
            "indices length {} != values length {}",
            indices.len(),
            values.len()
        )));
    }
    if *indptr.last().unwrap() != indices.len() {
        return Err(Error::InvalidStructure(format!(
            "indptr[last] {} != nnz {}",
            indptr.last().unwrap(),
            indices.len()
        )));
    }
    for seg in 0..outer {
        if indptr[seg] > indptr[seg + 1] {
            return Err(Error::InvalidStructure(format!("indptr decreases at {axis} {seg}")));
        }
        // Must hold before slicing: only the *final* entry was checked
        // against nnz above, so a corrupt intermediate entry (monotone so
        // far, out of bounds) would otherwise panic here instead of
        // returning a typed error.
        if indptr[seg + 1] > indices.len() {
            return Err(Error::InvalidStructure(format!(
                "indptr[{}] = {} exceeds nnz {} at {axis} {seg}",
                seg + 1,
                indptr[seg + 1],
                indices.len()
            )));
        }
        let segment = &indices[indptr[seg]..indptr[seg + 1]];
        for w in segment.windows(2) {
            if w[0] >= w[1] {
                return Err(Error::InvalidStructure(format!(
                    "indices not strictly increasing in {axis} {seg}"
                )));
            }
        }
        if let Some(&i) = segment.last() {
            if i >= inner {
                return Err(Error::IndexOutOfBounds { index: i, bound: inner });
            }
        }
    }
    Ok(())
}

/// Rejects the first NaN or infinite entry in `values`.
pub(crate) fn check_finite(values: &[f64]) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(at) => Err(Error::NonFiniteValue { at }),
        None => Ok(()),
    }
}

/// Panics with a diagnostic if `value` fails validation. Called from the
/// `from_raw_unchecked` constructors when `strict-invariants` is enabled.
#[cfg(feature = "strict-invariants")]
pub(crate) fn assert_strict<T: Invariant>(value: &T, site: &str) {
    if let Err(e) = value.validate() {
        panic!("strict-invariants: {site} produced an invalid value: {e}");
    }
}

/// One deliberately broken invariant, applied by `apply_mutation` on
/// [`crate::CsrMatrix`] / [`crate::CscMatrix`].
///
/// These helpers exist so tests can prove [`Invariant::validate`] rejects
/// each corruption class; they bypass every constructor check (including
/// `strict-invariants`) by mutating private fields directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swaps the first two inner indices of the first segment holding at
    /// least two entries, breaking sortedness.
    SwapAdjacentIndices,
    /// Overwrites an inner index with its neighbour, creating a duplicate.
    DuplicateIndex,
    /// Sets an inner index to the inner dimension (one past the bound).
    OutOfBoundsIndex,
    /// Makes `indptr` inconsistent by incrementing its final entry.
    BreakIndptr,
    /// Replaces the first stored value with NaN.
    InjectNan,
}

/// One deliberately broken permutation invariant, applied by
/// `apply_mutation` on [`crate::Permutation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermMutation {
    /// Duplicates the first entry of the `new -> old` array, so the map is
    /// no longer injective.
    DuplicateEntry,
    /// Sets the first entry of the `new -> old` array out of bounds.
    OutOfBoundsEntry,
    /// Desynchronizes the cached inverse from the forward array.
    InconsistentInverse,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::dense::DenseMatrix;
    use crate::perm::Permutation;

    fn sample() -> CsrMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(0, 2, 1.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m.to_csr()
    }

    #[test]
    fn valid_instances_pass() {
        assert!(sample().validate().is_ok());
        assert!(sample().to_csc().validate().is_ok());
        assert!(CsrMatrix::zeros(4, 2).validate().is_ok());
        assert!(Permutation::identity(5).validate().is_ok());
        assert!(DenseMatrix::identity(3).validate().is_ok());
    }

    #[test]
    fn try_from_parts_accepts_valid_and_rejects_nan() {
        let m = sample();
        let ok = CsrMatrix::try_from_parts(
            3,
            3,
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        assert_eq!(ok.unwrap(), m);
        let err = CsrMatrix::try_from_parts(
            3,
            3,
            m.indptr().to_vec(),
            m.indices().to_vec(),
            vec![f64::NAN; m.nnz()],
        )
        .unwrap_err();
        assert!(matches!(err, Error::NonFiniteValue { at: 0 }));
    }

    #[test]
    fn each_mutation_is_rejected() {
        for mutation in [
            Mutation::SwapAdjacentIndices,
            Mutation::DuplicateIndex,
            Mutation::OutOfBoundsIndex,
            Mutation::BreakIndptr,
            Mutation::InjectNan,
        ] {
            let mut m = sample();
            assert!(m.apply_mutation(mutation), "mutation {mutation:?} not applicable");
            assert!(m.validate().is_err(), "mutation {mutation:?} not rejected");

            let mut c = sample().to_csc();
            assert!(c.apply_mutation(mutation), "csc mutation {mutation:?} not applicable");
            assert!(c.validate().is_err(), "csc mutation {mutation:?} not rejected");
        }
    }

    #[test]
    fn each_perm_mutation_is_rejected() {
        for mutation in [
            PermMutation::DuplicateEntry,
            PermMutation::OutOfBoundsEntry,
            PermMutation::InconsistentInverse,
        ] {
            let mut p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
            assert!(p.apply_mutation(mutation), "mutation {mutation:?} not applicable");
            assert!(p.validate().is_err(), "mutation {mutation:?} not rejected");
        }
    }

    /// Regression: an intermediate `indptr` entry past `nnz` (monotone
    /// so far, so earlier checks pass) must be a typed error, not a
    /// slice-bounds panic during the segment scan.
    #[test]
    fn out_of_range_intermediate_indptr_is_typed_error() {
        let m = sample();
        let mut indptr = m.indptr().to_vec();
        indptr[1] = m.nnz() + 200; // monotone w.r.t. indptr[0], way past nnz
        let err = check_compressed("row", m.nrows(), m.ncols(), &indptr, m.indices(), m.values())
            .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidStructure(msg) if msg.contains("exceeds nnz")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn dense_rejects_non_finite() {
        let err = DenseMatrix::try_from_parts(1, 2, vec![1.0, f64::INFINITY]).unwrap_err();
        assert!(matches!(err, Error::NonFiniteValue { at: 1 }));
    }

    #[test]
    fn coo_rejects_non_finite() {
        let err = CooMatrix::try_from_parts(2, 2, vec![0, 1], vec![0, 1], vec![1.0, f64::NAN])
            .unwrap_err();
        assert!(matches!(err, Error::NonFiniteValue { at: 1 }));
    }
}
