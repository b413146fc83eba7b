//! Sparse linear algebra substrate for the BEAR reproduction.
//!
//! This crate implements, from scratch, every matrix primitive the BEAR
//! algorithm (Shin et al., SIGMOD 2015) and its baselines need:
//!
//! * storage formats: [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`],
//!   [`DenseMatrix`];
//! * kernels: sparse matrix–vector products, blocked multi-RHS products
//!   against column-major [`DenseBlock`]s (SpMM, bit-identical per column
//!   to the vector kernels), sparse matrix–matrix products (Gustavson
//!   SpGEMM), transposition, element-wise combination;
//! * factorizations: sparse LU without pivoting (Gilbert–Peierls
//!   left-looking, valid for the column-diagonally-dominant systems RWR
//!   produces), dense LU with partial pivoting, dense Householder QR,
//!   block-diagonal LU (Lemma 1 of the paper);
//! * triangular machinery: forward/backward substitution with dense and
//!   sparse right-hand sides (CSparse-style reachability), and sparse
//!   triangular inversion used to materialize `L⁻¹` / `U⁻¹`;
//! * spectral helpers: Jacobi symmetric eigensolver and randomized
//!   truncated SVD (used by the B_LIN / NB_LIN baselines);
//! * utilities: permutations, drop-tolerance sparsification, and nnz-based
//!   memory accounting mirroring the paper's space measurements.
//!
//! All formats store `f64` values with `usize` indices. Matrices are
//! immutable after construction; operations return new matrices.

pub mod block;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod lu;
pub mod mem;
pub mod mm_io;
pub mod ops;
pub mod parallel;
pub mod perm;
pub mod qr;
pub mod solvers;
pub mod sparse_qr;
pub mod sparsify;
pub mod svd;
pub mod triangular;
pub mod validate;

pub use block::DenseBlock;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{Error, Result};
pub use lu::{BlockDiagBuilder, DenseLu, SparseLu};
pub use mem::MemoryUsage;
pub use perm::Permutation;
pub use validate::Invariant;

/// Relative tolerance used by tests and internal sanity checks when
/// comparing floating point results.
pub const EPS: f64 = 1e-10;
