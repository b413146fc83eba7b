//! Sparse matrix kernels: SpGEMM, element-wise combination, stacking.

mod add;
mod spgemm;
mod stack;

pub use add::{add, axpby, sub};
pub use spgemm::spgemm;
pub use stack::{block2x2, block_diag, hstack, vstack};
