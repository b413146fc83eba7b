//! Property-based tests of the sparse kernels against dense oracles.

use bear_sparse::ops::{add, axpby, spgemm, sub};
use bear_sparse::sparsify::drop_tolerance_csr;
use bear_sparse::triangular::{invert_triangular, solve_lower, solve_upper, Triangle};
use bear_sparse::{CooMatrix, CscMatrix, CsrMatrix, DenseLu, DenseMatrix, Permutation, SparseLu};
use proptest::prelude::*;

/// Strategy: a random sparse matrix with the given shape bounds.
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..(r * c).min(60)).prop_map(
            move |triplets| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in triplets {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        )
    })
}

/// Strategy: two random sparse matrices sharing one shape.
fn arb_matrix_pair(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let m1 = proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..(r * c).min(50));
        let m2 = proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..(r * c).min(50));
        (m1, m2).prop_map(move |(t1, t2)| {
            let build = |triplets: Vec<(usize, usize, f64)>| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in triplets {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            };
            (build(t1), build(t2))
        })
    })
}

/// Strategy: two random sparse matrices with compatible inner dimension.
fn arb_matmul_pair(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(r, k, c)| {
        let m1 = proptest::collection::vec((0..r, 0..k, -10.0f64..10.0), 0..(r * k).min(50));
        let m2 = proptest::collection::vec((0..k, 0..c, -10.0f64..10.0), 0..(k * c).min(50));
        (m1, m2).prop_map(move |(t1, t2)| {
            let build = |rows: usize, cols: usize, triplets: Vec<(usize, usize, f64)>| {
                let mut coo = CooMatrix::new(rows, cols);
                for (i, j, v) in triplets {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            };
            (build(r, k, t1), build(k, c, t2))
        })
    })
}

/// Strategy: a random square, strictly column-diagonally-dominant matrix
/// (the class RWR produces, where pivot-free LU is stable).
fn arb_dd_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..n * 3).prop_map(move |off| {
            let mut dense = DenseMatrix::zeros(n, n);
            for (i, j, v) in off {
                if i != j {
                    dense[(i, j)] = v;
                }
            }
            for j in 0..n {
                let col_sum: f64 = (0..n).map(|i| dense[(i, j)].abs()).sum();
                dense[(j, j)] = col_sum + 1.0;
            }
            dense.to_csr(0.0)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spgemm_matches_dense_product((a, b) in arb_matmul_pair(12)) {
        let c = spgemm(&a, &b).unwrap();
        let oracle = a.to_dense().matmul(&b.to_dense()).unwrap();
        prop_assert!(c.to_dense().max_abs_diff(&oracle) < 1e-10);
    }

    #[test]
    fn add_sub_round_trip((a, b) in arb_matrix_pair(10)) {
        let sum = add(&a, &b).unwrap();
        let back = sub(&sum, &b).unwrap();
        prop_assert!(back.to_dense().max_abs_diff(&a.to_dense()) < 1e-10);
    }

    #[test]
    fn axpby_matches_dense((a, b) in arb_matrix_pair(10),
                           alpha in -3.0f64..3.0, beta in -3.0f64..3.0) {
        let got = axpby(alpha, &a, beta, &b).unwrap().to_dense();
        let mut want = DenseMatrix::zeros(a.nrows(), a.ncols());
        let (da, db) = (a.to_dense(), b.to_dense());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                want[(i, j)] = alpha * da[(i, j)] + beta * db[(i, j)];
            }
        }
        prop_assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn transpose_is_involution_and_preserves_matvec(a in arb_matrix(12)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).cos()).collect();
        let via_t = a.transpose().matvec(&x).unwrap();
        let via_impl = a.matvec_transpose(&x).unwrap();
        for (p, q) in via_t.iter().zip(&via_impl) {
            prop_assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn csr_csc_round_trip(a in arb_matrix(12)) {
        prop_assert_eq!(a.to_csc().to_csr(), a);
    }

    #[test]
    fn sparse_lu_reconstructs_dd_matrix(a in arb_dd_matrix(14)) {
        let lu = SparseLu::factor(&a.to_csc()).unwrap();
        let prod = spgemm(&lu.l().to_csr(), &lu.u().to_csr()).unwrap();
        prop_assert!(prod.to_dense().max_abs_diff(&a.to_dense()) < 1e-8);
    }

    #[test]
    fn sparse_lu_solve_matches_dense_lu(a in arb_dd_matrix(14)) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let xs = SparseLu::factor(&a.to_csc()).unwrap().solve(&b).unwrap();
        let xd = DenseLu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (p, q) in xs.iter().zip(&xd) {
            prop_assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }

    #[test]
    fn inverted_factors_give_inverse(a in arb_dd_matrix(10)) {
        let n = a.nrows();
        let lu = SparseLu::factor(&a.to_csc()).unwrap();
        let (linv, uinv) = lu.invert_factors().unwrap();
        let ainv = spgemm(&uinv.to_csr(), &linv.to_csr()).unwrap();
        let prod = spgemm(&a, &ainv).unwrap();
        prop_assert!(prod.approx_eq(&CsrMatrix::identity(n), 1e-7));
    }

    #[test]
    fn triangular_inverse_matches_dense_inverse(a in arb_dd_matrix(10)) {
        let lu = SparseLu::factor(&a.to_csc()).unwrap();
        let linv = invert_triangular(lu.l(), Triangle::Lower, true).unwrap();
        let uinv = invert_triangular(lu.u(), Triangle::Upper, false).unwrap();
        let li = spgemm(&linv.to_csr(), &lu.l().to_csr()).unwrap();
        let ui = spgemm(&uinv.to_csr(), &lu.u().to_csr()).unwrap();
        let n = a.nrows();
        prop_assert!(li.approx_eq(&CsrMatrix::identity(n), 1e-8));
        prop_assert!(ui.approx_eq(&CsrMatrix::identity(n), 1e-8));
    }

    #[test]
    fn triangular_solves_invert_matvec(a in arb_dd_matrix(12)) {
        let lu = SparseLu::factor(&a.to_csc()).unwrap();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        // b = L x, solve back.
        let mut b = lu.l().matvec(&x).unwrap();
        solve_lower(lu.l(), &mut b, true).unwrap();
        for (p, q) in b.iter().zip(&x) {
            prop_assert!((p - q).abs() < 1e-9);
        }
        let mut b = lu.u().matvec(&x).unwrap();
        solve_upper(lu.u(), &mut b).unwrap();
        for (p, q) in b.iter().zip(&x) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_permutation_preserves_quadratic_form(a in arb_dd_matrix(10), seed in 0u64..100) {
        let n = a.nrows();
        // Pseudo-random permutation from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_add(99);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 32) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        let pa = p.permute_symmetric(&a).unwrap();
        // xᵀ A y is invariant when x, y are permuted along with A.
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).ln()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let ay = a.matvec(&y).unwrap();
        let form: f64 = x.iter().zip(&ay).map(|(p, q)| p * q).sum();
        let px = p.permute_vec(&x).unwrap();
        let py = p.permute_vec(&y).unwrap();
        let pay = pa.matvec(&py).unwrap();
        let pform: f64 = px.iter().zip(&pay).map(|(p, q)| p * q).sum();
        prop_assert!((form - pform).abs() < 1e-9);
    }

    #[test]
    fn drop_tolerance_never_increases_nnz_and_keeps_large(a in arb_matrix(12), xi in 0.0f64..5.0) {
        let d = drop_tolerance_csr(&a, xi);
        prop_assert!(d.nnz() <= a.nnz());
        for (r, c, v) in a.iter() {
            if v.abs() >= xi && xi > 0.0 {
                prop_assert_eq!(d.get(r, c), v);
            }
        }
        for (_, _, v) in d.iter() {
            prop_assert!(xi <= 0.0 || v.abs() >= xi);
        }
    }

    #[test]
    fn dense_qr_reconstructs_and_q_orthogonal(a in arb_dd_matrix(10)) {
        let d = a.to_dense();
        let qr = bear_sparse::qr::DenseQr::factor(&d).unwrap();
        let back = qr.q.matmul(&qr.r).unwrap();
        prop_assert!(back.max_abs_diff(&d) < 1e-8);
        let n = d.nrows();
        let qtq = qr.q.transpose().matmul(&qr.q).unwrap();
        prop_assert!(qtq.max_abs_diff(&DenseMatrix::identity(n)) < 1e-8);
    }

    #[test]
    fn dense_lu_inverse_is_two_sided(a in arb_dd_matrix(10)) {
        let d = a.to_dense();
        let inv = DenseLu::factor(&d).unwrap().inverse().unwrap();
        let n = d.nrows();
        prop_assert!(d.matmul(&inv).unwrap().max_abs_diff(&DenseMatrix::identity(n)) < 1e-8);
        prop_assert!(inv.matmul(&d).unwrap().max_abs_diff(&DenseMatrix::identity(n)) < 1e-8);
    }
}

/// Strategy for the seed-interleaved block kernel: a square sparse matrix
/// with negative values (so products can be `−0.0`), a diagonal block
/// `[base, base + d)` of it, a width `k` from 1 to 17, and a row-major
/// `d × k` input whose entries are mostly exact `±0`, so columns where
/// some seeds are zero and others are not, and all-zero columns, are
/// common. One case in eight blanks the whole input (an all-zero block).
fn arb_interleaved_case() -> impl Strategy<Value = (CscMatrix, usize, usize, Vec<f64>)> {
    (1usize..=14, 1usize..=17).prop_flat_map(|(n, k)| {
        let entries = proptest::collection::vec((0..n, 0..n, -4.0f64..4.0), 0..=n * n);
        let block = (0..n).prop_flat_map(move |base| (Just(base), 1..=n - base));
        let value = (0u8..8, -2.0f64..2.0).prop_map(|(pick, v)| match pick {
            0..=2 => 0.0,
            3 => -0.0,
            _ => v,
        });
        let input = proptest::collection::vec(value, n * k);
        (entries, block, input, 0u8..8).prop_map(move |(entries, (base, d), mut input, blank)| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            input.truncate(d * k);
            if blank == 0 {
                input.fill(0.0);
            }
            (coo.to_csr().to_csc(), base, k, input)
        })
    })
}

/// Per-seed reference for [`CscMatrix::interleaved_block_into`]: the
/// block's submatrix, and `matvec_into` on each seed's column of the
/// row-major input, written back row-major.
fn per_seed_block_product(m: &CscMatrix, base: usize, k: usize, x: &[f64]) -> Vec<f64> {
    let d = x.len() / k;
    let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
    for c in base..base + d {
        let (rows, vals) = m.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            if (base..base + d).contains(&r) {
                indices.push(r - base);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    let block = CscMatrix::from_raw(d, d, indptr, indices, values).unwrap();
    let mut y = vec![0.0; d * k];
    for j in 0..k {
        let xj: Vec<f64> = x.iter().skip(j).step_by(k).copied().collect();
        let mut yj = vec![0.0; d];
        block.matvec_into(&xj, &mut yj).unwrap();
        for (slot, v) in y.iter_mut().skip(j).step_by(k).zip(yj) {
            *slot = v;
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The seed-interleaved block kernel is bit-identical, seed by seed,
    /// to the per-seed `matvec_into` on the block, at every width from 1
    /// to 17, including seeds that are zero where others are not, `−0.0`
    /// inputs and products, and all-zero blocks. The output buffer
    /// arrives stale and must be overwritten.
    #[test]
    fn interleaved_block_matches_per_seed_matvec_bitwise(
        (m, base, k, x) in arb_interleaved_case(),
    ) {
        let want = per_seed_block_product(&m, base, k, &x);
        let mut got = vec![7.5; x.len()];
        m.interleaved_block_into(base, k, &x, &mut got).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "base {}, width {}", base, k);
    }
}

/// A lane value for the interleaved-kernel cases: exact zeros (`+0.0`
/// and `−0.0`) about half the time, so lanes are zero where others are
/// not.
fn arb_lane_value() -> impl Strategy<Value = f64> {
    (0u8..8, -2.0f64..2.0).prop_map(|(pick, v)| match pick {
        0..=2 => 0.0,
        3 => -0.0,
        _ => v,
    })
}

/// Strategy: a random `rows × cols` matrix (as COO, so empty rows and
/// columns are common), a width from 1 to 40, and a row-major
/// `cols × width` input in which some rows are all zero.
fn arb_wide_case(square: bool) -> impl Strategy<Value = (CooMatrix, usize, Vec<f64>)> {
    (1usize..=12, 1usize..=12, 1usize..=40).prop_flat_map(move |(r, c, k)| {
        let c = if square { r } else { c };
        let entries = proptest::collection::vec((0..r, 0..c, -4.0f64..4.0), 0..=r * c);
        let input = proptest::collection::vec(arb_lane_value(), c * k);
        let blank_rows = proptest::collection::vec(0u8..4, c);
        (entries, input, blank_rows).prop_map(move |(entries, mut input, blank_rows)| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v);
            }
            for (row, blank) in input.chunks_exact_mut(k).zip(blank_rows) {
                if blank == 0 {
                    row.fill(0.0);
                }
            }
            (coo, k, input)
        })
    })
}

/// Seed `j` of a row-major `k`-lane buffer.
fn lane(x: &[f64], k: usize, j: usize) -> Vec<f64> {
    x.iter().skip(j).step_by(k).copied().collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The CSR interleaved kernel that applies `H₁₂`/`H₂₁` to a
    /// row-major block is bit-identical, seed by seed, to `matvec_into`
    /// on that seed's lane, on rectangular matrices at every width from 1
    /// to 40, with `±0` lanes and all-zero input rows. The output buffer
    /// arrives stale and must be overwritten.
    #[test]
    fn interleaved_block_csr_rows_match_per_seed_matvec_bitwise(
        (coo, k, x) in arb_wide_case(false),
    ) {
        let m = coo.to_csr();
        let mut got = vec![7.5; m.nrows() * k];
        m.interleaved_into(k, &x, &mut got).unwrap();
        for j in 0..k {
            let mut want = vec![-1.0; m.nrows()];
            m.matvec_into(&lane(&x, k, j), &mut want).unwrap();
            prop_assert_eq!(bits(&lane(&got, k, j)), bits(&want), "width {}, seed {}", k, j);
        }
    }

    /// The CSC interleaved kernel on the whole square matrix (`base = 0`,
    /// the `L₂⁻¹`/`U₂⁻¹` use) is bit-identical, seed by seed, to
    /// `matvec_into` with the whole matrix, at every width from 1 to 40,
    /// with `±0` lanes and all-zero input rows.
    #[test]
    fn interleaved_block_whole_matrix_matches_per_seed_matvec_bitwise(
        (coo, k, x) in arb_wide_case(true),
    ) {
        let m = coo.to_csr().to_csc();
        let mut got = vec![7.5; x.len()];
        m.interleaved_block_into(0, k, &x, &mut got).unwrap();
        for j in 0..k {
            let mut want = vec![-1.0; m.nrows()];
            m.matvec_into(&lane(&x, k, j), &mut want).unwrap();
            prop_assert_eq!(bits(&lane(&got, k, j)), bits(&want), "width {}, seed {}", k, j);
        }
    }
}
