//! Iterative linear solvers for sparse systems.
//!
//! Used by the memory-lean iterative hub form of a bear-core index
//! (`Bear::new_hub_iterative`), which keeps the Schur complement `S`
//! itself instead of its inverted LU factors; Algorithm 2's hub half
//! solves `S x = b` with [`bicgstab`] once per right-hand side. `S`
//! inherits diagonal dominance from `H`, so Jacobi-preconditioned
//! iterations converge geometrically; BiCGSTAB is provided for faster
//! convergence on harder systems.

use crate::csr::CsrMatrix;
use crate::error::{Error, Result};

/// Options shared by the iterative solvers.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Stop when the residual 2-norm falls below
    /// `rel_tolerance * ||b||₂` (plus a tiny absolute floor).
    pub rel_tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { rel_tolerance: 1e-12, max_iterations: 10_000 }
    }
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn rescale(mut x: Vec<f64>, scale: f64) -> Vec<f64> {
    for v in &mut x {
        *v *= scale;
    }
    x
}

/// Extracts the diagonal of a square CSR matrix, failing on a zero.
fn diagonal(a: &CsrMatrix) -> Result<Vec<f64>> {
    let n = a.nrows();
    let mut d = Vec::with_capacity(n);
    for i in 0..n {
        let v = a.get(i, i);
        if v == 0.0 {
            return Err(Error::SingularMatrix { at: i });
        }
        d.push(v);
    }
    Ok(d)
}

/// Jacobi iteration `x ← D⁻¹ (b − (A − D) x)` for diagonally dominant
/// `A`. Simple, allocation-light, and exactly the kind of solve the
/// Schur complement of an RWR system admits.
pub fn jacobi(a: &CsrMatrix, b: &[f64], opts: &SolveOptions) -> Result<Vec<f64>> {
    let n = a.nrows();
    if a.ncols() != n || b.len() != n {
        return Err(Error::DimensionMismatch {
            op: "jacobi",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.len(), 1),
        });
    }
    let d = diagonal(a)?;
    let bnorm = norm2(b);
    let mut x = vec![0.0f64; n];
    if bnorm < 1e-290 {
        return Ok(x);
    }
    // Normalize by ‖b‖ for scale-independent arithmetic (see bicgstab).
    let b: Vec<f64> = b.iter().map(|v| v / bnorm).collect();
    let target = opts.rel_tolerance;
    let mut next = vec![0.0f64; n];
    for _ in 0..opts.max_iterations {
        // next = D^{-1} (b - (A - D) x)
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c != i {
                    acc -= v * x[c];
                }
            }
            next[i] = acc / d[i];
        }
        std::mem::swap(&mut x, &mut next);
        // Residual check (reuses `next` as scratch).
        let ax = a.matvec(&x)?;
        let mut res = 0.0;
        for i in 0..n {
            let r = b[i] - ax[i];
            res += r * r;
        }
        if res.sqrt() <= target {
            return Ok(rescale(x, bnorm));
        }
    }
    Err(Error::DidNotConverge { what: "jacobi", iterations: opts.max_iterations })
}

/// Restarts [`bicgstab`] may take before it gives up: one after every
/// breakdown of the Krylov process, and one whenever the recurred
/// residual claims convergence that the true residual denies.
const MAX_RESTARTS: usize = 50;

/// BiCGSTAB (van der Vorst) with Jacobi (diagonal) preconditioning.
/// Converges on general nonsymmetric systems; used when the plain Jacobi
/// iteration is too slow.
///
/// It never returns an `x` whose true residual `‖b − A x‖` is above the
/// tolerance. The recurred residual only decides when to look: whenever
/// the Krylov process says it converged, or breaks down (`⟨r̂, r⟩ ≈ 0`,
/// `⟨r̂, v⟩ ≈ 0`, `‖t‖ ≈ 0` or `ω ≈ 0`), the true residual is computed,
/// and if it is above the tolerance the process restarts from it.
pub fn bicgstab(a: &CsrMatrix, b: &[f64], opts: &SolveOptions) -> Result<Vec<f64>> {
    let n = a.nrows();
    if a.ncols() != n || b.len() != n {
        return Err(Error::DimensionMismatch {
            op: "bicgstab",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.len(), 1),
        });
    }
    let d = diagonal(a)?;
    let bnorm = norm2(b);
    let mut x = vec![0.0f64; n];
    // A (near-)zero right-hand side has the (near-)zero solution; bailing
    // here also avoids denormal-range dot products that would otherwise
    // register as Lanczos breakdowns.
    if bnorm < 1e-290 {
        return Ok(x);
    }
    // Solve the normalized system S x' = b/‖b‖ (and rescale at the end)
    // so every inner product is O(1) regardless of the RHS's scale —
    // un-normalized, a 1e-150-scale RHS makes ⟨r̂, r⟩ ≈ ‖b‖² underflow to
    // zero and masquerade as a Lanczos breakdown.
    let b: Vec<f64> = b.iter().map(|v| v / bnorm).collect();
    let mut iterations = 0usize;
    for _ in 0..=MAX_RESTARTS {
        let ax = a.matvec(&x)?;
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        if norm2(&r) <= opts.rel_tolerance {
            return Ok(rescale(x, bnorm));
        }
        if iterations >= opts.max_iterations {
            return Err(Error::DidNotConverge { what: "bicgstab", iterations });
        }
        let budget = opts.max_iterations - iterations;
        iterations += bicgstab_cycle(a, &d, r, &mut x, opts.rel_tolerance, budget)?;
    }
    Err(Error::DidNotConverge { what: "bicgstab (breakdown)", iterations })
}

/// One BiCGSTAB cycle from the iterate `x` and its residual `r`, with
/// the shadow residual `r̂ = r`: updates `x` until the recurred residual
/// reaches `target`, the process breaks down, or `budget` (at least
/// one) iterations have run, and returns the iterations taken.
fn bicgstab_cycle(
    a: &CsrMatrix,
    d: &[f64],
    mut r: Vec<f64>,
    x: &mut [f64],
    target: f64,
    budget: usize,
) -> Result<usize> {
    let precond = |v: &[f64]| -> Vec<f64> { v.iter().zip(d).map(|(x, di)| x / di).collect() };
    let n = r.len();
    let r_hat = r.clone();
    let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
    let mut v = vec![0.0f64; n];
    let mut p = vec![0.0f64; n];
    for iter in 1..=budget {
        let rho_next = dot(&r_hat, &r);
        if rho_next.abs() < 1e-300 {
            // Lanczos breakdown (r ⟂ r̂).
            return Ok(iter);
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        let y = precond(&p);
        v = a.matvec(&y)?;
        let denom = dot(&r_hat, &v);
        if denom.abs() < 1e-300 {
            return Ok(iter);
        }
        alpha = rho / denom;
        let s: Vec<f64> = r.iter().zip(&v).map(|(ri, vi)| ri - alpha * vi).collect();
        if norm2(&s) <= target {
            for i in 0..n {
                x[i] += alpha * y[i];
            }
            return Ok(iter);
        }
        let z = precond(&s);
        let t = a.matvec(&z)?;
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            for i in 0..n {
                x[i] += alpha * y[i];
            }
            return Ok(iter);
        }
        omega = dot(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * y[i] + omega * z[i];
            r[i] = s[i] - omega * t[i];
        }
        if norm2(&r) <= target || omega.abs() < 1e-300 {
            return Ok(iter);
        }
    }
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::lu::DenseLu;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dd(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        let mut row_sums = vec![0.0f64; n];
        for (i, ri) in row_sums.iter_mut().enumerate() {
            for j in 0..n {
                if i != j && rng.gen_bool(0.15) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    coo.push(i, j, v);
                    *ri += v.abs();
                }
            }
        }
        for (i, &s) in row_sums.iter().enumerate() {
            coo.push(i, i, s + 1.0);
        }
        coo.to_csr()
    }

    fn check_solver(
        solve: impl Fn(&CsrMatrix, &[f64], &SolveOptions) -> Result<Vec<f64>>,
        seed: u64,
    ) {
        let n = 30;
        let a = random_dd(n, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let x = solve(&a, &b, &SolveOptions::default()).unwrap();
        let oracle = DenseLu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (p, q) in x.iter().zip(&oracle) {
            assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
    }

    #[test]
    fn jacobi_matches_direct_solve() {
        check_solver(jacobi, 1);
        check_solver(jacobi, 2);
    }

    #[test]
    fn bicgstab_matches_direct_solve() {
        check_solver(bicgstab, 3);
        check_solver(bicgstab, 4);
    }

    #[test]
    fn solvers_reject_zero_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let b = vec![1.0, 1.0];
        assert!(matches!(
            jacobi(&a, &b, &SolveOptions::default()),
            Err(Error::SingularMatrix { .. })
        ));
        assert!(matches!(
            bicgstab(&a, &b, &SolveOptions::default()),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn solvers_reject_dimension_mismatch() {
        let a = CsrMatrix::identity(3);
        assert!(jacobi(&a, &[1.0], &SolveOptions::default()).is_err());
        assert!(bicgstab(&a, &[1.0], &SolveOptions::default()).is_err());
    }

    #[test]
    fn jacobi_diverges_gracefully_on_non_dominant_system() {
        // A system where Jacobi's iteration matrix has spectral radius > 1.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let opts = SolveOptions { max_iterations: 50, ..SolveOptions::default() };
        assert!(matches!(jacobi(&a, &[1.0, 1.0], &opts), Err(Error::DidNotConverge { .. })));
    }

    #[test]
    fn zero_rhs_yields_zero_solution() {
        let a = random_dd(10, 9);
        let x = bicgstab(&a, &[0.0; 10], &SolveOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
