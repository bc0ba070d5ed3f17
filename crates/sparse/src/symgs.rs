//! Symmetric Gauss–Seidel: HPCG's smoother.
//!
//! One application is a forward sweep followed by a backward sweep of
//! Gauss–Seidel on `A x = b`. Its data dependencies chain through the rows,
//! which is precisely why HPCG resists the "throw more cores at it"
//! approach — the reference sweep is inherently sequential.
//!
//! This module owns the only natural-order sweep in the crate; the
//! multicolour sweep lives in [`crate::coloring`]. Both are generic over
//! `GsRow`, the one per-row update each storage layout implements (CSR
//! of either index width, and SELL-C-σ), so every format runs the same
//! loops and produces bit-identical iterates.

use crate::csr::Csr;
use crate::idx::SparseIndex;
use crate::ops::SparseOps;

/// One Gauss–Seidel row update, implemented once per storage layout.
pub(crate) trait GsRow: SparseOps + Sync {
    /// `(b_i - Σ_{j≠i} a_ij·x_j) / a_ii`, folding row `i`'s entries in
    /// stored (CSR) order.
    fn gs_row(&self, i: usize, b: &[f64], x: &[f64]) -> f64;
}

/// Updates `x` in place over `rows`, in order.
fn sweep<M: GsRow>(a: &M, rows: impl Iterator<Item = usize>, b: &[f64], x: &mut [f64]) {
    assert_eq!(b.len(), a.nrows());
    assert_eq!(x.len(), a.nrows());
    for i in rows {
        x[i] = a.gs_row(i, b, x);
    }
}

/// One symmetric Gauss–Seidel application (forward then backward sweep)
/// on any format, recorded as one `symgs` kernel.
pub(crate) fn symgs_sweeps<M: GsRow>(a: &M, b: &[f64], x: &mut [f64]) {
    let _scope = xsc_metrics::record("symgs", a.symgs_traffic());
    let n = a.nrows();
    sweep(a, 0..n, b, x);
    sweep(a, (0..n).rev(), b, x);
}

/// One forward Gauss–Seidel sweep: `x` updated in place, rows in order.
pub fn forward_sweep<I: SparseIndex>(a: &Csr<f64, I>, b: &[f64], x: &mut [f64]) {
    sweep(a, 0..a.nrows(), b, x);
}

/// One backward Gauss–Seidel sweep (rows in reverse order).
pub fn backward_sweep<I: SparseIndex>(a: &Csr<f64, I>, b: &[f64], x: &mut [f64]) {
    sweep(a, (0..a.nrows()).rev(), b, x);
}

/// One symmetric Gauss–Seidel application (forward then backward sweep) —
/// the HPCG `ComputeSYMGS` reference kernel.
pub fn symgs<I: SparseIndex>(a: &Csr<f64, I>, b: &[f64], x: &mut [f64]) {
    symgs_sweeps(a, b, x);
}

/// Flops of one symmetric Gauss–Seidel application (HPCG accounting:
/// ~`4·nnz`, two sweeps at `2·nnz` each).
pub fn symgs_flops<I: SparseIndex>(a: &Csr<f64, I>) -> u64 {
    4 * a.nnz() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    fn residual_norm(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.residual(x, b, &mut r);
        xsc_core::blas1::nrm2(&r)
    }

    #[test]
    fn sweeps_reduce_residual_monotonically() {
        let a = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        let mut prev = residual_norm(&a, &x, &b);
        for _ in 0..5 {
            symgs(&a, &b, &mut x);
            let r = residual_norm(&a, &x, &b);
            assert!(r < prev, "residual must shrink: {r} vs {prev}");
            prev = r;
        }
    }

    #[test]
    fn exact_solution_is_fixed_point() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let (b, x_exact) = build_rhs(&a);
        let mut x = x_exact.clone();
        symgs(&a, &b, &mut x);
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_exact_solution_eventually() {
        let a = build_matrix(Geometry::new(4, 4, 2));
        let (b, x_exact) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        for _ in 0..200 {
            symgs(&a, &b, &mut x);
        }
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-8, "{xi} vs {ei}");
        }
    }

    #[test]
    fn forward_sweep_solves_lower_triangular_exactly() {
        // For a lower-triangular matrix, one forward sweep IS the solve.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 4.0),
                (2, 1, -1.0),
                (2, 2, 5.0),
            ],
        );
        let b = vec![2.0, 9.0, 3.0];
        let mut x = vec![0.0; 3];
        forward_sweep(&a, &b, &mut x);
        // x0 = 1, x1 = (9-1)/4 = 2, x2 = (3+2)/5 = 1.
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
        assert!((x[2] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn flop_accounting() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        assert_eq!(symgs_flops(&a), 4 * a.nnz() as u64);
    }
}
