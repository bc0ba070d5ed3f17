//! GMRES-based iterative refinement (GMRES-IR).
//!
//! Classic refinement fails once `κ(A) · u_low ≳ 1`. The extension in the
//! keynote's research program (Carson & Higham): use the low-precision LU
//! factors as a *preconditioner* inside GMRES run in `f64`. The
//! preconditioned operator `U⁻¹L⁻¹A` has condition number ~`1 + κ(A)·u_low`,
//! so GMRES-IR tolerates condition numbers up to ~`1/u_low²` where classic
//! IR stops at ~`1/u_low`.
//!
//! It shares LU-IR's factorization and refinement loop ([`crate::ir`]): the
//! loop starts from `x = 0` (left out of the residual history) and each
//! correction is a GMRES solve of the preconditioned correction equation.

use crate::ir::{refine, LowLu};
use xsc_core::{gemm, Float, Matrix, Result, Transpose};

/// Report from a [`gmres_ir_solve`] run.
#[derive(Debug, Clone)]
pub struct GmresIrReport {
    /// Outer refinement steps.
    pub outer_iterations: usize,
    /// Total inner GMRES iterations.
    pub inner_iterations: usize,
    /// Whether the backward error reached the tolerance.
    pub converged: bool,
    /// Backward error after each outer step.
    pub residual_history: Vec<f64>,
}

/// Unpreconditioned GMRES(restart) on a dense system, with the operator
/// provided as a closure (`y <- op(x)`). Returns the approximate solution
/// of `op(x) = rhs` and the iterations used.
fn gmres<F: Fn(&[f64], &mut [f64])>(
    op: &F,
    rhs: &[f64],
    restart: usize,
    max_iters: usize,
    tol: f64,
) -> (Vec<f64>, usize) {
    let n = rhs.len();
    let mut x = vec![0.0f64; n];
    let mut total_iters = 0;
    let bnorm = xsc_core::blas1::nrm2(rhs).max(f64::MIN_POSITIVE);

    loop {
        // r = rhs - op(x).
        let mut r = vec![0.0f64; n];
        op(&x, &mut r);
        for (ri, &bi) in r.iter_mut().zip(rhs.iter()) {
            *ri = bi - *ri;
        }
        let beta = xsc_core::blas1::nrm2(&r);
        if beta / bnorm <= tol || total_iters >= max_iters {
            return (x, total_iters);
        }
        let m = restart.min(max_iters - total_iters);
        // Arnoldi with modified Gram-Schmidt.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        v.push(r.iter().map(|&ri| ri / beta).collect());
        let mut h = vec![vec![0.0f64; m]; m + 1]; // h[i][j]
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        let mut k_used = 0;

        for j in 0..m {
            total_iters += 1;
            k_used = j + 1;
            let mut w = vec![0.0f64; n];
            op(&v[j], &mut w);
            for (i, vi) in v.iter().enumerate().take(j + 1) {
                let hij = xsc_core::blas1::dot_pairwise(&w, vi);
                h[i][j] = hij;
                xsc_core::blas1::axpy(-hij, vi, &mut w);
            }
            let hnext = xsc_core::blas1::nrm2(&w);
            h[j + 1][j] = hnext;
            // Apply the accumulated Givens rotations to column j.
            for i in 0..j {
                let tmp = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = tmp;
            }
            // New rotation to annihilate h[j+1][j].
            let denom = (h[j][j] * h[j][j] + hnext * hnext).sqrt();
            if denom == 0.0 {
                break;
            }
            cs[j] = h[j][j] / denom;
            sn[j] = hnext / denom;
            h[j][j] = denom;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            if g[j + 1].abs() / bnorm <= tol || hnext == 0.0 {
                break;
            }
            v.push(w.iter().map(|&wi| wi / hnext).collect());
        }

        // Back-substitute y from the triangularized H, update x.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for (jj, &yj) in y.iter().enumerate().skip(i + 1) {
                acc -= h[i][jj] * yj;
            }
            y[i] = acc / h[i][i];
        }
        for (j, &yj) in y.iter().enumerate() {
            xsc_core::blas1::axpy(yj, &v[j], &mut x);
        }
        if total_iters >= max_iters {
            return (x, total_iters);
        }
    }
}

/// Solves `A x = b` with GMRES-IR: LU in precision `Lo` used as a left
/// preconditioner for `f64` GMRES, wrapped in outer refinement.
pub fn gmres_ir_solve<Lo: Float>(
    a: &Matrix<f64>,
    b: &[f64],
    max_outer: usize,
    inner_restart: usize,
    tol: Option<f64>,
) -> Result<(Vec<f64>, GmresIrReport)> {
    assert!(a.is_square(), "gmres_ir_solve requires a square matrix");
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    gmres_ir(&LowLu::<Lo>::new(a)?, a, b, max_outer, inner_restart, tol)
}

/// [`gmres_ir_solve`] on a factorization already made.
pub(crate) fn gmres_ir<Lo: Float>(
    lu: &LowLu<Lo>,
    a: &Matrix<f64>,
    b: &[f64],
    max_outer: usize,
    inner_restart: usize,
    tol: Option<f64>,
) -> Result<(Vec<f64>, GmresIrReport)> {
    // Preconditioned operator y = U⁻¹L⁻¹(A·x), solved in the low precision.
    let op = |x: &[f64], y: &mut [f64]| {
        gemm::gemv(Transpose::No, 1.0, a, x, 0.0, y);
        y.copy_from_slice(&lu.solve(y));
    };
    let mut inner_iterations = 0;
    let (x, steps, history) = refine(a, b, None, tol, max_outer, false, |r| {
        let (d, inner) = gmres(&op, &lu.solve(r), inner_restart, inner_restart * 4, 1e-8);
        inner_iterations += inner;
        d
    })?;
    let report = GmresIrReport {
        outer_iterations: steps,
        inner_iterations,
        converged: true,
        residual_history: history,
    };
    Ok((x, report))
}

#[cfg(test)]
use xsc_core::norms;

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::gen;

    #[test]
    fn gmres_ir_solves_well_conditioned_system() {
        let n = 48;
        let a = gen::diag_dominant::<f64>(n, 1);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, report) = gmres_ir_solve::<f32>(&a, &b, 10, 20, None).unwrap();
        assert!(report.converged);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gmres_ir_survives_conditioning_that_kills_classic_ir() {
        // κ ~ 3e8: beyond classic fp32-IR's ~1/u ≈ 1e7 limit, within
        // GMRES-IR's reach.
        let n = 64;
        let a = gen::ill_conditioned_spd::<f64>(n, 3e8, 2);
        let b = gen::rhs_for_unit_solution(&a);

        let classic = crate::ir::lu_ir_solve::<f32>(&a, &b, 40, None);
        let gmres_based = gmres_ir_solve::<f32>(&a, &b, 25, 30, None);
        assert!(
            gmres_based.is_ok(),
            "GMRES-IR should converge where classic IR struggles: {gmres_based:?}"
        );
        let (x, _) = gmres_based.unwrap();
        assert!(norms::relative_residual(&a, &x, &b) < 1e-7);
        // Classic IR either fails or needs far more outer iterations.
        if let Ok((_, rep)) = classic {
            let (_, grep) = gmres_ir_solve::<f32>(&a, &b, 25, 30, None).unwrap();
            assert!(grep.outer_iterations <= rep.iterations + 5);
        }
    }

    #[test]
    fn inner_gmres_solves_identity_instantly() {
        let op = |x: &[f64], y: &mut [f64]| y.copy_from_slice(x);
        let rhs = vec![1.0, 2.0, 3.0];
        let (x, iters) = gmres(&op, &rhs, 5, 20, 1e-12);
        assert!(iters <= 2);
        for (a, b) in x.iter().zip(rhs.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn inner_gmres_handles_restarts() {
        // A system needing more Krylov dimensions than the restart length.
        let n = 30;
        let a = gen::diag_dominant::<f64>(n, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let op = |x: &[f64], y: &mut [f64]| {
            gemm::gemv(Transpose::No, 1.0, &a, x, 0.0, y);
        };
        let (x, _) = gmres(&op, &b, 5, 200, 1e-10);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-8);
    }
}
